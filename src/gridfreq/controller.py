"""Monotone piecewise-linear control policies (stacked-ReLU form).

Each bus gets a scalar policy

    u(x) = clamp(f_plus(x') + f_minus(x'), u_lo, u_hi),
    f_plus(x)  = sum_j k_plus[j]  * max(0,  x - b_plus[j]),
    f_minus(x) = sum_j k_minus[j] * max(0, -x + b_minus[j]),

where x' is the input after an optional deadband shift.  Monotonicity is not
enforced on (k, b) directly; instead an unconstrained reparameterization
guarantees it by construction:

    k_plus[0] = mu_plus[0]^2,  k_plus[j] = mu_plus[j]^2 - mu_plus[j-1]^2
    b_plus[0] = 0,             b_plus[j] = sum_{l<j} chi_plus[l]^2

(and mirrored with opposite signs on the minus side).  Every partial sum of
k_plus is a square, so the slope of f_plus is nonnegative everywhere, the
breakpoints are ordered, and u passes through the origin.  Gradient descent
can therefore move the raw (mu, chi) parameters freely.

All parameter arrays carry a leading bus axis: shape (n, d) for mu/k/b and
(n, d-1) for chi.  Evaluation broadcasts: x may be any shape broadcastable
against (n,) on its last axis.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

SLOPE_WARN_FLOOR = 1e-6


@dataclass(frozen=True)
class RawParams:
    """Unconstrained trainable parameters; shapes (n, d) and (n, d-1)."""

    mu_plus: np.ndarray
    mu_minus: np.ndarray
    chi_plus: np.ndarray
    chi_minus: np.ndarray

    @property
    def n(self):
        return self.mu_plus.shape[0]

    @property
    def d(self):
        return self.mu_plus.shape[1]

    def copy(self):
        return RawParams(self.mu_plus.copy(), self.mu_minus.copy(),
                         self.chi_plus.copy(), self.chi_minus.copy())


@dataclass(frozen=True)
class NetParams:
    """Evaluation-form parameters, plus saturation bounds and deadband.

    Constructing this type directly performs no monotonicity validation (the
    certification tests rely on injecting deliberately broken slopes); use
    validate_params to check the chain conditions.
    """

    k_plus: np.ndarray
    b_plus: np.ndarray
    k_minus: np.ndarray
    b_minus: np.ndarray
    u_lo: np.ndarray = None
    u_hi: np.ndarray = None
    dz: np.ndarray = None

    def __post_init__(self):
        n = self.k_plus.shape[0]
        if self.u_lo is None:
            object.__setattr__(self, "u_lo", np.full(n, -np.inf))
        if self.u_hi is None:
            object.__setattr__(self, "u_hi", np.full(n, np.inf))
        if self.dz is None:
            object.__setattr__(self, "dz", np.zeros(n))

    @property
    def n(self):
        return self.k_plus.shape[0]

    @property
    def d(self):
        return self.k_plus.shape[1]


def transform_params(raw: RawParams, u_lo=None, u_hi=None, dz=None) -> NetParams:
    """Map unconstrained parameters to guaranteed-monotone network form."""
    mp2 = raw.mu_plus ** 2
    mm2 = raw.mu_minus ** 2
    k_plus = np.diff(mp2, axis=-1, prepend=0.0)
    k_minus = -np.diff(mm2, axis=-1, prepend=0.0)
    zeros = np.zeros(mp2.shape[:-1] + (1,))
    b_plus = np.concatenate([zeros, np.cumsum(raw.chi_plus ** 2, axis=-1)], axis=-1)
    b_minus = -np.concatenate([zeros, np.cumsum(raw.chi_minus ** 2, axis=-1)], axis=-1)
    n = raw.n
    return NetParams(
        k_plus=k_plus, b_plus=b_plus, k_minus=k_minus, b_minus=b_minus,
        u_lo=None if u_lo is None else np.broadcast_to(np.asarray(u_lo, float), (n,)).copy(),
        u_hi=None if u_hi is None else np.broadcast_to(np.asarray(u_hi, float), (n,)).copy(),
        dz=None if dz is None else np.broadcast_to(np.asarray(dz, float), (n,)).copy(),
    )


def validate_params(params: NetParams, warn=True):
    """Check the ordered-bias and positive-partial-sum chains.

    Returns True when every bus satisfies both chains with all plus partial
    sums > 0 and minus partial sums < 0 (strict monotonicity).  The all-zero
    controller and any bus whose slope dips below SLOPE_WARN_FLOOR trigger a
    warning; actually negative partial sums return False.
    """
    ps_plus = np.cumsum(params.k_plus, axis=-1)
    ps_minus = np.cumsum(params.k_minus, axis=-1)
    # allowance for roundoff in the telescoping sums (exactly-zero slopes can
    # reconstruct to ~1e-16 of either sign)
    tol = 1e-12 * max(1.0, float(np.abs(params.k_plus).sum(axis=-1).max(initial=0)),
                      float(np.abs(params.k_minus).sum(axis=-1).max(initial=0)))
    ok = True
    if np.any(np.diff(params.b_plus, axis=-1) < -tol) or np.any(np.abs(params.b_plus[:, 0]) > tol):
        ok = False
    if np.any(np.diff(params.b_minus, axis=-1) > tol) or np.any(np.abs(params.b_minus[:, 0]) > tol):
        ok = False
    if np.any(ps_plus < -tol) or np.any(ps_minus > tol):
        ok = False
    weakest = min(ps_plus.min(initial=np.inf), (-ps_minus).min(initial=np.inf))
    if ok and weakest < SLOPE_WARN_FLOOR and warn:
        warnings.warn(f"controller slope partial sum {weakest:.2e} below "
                      f"{SLOPE_WARN_FLOOR}; monotonicity only weak", stacklevel=2)
    return bool(ok)


def _relu_pass(params: NetParams, x, keep=False):
    """The stacked-ReLU evaluation every caller shares.

    Returns (xe, g, relu_plus, relu_minus): the input after the deadband
    shift (|x| moved toward zero by dz), the unclamped value g = f_plus +
    f_minus, and the two (..., n, d) ReLU stacks.  Each stack is built in
    place; unless keep is set the plus stack is dropped (returned as None)
    before the minus stack is made, so plain evaluation holds one at a time.
    """
    x = np.asarray(x, dtype=float)
    xe = np.sign(x) * np.maximum(np.abs(x) - params.dz, 0.0)
    xcol = xe[..., None]
    relu_p = xcol - params.b_plus
    np.maximum(relu_p, 0.0, out=relu_p)
    g = np.sum(params.k_plus * relu_p, axis=-1)
    if not keep:
        relu_p = None
    relu_m = params.b_minus - xcol
    np.maximum(relu_m, 0.0, out=relu_m)
    g = g + np.sum(params.k_minus * relu_m, axis=-1)
    return xe, g, relu_p, relu_m


def _slope(params: NetParams, x, xe):
    """Right-limit slope of the unclamped policy at x (xe: its shifted input).

    f_plus counts k_plus[j] wherever x' >= b_plus[j]; f_minus contributes
    -k_minus[j] where x' < b_minus[j].  Zero inside the deadband.
    """
    xcol = xe[..., None]
    slope = (np.sum(params.k_plus * (xcol >= params.b_plus), axis=-1)
             + np.sum(-params.k_minus * (xcol < params.b_minus), axis=-1))
    if np.any(params.dz > 0):
        slope = slope * ((x >= params.dz) | (x < -params.dz))
    return slope


def _unsaturated(params: NetParams, g):
    """Where the unclamped value g lies strictly inside (u_lo, u_hi)."""
    return (g < params.u_hi) & (g > params.u_lo)


def eval_u(params: NetParams, x):
    """Evaluate every bus policy; x broadcasts against (n,) on its last axis."""
    return np.clip(_relu_pass(params, x)[1], params.u_lo, params.u_hi)


def eval_slope(params: NetParams, x):
    """Right-limit derivative of eval_u at x (zero where saturated).

    Inside the deadband, and strictly beyond a saturation bound, the slope
    is zero.
    """
    x = np.asarray(x, dtype=float)
    xe, g, _, _ = _relu_pass(params, x)
    return np.where(_unsaturated(params, g), _slope(params, x, xe), 0.0)


def lipschitz_constant(params: NetParams):
    """Per-bus bound on |u(x1) - u(x2)| / |x1 - x2|: the steepest segment."""
    ps_plus = np.cumsum(params.k_plus, axis=-1)
    ps_minus = np.cumsum(params.k_minus, axis=-1)
    return np.maximum(ps_plus.max(axis=-1, initial=0.0),
                      (-ps_minus).max(axis=-1, initial=0.0))


def identity_params(n=1, u_lo=None, u_hi=None, dz=None) -> NetParams:
    """Slope-1 policy u(x) = x on every bus (useful baseline, d = 1)."""
    raw = RawParams(mu_plus=np.ones((n, 1)), mu_minus=np.ones((n, 1)),
                    chi_plus=np.zeros((n, 0)), chi_minus=np.zeros((n, 0)))
    return transform_params(raw, u_lo=u_lo, u_hi=u_hi, dz=dz)


def scaled_identity_params(gains, u_lo=None, u_hi=None, dz=None) -> NetParams:
    """Per-bus linear policy u_i(x) = gains[i] * x (the classic linear rule)."""
    g = np.asarray(gains, dtype=float)
    if np.any(g < 0):
        raise ValueError("linear controller gains must be nonnegative")
    n = len(g)
    raw = RawParams(mu_plus=np.sqrt(g)[:, None], mu_minus=np.sqrt(g)[:, None],
                    chi_plus=np.zeros((n, 0)), chi_minus=np.zeros((n, 0)))
    return transform_params(raw, u_lo=u_lo, u_hi=u_hi, dz=dz)


def init_raw_params(n, d, rng) -> RawParams:
    """Seeded initialization: mu ~ U(0.1, 0.5) keeps every slope strictly
    positive at the start; chi ~ U(0, 0.3) spreads breakpoints near the origin."""
    return RawParams(
        mu_plus=rng.uniform(0.1, 0.5, size=(n, d)),
        mu_minus=rng.uniform(0.1, 0.5, size=(n, d)),
        chi_plus=rng.uniform(0.0, 0.3, size=(n, d - 1)),
        chi_minus=rng.uniform(0.0, 0.3, size=(n, d - 1)),
    )


def construct_from_samples(target, d, domain) -> NetParams:
    """Fit a single-bus monotone policy to a monotone target function.

    Places d uniformly spaced breakpoints on each side of the origin over
    domain = (lo, hi), sets each segment's slope to the target's finite
    difference (clamped to be nonnegative), and returns params that
    interpolate the target at every grid node.  Denser d gives a smaller
    sup-norm error for any Lipschitz monotone target.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not (lo < 0.0 < hi):
        raise ValueError("domain must straddle the origin")
    if abs(float(target(0.0))) > 1e-12:
        raise ValueError("target must pass through the origin")
    grid = np.linspace(lo, hi, 1000)
    vals = np.array([float(target(g)) for g in grid])
    if np.any(np.diff(vals) < -1e-12):
        raise ValueError("target not monotone")

    nodes_p = np.linspace(0.0, hi, d + 1)            # 0 .. hi, d segments
    tv = np.array([float(target(t)) for t in nodes_p])
    seg = np.maximum(np.diff(tv) / np.diff(nodes_p), 0.0)
    k_plus = np.diff(seg, prepend=0.0)
    b_plus = nodes_p[:-1]

    nodes_m = np.linspace(0.0, lo, d + 1)            # 0 .. lo, going left
    tv = np.array([float(target(t)) for t in nodes_m])
    # slope of segment j (left of origin) = rise/run with run < 0
    seg_m = np.maximum(np.diff(tv) / np.diff(nodes_m), 0.0)
    k_minus = -np.diff(seg_m, prepend=0.0)
    b_minus = nodes_m[:-1]

    return NetParams(k_plus=k_plus[None, :], b_plus=b_plus[None, :],
                     k_minus=k_minus[None, :], b_minus=b_minus[None, :])


def select_bus(params: NetParams, i) -> NetParams:
    """Single-bus view of a multi-bus parameter set."""
    sl = slice(i, i + 1)
    return NetParams(params.k_plus[sl], params.b_plus[sl],
                     params.k_minus[sl], params.b_minus[sl],
                     params.u_lo[sl], params.u_hi[sl], params.dz[sl])


# --- checkpoint serialization -------------------------------------------------

def _enc(a):
    return np.where(np.isfinite(a), a, np.nan).tolist()


def save_checkpoint(path, raw: RawParams, u_lo=None, u_hi=None, dz=None,
                    seed=None, meta=None):
    """Write raw params plus evaluation settings as a JSON checkpoint.

    Infinite saturation bounds are stored as null; `meta` may carry training
    metadata (epochs, loss history, config hash).
    """
    n = raw.n
    u_lo = np.full(n, -np.inf) if u_lo is None else np.asarray(u_lo, float)
    u_hi = np.full(n, np.inf) if u_hi is None else np.asarray(u_hi, float)
    dz = np.zeros(n) if dz is None else np.asarray(dz, float)
    doc = {
        "format": "gridfreq-controller-v1",
        "n": n,
        "d": raw.d,
        "mu_plus": raw.mu_plus.tolist(),
        "mu_minus": raw.mu_minus.tolist(),
        "chi_plus": raw.chi_plus.tolist(),
        "chi_minus": raw.chi_minus.tolist(),
        "u_lo": [None if not np.isfinite(v) else v for v in u_lo],
        "u_hi": [None if not np.isfinite(v) else v for v in u_hi],
        "dz": dz.tolist(),
        "seed": seed,
        "meta": meta or {},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_checkpoint(path):
    """Read a checkpoint; returns (RawParams, NetParams, doc)."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "gridfreq-controller-v1":
        raise ValueError(f"{path}: not a controller checkpoint")
    raw = RawParams(
        mu_plus=np.array(doc["mu_plus"], dtype=float),
        mu_minus=np.array(doc["mu_minus"], dtype=float),
        chi_plus=np.array(doc["chi_plus"], dtype=float).reshape(doc["n"], doc["d"] - 1),
        chi_minus=np.array(doc["chi_minus"], dtype=float).reshape(doc["n"], doc["d"] - 1),
    )
    u_lo = np.array([-np.inf if v is None else v for v in doc["u_lo"]])
    u_hi = np.array([np.inf if v is None else v for v in doc["u_hi"]])
    dz = np.array(doc["dz"], dtype=float)
    params = transform_params(raw, u_lo=u_lo, u_hi=u_hi, dz=dz)
    return raw, params, doc
