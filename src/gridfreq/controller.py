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

Evaluation reads per-bus tables built once per NetParams.  With the plus
breakpoints sorted ascending (k reordered to match), x' > b_plus holds on a
prefix of them, so with c = #(x' > b_plus)

    f_plus(x') = K_plus[c] x' - C_plus[c],
    K_plus = [0, cumsum(k_plus)],  C_plus = [0, cumsum(k_plus * b_plus)],
    antiderivative K_plus[c] x'^2 / 2 - C_plus[c] x' + E_plus[c] with
    E_plus = [0, cumsum(k_plus * b_plus^2)] / 2,

and the minus side mirrors this with the breakpoints sorted descending and
c = #(x' < b_minus).  Sorting inside the tables keeps directly built
parameters with unsorted or repeated breakpoints exact.

The two sides share one count.  For every float x', x' > nextafter(b, -inf)
holds exactly when x' >= b, so over a bus's 2d merged thresholds theta =
[nextafter(b_minus, -inf), b_plus], sorted, the rank

    r = #(x' > theta) = #(x' > b_plus) + #(x' >= b_minus) = c_plus - c_minus + d,

and the plus thresholds among the first r give c_plus.  Row r of the merged
table holds the sum of the two one-sided rows at those counts, formed as the
one-sided evaluation forms it, so one compare, one reduce and one gather
give its bits.  The right-limit slope needs the weak count #(x' >= b_plus)
where x' equals the next plus breakpoint, so each row also carries that
breakpoint and the slopes at the strict and the weak count.  The rank comes
from a bool mask against the thresholds tiled along the flattened inputs
(at most TILE_ELEMENTS of them; longer inputs are ranked in chunks of
rows), so no (..., n, d) float stack is formed; training's adjoint bins its
parameter terms by the same rank.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SLOPE_WARN_FLOOR = 1e-6
TILE_ELEMENTS = 1 << 17     # tiled thresholds (1 MB of float64)


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

    @cached_property
    def _tables(self):
        """Evaluation tables, built on first use; the table arrays are
        read-only from then on (only the tiled breakpoint copy grows, and
        `nodes` and `crossings` are built on first use)."""
        return _Tables(self)


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

    Returns True when every k and b is finite and every bus satisfies both
    chains with all plus partial sums > 0 and minus partial sums < 0 (strict
    monotonicity).  The all-zero controller and any bus whose slope dips
    below SLOPE_WARN_FLOOR trigger a warning; actually negative partial sums
    return False.
    """
    if not all(np.isfinite(a).all() for a in (params.k_plus, params.b_plus,
                                               params.k_minus, params.b_minus)):
        return False
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


class _Tables:
    """Merged-rank tables of one NetParams (module docstring): flat row
    bus*(2d+1) + r of `pair` holds (K, -C) of g = K x' - C at rank r, of
    `E` the two sides' E, and of `slopes` the next plus breakpoint with the
    strict and weak right-limit slopes.  `inverse` solves g(x') = y on these
    rows between the `nodes`.
    """

    def __init__(self, params: NetParams):
        n, d = params.k_plus.shape
        order_p = np.argsort(params.b_plus, axis=-1, kind="stable")
        order_m = np.argsort(-params.b_minus, axis=-1, kind="stable")
        sorted_p = np.take_along_axis(params.b_plus, order_p, -1)
        sorted_m = np.take_along_axis(params.b_minus, order_m, -1)
        k_p = np.take_along_axis(params.k_plus, order_p, -1)
        k_m = np.take_along_axis(params.k_minus, order_m, -1)

        def prefix(a):
            return np.concatenate([np.zeros((n, 1)), np.cumsum(a, -1)], -1)

        K_p, K_m = prefix(k_p), prefix(k_m)                          # (n, d+1)
        C_p, C_m = prefix(k_p * sorted_p), prefix(k_m * sorted_m)
        E_p = 0.5 * prefix(k_p * sorted_p ** 2)
        E_m = -0.5 * prefix(k_m * sorted_m ** 2)

        # merged thresholds; the plus ones among the first r give c_plus
        theta = np.concatenate([np.nextafter(params.b_minus, -np.inf),
                                params.b_plus], axis=1)
        order = np.argsort(theta, axis=-1, kind="stable")
        self.pos = np.argsort(order, axis=-1, kind="stable")  # b_minus, b_plus
        cp = prefix(order >= d).astype(np.intp)                      # (n, 2d+1)
        cm = d - (np.arange(2 * d + 1) - cp)
        bus = np.arange(n)[:, None]
        self.pair = (np.stack([K_p, -C_p], -1)[bus, cp]
                     + np.stack([-K_m, C_m], -1)[bus, cm]).reshape(-1, 2)
        self.E = np.stack([E_p[bus, cp], E_m[bus, cm]], -1).reshape(-1, 2)
        # weak plus count at x' = the next breakpoint: the end of the run of
        # breakpoints equal to it (the first run end at or after c)
        ends = np.broadcast_to(np.arange(1, d + 1), (n, d)).copy()
        ends[:, :-1][sorted_p[:, :-1] == sorted_p[:, 1:]] = d
        ends = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
        weak = np.concatenate([ends, np.full((n, 1), d)], axis=1)[bus, cp]
        nxt = np.concatenate([sorted_p, np.full((n, 1), np.inf)], axis=1)[bus, cp]
        self.slopes = np.stack([nxt, K_p[bus, cp] - K_m[bus, cm],
                                K_p[bus, weak] - K_m[bus, cm]], -1).reshape(-1, 3)
        self.breakpoints = np.sort(np.concatenate([params.b_minus, params.b_plus],
                                                  axis=1), axis=1)
        self.off = np.arange(n) * (2 * d + 1)
        self.count_dtype = np.min_scalar_type(2 * d)
        # (2d, n) sorted thresholds, tiled along the entries up to tile_size
        # = rows * n of them (2d * tile_size <= TILE_ELEMENTS, or one row);
        # the copy grows to the largest input seen, and `layouts` maps an
        # input shape to the copy's (2d,) + shape view
        self.thresholds = np.take_along_axis(theta, order, -1).T
        self.tile_size = max(1, TILE_ELEMENTS // (2 * d * n)) * n
        self.tiled = self.thresholds
        self.layouts = {}
        self.dz, self.u_lo, self.u_hi = params.dz, params.u_lo, params.u_hi
        self.shifted = bool(np.any(params.dz > 0))
        self.clamped = bool(np.any(np.isfinite(params.u_lo))
                            or np.any(np.isfinite(params.u_hi)))

    def shift(self, x):
        """The input after the deadband shift (|x| moved toward zero by dz)."""
        if not self.shifted:
            return x
        return np.sign(x) * np.maximum(np.abs(x) - self.dz, 0.0)

    def rank(self, xe):
        """r = #(x' > theta) over each bus's 2d merged thresholds, for every
        entry of xe (last axis against n); NaN ranks 0.  Inputs longer than
        the tiled copy are counted in chunks of its rows."""
        b = self.layouts.get(xe.shape)
        if b is None:
            n = self.off.size
            if xe.shape[-1:] != (n,):
                return self.rank(np.broadcast_to(xe, xe.shape[:-1] + (n,)))
            if xe.size > self.tile_size:
                rows, step = xe.reshape(-1, n), self.tile_size // n
                return np.concatenate([self.rank(rows[lo:lo + step])
                                       for lo in range(0, len(rows), step)]
                                      ).reshape(xe.shape)
            if self.tiled.shape[-1] < xe.size:       # grow the tiled copy
                self.tiled = np.tile(self.thresholds, xe.size // n)
                self.layouts = {}
            b = self.layouts[xe.shape] = self.tiled[:, :xe.size].reshape(
                self.thresholds.shape[:1] + xe.shape)
        return np.add.reduce(np.greater(xe, b).view(np.uint8), axis=0,
                             dtype=self.count_dtype)

    def index(self, xe):
        """Table rows bus*(2d+1) + r of x'."""
        return self.off + self.rank(xe)

    def rows(self, r):
        """(K, -C) of g = K x' - C at table rows r."""
        pair = self.pair.take(r, axis=0)
        return pair[..., 0], pair[..., 1]

    def value(self, xe, r):
        """The unclamped g = f_plus + f_minus at x' from its table rows."""
        k, c = self.rows(r)
        return k * xe + c

    def antiderivative(self, xe, r):
        """(g, G) at x' from its table rows; G = K x'^2 / 2 - C x' + E, so
        G' = g (k max(0, x' - b) integrates to k (x' - b)^2 / 2)."""
        k, c = self.rows(r)
        e = self.E.take(r, axis=0)
        kx = k * xe
        return kx + c, (0.5 * kx + c) * xe + e[..., 0] + e[..., 1]

    def unclamped(self, x):
        """g = f_plus + f_minus at x (float array, last axis against n)."""
        xe = self.shift(x)
        return self.value(xe, self.index(xe))

    def slope(self, x, xe, r):
        """Right-limit slope of g at x from the table rows r of x': k_plus
        counts where x' >= b_plus (the weak count where x' is the next plus
        breakpoint), -k_minus where x' < b_minus.  Zero inside the
        deadband."""
        nxt, strict, weak = np.moveaxis(self.slopes.take(r, axis=0), -1, 0)
        slope = np.where(xe == nxt, weak, strict)
        if self.shifted:
            slope = slope * ((x >= self.dz) | (x < -self.dz))
        return slope

    @cached_property
    def nodes(self):
        """(x, g): both sides' breakpoints sorted and padded by one point
        beyond each end, shape (2d + 2, n), and the unclamped g there."""
        x = self.breakpoints
        x = np.concatenate([x[:, :1] - 1.0, x, x[:, -1:] + 1.0], axis=1).T
        return x, self.value(x, self.index(x))

    def inverse(self, y):
        """x' where a nondecreasing g meets y (k, n): on the line k x' + c of
        the segment ending at the first node where g >= y (the end segments
        extend to infinity), or its first node if its slope is below 1e-300."""
        x, g = self.nodes
        j = np.clip(np.sum(g[:, None] < y, axis=0), 1, len(x) - 1)
        bus = np.arange(len(self.off))
        x0 = x[j - 1, bus]
        k, c = self.rows(self.index(0.5 * (x0 + x[j, bus])))
        # flatter: the crossing may lie past the floats
        return np.divide(y - c, k, out=x0, where=k >= 1e-300)

    @cached_property
    def crossings(self):
        """(x_lo, x_hi), (2, n): the x' where g meets u_lo and u_hi.  On a
        clamped bus `inverse` solves each bound on the line of the segment
        that meets it, which stays exact on the near-flat end segments where
        node differences of g are all roundoff (an infinite bound met on a
        rising end segment is its own crossing); on an unclamped bus both
        bounds are."""
        bounds = np.stack([self.u_lo, self.u_hi])
        return np.where(np.isfinite(bounds).any(axis=0), self.inverse(bounds), bounds)

    def clamp(self, g):
        return np.clip(g, self.u_lo, self.u_hi) if self.clamped else g

    def unsaturated(self, g):
        """Where the unclamped value g lies strictly inside (u_lo, u_hi)."""
        return (g < self.u_hi) & (g > self.u_lo)


def eval_u(params: NetParams, x):
    """Evaluate every bus policy; x broadcasts against (n,) on its last axis."""
    t = params._tables
    return t.clamp(t.unclamped(np.asarray(x, dtype=float)))


def lipschitz_constant(params: NetParams):
    """Per-bus bound on |u(x1) - u(x2)| / |x1 - x2|: the steepest segment."""
    ps_plus = np.cumsum(params.k_plus, axis=-1)
    ps_minus = np.cumsum(params.k_minus, axis=-1)
    return np.maximum(ps_plus.max(axis=-1, initial=0.0),
                      (-ps_minus).max(axis=-1, initial=0.0))


def identity_params(n=1, u_lo=None, u_hi=None, dz=None) -> NetParams:
    """Slope-1 policy u(x) = x on every bus (useful baseline, d = 1)."""
    return scaled_identity_params(np.ones(n), u_lo=u_lo, u_hi=u_hi, dz=dz)


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


# --- checkpoint serialization -------------------------------------------------

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
