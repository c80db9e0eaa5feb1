"""Energy functions and numerical stability certification.

Two closed loops, two energy functions:

- DAI mode: W = kinetic term + Bregman divergence of the network potential
  + Bregman divergence of the controller integral L(s).  Its derivative
  along trajectories splits into three nonpositive pieces: generator
  damping, a marginal-cost consensus term (a scaled Laplacian bilinear
  form), and a load-bus bracket.  L(s) is in closed form from the
  controller tables' antiderivative of the unclamped policy, held between
  its saturation crossings and linear beyond them.
- primary mode: V = kinetic + potential Bregman + a small cross term
  epsilon * (flow mismatch) . M . (frequency mismatch), whose derivative is
  a quadratic form in (flow mismatch, frequency mismatch) defined by a
  2n x 2n matrix Q(delta), minus a controller damping term.  M is the
  network's per-bus inertia, the one the primary-mode simulation divides
  by, so the certificate always scores the simulated model.

Everything here is numeric: positivity and decrease are checked on sampled
states and along simulated trajectories, the epsilon in V comes from a grid
search with a positive-definiteness test of Q at sampled angles (states
from one Generator.uniform draw), and the decay constant is assembled from
sampled extremal ratios.  The Q matrices of all sampled angles are stacked
and handed to LAPACK in one call: numpy.linalg Cholesky of Q tests
definiteness, and its factor's singular values give the smallest eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import NetParams, eval_u, validate_params
from .costs import CostModel
from .dynamics import Trajectory
from .equilibrium import Equilibrium
from .network import (PowerNetwork, angle_differences, edge_angle_spread,
                      flow_jacobian, flow_jacobian_apply, potential_energy,
                      power_flows, scaled_laplacian_bilinear,
                      to_center_of_inertia)

DEFAULT_EPS_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
REGION_MARGIN = 0.05          # rad, kept away from the pi/2 edge limit
OMEGA_RANGE = 0.05            # pu, sampling box for frequency deviations
S_RANGE = 2.0                 # sampling box for integral states
POSITIVITY_FLOOR = -1e-12     # certified energies may dip this far below 0
DECREASE_TOL_ABS = 1e-9       # absolute decrease slack per step
DECREASE_TOL_REL = 0.05       # relative slack factor on h*|Wdot|


class LyapunovError(ValueError):
    pass


# --------------------------------------------------------------------------
# controller integral L(s) = sum_i int_0^{s_i} u_i
# --------------------------------------------------------------------------

def _crossings(params: NetParams):
    """(x_lo, x_hi): where each bus's unclamped policy g meets u_lo and u_hi,
    the tables' `crossings`.  Their inverse needs a nondecreasing g, so a
    clamped bus whose g falls raises, unless validate_params accepts the
    policy within its roundoff allowance.
    """
    t = params._tables
    clamped = np.isfinite(params.u_lo) | np.isfinite(params.u_hi)
    bad = clamped & (np.diff(t.nodes[1], axis=0).min(axis=0) < 0.0)
    if bad.any() and not validate_params(params, warn=False):
        raise LyapunovError(f"bus {int(np.argmax(bad))}: clamped policy is not "
                            f"monotone, so L(s) has no closed form")
    return t.crossings


def integral_per_bus(params: NetParams, s):
    """Exact per-bus integral of u_i from 0 to s_i; s may carry batch dims.

    With x_c = x' clipped between the crossings, u = g up to x_c and a bound
    beyond it, so int_0^x' clip(g) = H(x') - H(0) with H(x') = G(x_c) +
    u(x_c) (x' - x_c), G being the tables' antiderivative of g; the deadband
    adds u(0) (s - shift(s)).  H is summed as (G - u x_c) + u x', which
    cancels exactly when both ends lie beyond one crossing.
    """
    s = np.asarray(s, dtype=float)
    t = params._tables
    x_lo, x_hi = _crossings(params)

    def tangent(xe):
        xc = np.clip(xe, x_lo, x_hi)
        g, big_g = t.antiderivative(xc, t.index(xc))
        u = t.clamp(g)
        return big_g - u * xc, u

    xe = t.shift(s)
    a_s, u_s = tangent(xe)
    a_0, u_0 = tangent(np.zeros(params.n))
    return a_s - a_0 + u_s * xe + u_0 * (s - xe)


def integral_L(controllers: NetParams, s):
    """L(s) = sum_i int_0^{s_i} u_i(xi) d xi (convex; gradient is u(s))."""
    return np.sum(integral_per_bus(controllers, s), axis=-1)


# --------------------------------------------------------------------------
# DAI-mode energy function
# --------------------------------------------------------------------------

def _unpack(state):
    """(delta, omega, s) of a (3, ..., n) state or a triple as float arrays
    (s may be None)."""
    return tuple(None if a is None else np.asarray(a, dtype=float) for a in state)


def _potential_bregman(net, delta, eq):
    """Bregman divergence of the network potential at delta against delta*,
    where the potential's gradient is the equilibrium flows."""
    return (potential_energy(net, delta) - potential_energy(net, eq.delta_star)
            - np.sum(power_flows(net, eq.delta_star) * (delta - eq.delta_star),
                     axis=-1))


def lyap_W(net: PowerNetwork, controllers: NetParams, state, eq: Equilibrium):
    """Energy of a DAI-mode state relative to the closed-loop equilibrium.

    pi*f0 * omega_G' M omega_G, plus the Bregman divergence of the network
    potential at delta against delta*, plus the Bregman divergence of the
    controller integral at s against s*.  Zero exactly at the equilibrium;
    positive on the security region around it.  Batch dims allowed.
    """
    delta, omega, s = _unpack(state)
    kinetic = np.pi * net.f0 * np.sum(net.m * omega[..., net.gens] ** 2, axis=-1)
    breg_u = _potential_bregman(net, delta, eq)
    breg_l = (integral_L(controllers, s) - integral_L(controllers, eq.s_star)
              - np.sum(eq.u_star * (s - eq.s_star), axis=-1))
    return kinetic + breg_u + breg_l


def lyap_W_dot(net: PowerNetwork, costs: CostModel, controllers: NetParams,
               state, eq: Equilibrium):
    """Analytic derivative of lyap_W along the dai_general flow.

    Three nonpositive pieces: generator damping -2 pi f0 omega_G' A_G
    omega_G; the marginal-cost consensus cross term; and the load-bus
    bracket -2 pi f0 w' A_L^{-1} w where w collects the load-bus flow and
    injection mismatches against equilibrium.  Batch dims allowed.
    """
    delta, omega, s = _unpack(state)
    two_pi_f0 = 2.0 * np.pi * net.f0
    u = eval_u(controllers, s)
    mc = costs.grad(u)
    damping = two_pi_f0 * np.sum(net.alpha[net.gens] * omega[..., net.gens] ** 2,
                                 axis=-1)
    cross = scaled_laplacian_bilinear(net, costs.zeta, u, mc)
    x, _ = _primary_mismatch(net, delta, omega, eq)
    ll = net.loads
    w = x[..., ll] - (u[..., ll] - eq.u_star[ll])
    bracket = two_pi_f0 * np.sum(w ** 2 / net.alpha[ll], axis=-1)
    return -damping - cross - bracket


def cross_term(net: PowerNetwork, costs: CostModel, controllers: NetParams, s):
    """Marginal-cost consensus dissipation u(s)' Z L_Q grad_C(u(s)).

    Returns (value, equalized): value is the communication-graph edge sum
    Q_ij (mc_i - mc_j)(zeta_i u_i - zeta_j u_j), nonnegative for any
    monotone marginal cost; equalized reports whether every edge
    marginal-cost difference is exactly zero (the only way value can vanish
    on a connected graph).  Batch dims allowed.
    """
    s = np.asarray(s, dtype=float)
    u = eval_u(controllers, s)
    mc = costs.grad(u)
    value = scaled_laplacian_bilinear(net, costs.zeta, u, mc)
    dmc = mc[..., net.comm_i] - mc[..., net.comm_j]
    equalized = np.all(dmc == 0.0, axis=-1)
    return value, equalized


# --------------------------------------------------------------------------
# primary-mode energy function
# --------------------------------------------------------------------------

def _primary_mismatch(net, delta, omega, eq):
    """x = flow mismatch, y = frequency mismatch, both batched."""
    return (power_flows(net, delta) - power_flows(net, eq.delta_star),
            omega - eq.omega_star)


def lyap_V(net: PowerNetwork, state, eq: Equilibrium, epsilon):
    """Primary-mode energy: kinetic + potential Bregman + epsilon cross term."""
    delta, omega, _ = _unpack(state)
    m = net.inertia
    x, y = _primary_mismatch(net, delta, omega, eq)
    kinetic = 0.5 * np.sum(m * y ** 2, axis=-1)
    return (kinetic + _potential_bregman(net, delta, eq)
            + epsilon * np.sum(x * m * y, axis=-1))


def lyap_V_dot(net: PowerNetwork, controllers: NetParams, state,
               eq: Equilibrium, epsilon):
    """Analytic derivative of lyap_V along the primary-mode flow.

    Equals -[x; y]' Q(delta) [x; y] - (y + eps x)'(u(omega) - u(omega* 1))
    with x the flow mismatch and y the frequency mismatch; evaluated
    matrix-free (the H M + M H block acts through Jacobian products).
    Batch dims allowed.
    """
    delta, omega, _ = _unpack(state)
    d = net.alpha
    x, y = _primary_mismatch(net, delta, omega, eq)
    # quadratic form: eps|x|^2 + eps x'D y + y'D y - eps y'H(delta) M y
    hmy = flow_jacobian_apply(net, delta, net.inertia * y)
    quad = (epsilon * np.sum(x * x, axis=-1)
            + epsilon * np.sum(x * d * y, axis=-1)
            + np.sum(d * y * y, axis=-1)
            - epsilon * np.sum(y * hmy, axis=-1))
    if controllers is not None:
        du = eval_u(controllers, omega) - eval_u(
            controllers, np.full(net.n, float(eq.omega_star)))
    else:
        du = np.zeros_like(omega)
    control = np.sum((y + epsilon * x) * du, axis=-1)
    return -quad - control


def assemble_Q(net: PowerNetwork, delta, epsilon):
    """Dense 2n x 2n matrix of the quadratic form in lyap_V_dot.

    Batch dims allowed: delta of shape (..., n) gives (..., 2n, 2n).
    """
    n = net.n
    d = np.diag(net.alpha)
    hm = flow_jacobian(net, delta) * net.inertia    # H @ diag(m)
    q = np.zeros(np.shape(delta)[:-1] + (2 * n, 2 * n))
    q[..., :n, :n] = epsilon * np.eye(n)
    q[..., :n, n:] = 0.5 * epsilon * d
    q[..., n:, :n] = 0.5 * epsilon * d
    q[..., n:, n:] = d - 0.5 * epsilon * (hm + np.swapaxes(hm, -1, -2))
    return q


def cholesky_factor(a):
    """Lower Cholesky factor of a stack of symmetric matrices, or None when
    some matrix of the stack is not positive definite."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


# --------------------------------------------------------------------------
# region sampling
# --------------------------------------------------------------------------

def sample_region_states(net: PowerNetwork, eq: Equilibrium, count, seed=0,
                         omega_range=OMEGA_RANGE, s_range=S_RANGE,
                         base_spread=0.4):
    """Random states around the equilibrium, inside the security region.

    Sample k is row k of np.random.default_rng(seed).uniform(-half, half,
    (count, 3n)), half holding base_spread, omega_range and s_range n times
    each: its angle, frequency and integral offsets.  A shorter run is thus a
    prefix of a longer one, and any sample can be reproduced alone: each
    double takes one 64-bit PCG64 output, so PCG64(seed).advance(3n k) draws
    sample k bit for bit (PCG's jump-ahead takes O(log k) steps; O'Neill,
    HMC-CS-2014-0905).  count and seed must be non-negative integers.

    Angle perturbations are halved until every edge difference stays in
    (-pi/2 + REGION_MARGIN, pi/2 - REGION_MARGIN), falling back to delta*
    after 64 halvings; frequency and integral offsets are box-uniform.
    Returns (delta, omega, s) stacked as (count, n) arrays.
    """
    for name, value in (("count", count), ("seed", seed)):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise LyapunovError(f"{name} must be a non-negative integer, "
                                f"got {value!r}")
    n = net.n
    limit = np.pi / 2 - REGION_MARGIN
    if edge_angle_spread(net, eq.delta_star) >= limit:
        raise LyapunovError("equilibrium itself violates the sampling margin")
    half = np.repeat([base_spread, omega_range, s_range], n)
    # uniform(-half, half) bit for bit, skipping its slow per-element broadcast
    r = np.random.default_rng(int(seed)).random((count, 3 * n))
    r *= 2.0 * half
    r -= half
    step = to_center_of_inertia(r[:, :n])
    # filled in place so it stays C-ordered: its row means then round exactly
    # as those of a single row do
    deltas = np.empty_like(step)
    deltas[:] = eq.delta_star
    pending = np.arange(count)
    for _ in range(64):
        cand = eq.delta_star + step[pending]
        ok = np.max(np.abs(angle_differences(net, cand)), axis=-1) < limit
        deltas[pending[ok]] = cand[ok]
        pending = pending[~ok]
        if not len(pending):
            break
        step[pending] *= 0.5
    omegas = eq.omega_star + r[:, n:2 * n]
    ss = (eq.s_star if eq.s_star is not None else 0.0) + r[:, 2 * n:]
    return to_center_of_inertia(deltas), omegas, ss


# --------------------------------------------------------------------------
# epsilon grid search and decay constant
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonSearchResult:
    epsilon: float
    c: float
    min_pivot: float
    lambda_min_q: float
    gamma1_hat: float
    alpha2_hat: float


def epsilon_and_c_search(net: PowerNetwork, eq: Equilibrium, grid=None,
                         samples=200, seed=0) -> EpsilonSearchResult:
    """Largest epsilon from a geometric grid certifying Q(delta) > 0.

    For each epsilon (largest first) Q itself is tested for positive
    definiteness (Cholesky) at the equilibrium and at sampled security-region
    angles; the first epsilon passing everywhere wins.  The decay constant
    follows the sampled-estimator recipe:

        c = min_delta lambda_min(Q(delta)) * min(1, gamma1_hat) / alpha2_hat

    with gamma1_hat the worst flow-vs-angle mismatch ratio and alpha2_hat
    the largest V / |state mismatch|^2 ratio over the samples (lambda_min
    from the Cholesky factor of Q, whose smallest pivot is reported
    alongside).  Every test runs on the whole (samples + 1)-state stack in
    one LAPACK call.
    """
    grid = DEFAULT_EPS_GRID if grid is None else tuple(grid)
    deltas, omegas, _ = sample_region_states(net, eq, samples, seed=seed)
    test_deltas = np.vstack([eq.delta_star[None, :], deltas])
    for chosen in sorted(grid, reverse=True):
        low = cholesky_factor(assemble_Q(net, test_deltas, chosen))
        if low is not None:
            break
    else:
        raise LyapunovError("no certifying epsilon found in the grid")
    min_pivot = float(np.min(np.diagonal(low, axis1=-2, axis2=-1) ** 2))
    # lambda_min(Q) = sigma_min(L)^2: eigvalsh of Q itself is off by about
    # eps |Q| in absolute terms (7e-11 relative on the 39-bus case), the
    # singular values of the factor keep the small eigenvalue to ~1e-15
    lam_min = float(np.min(np.linalg.svd(low, compute_uv=False)[..., -1]) ** 2)

    x, _ = _primary_mismatch(net, deltas, omegas, eq)
    dd = deltas - eq.delta_star
    dd_norm2 = np.sum(dd ** 2, axis=-1)
    keep = dd_norm2 > 1e-16
    gamma1 = float(np.min(np.sum(x[keep] ** 2, axis=-1) / dd_norm2[keep]))

    v = lyap_V(net, (deltas, omegas, None), eq, chosen)
    z2 = dd_norm2 + np.sum((omegas - eq.omega_star) ** 2, axis=-1)
    alpha2 = float(np.max(v / np.maximum(z2, 1e-16)))

    c = lam_min * min(1.0, gamma1) / alpha2
    return EpsilonSearchResult(epsilon=chosen, c=c, min_pivot=min_pivot,
                               lambda_min_q=float(lam_min), gamma1_hat=gamma1,
                               alpha2_hat=alpha2)


# --------------------------------------------------------------------------
# trajectory certification
# --------------------------------------------------------------------------

@dataclass
class CertificationReport:
    """Outcome of checking one trajectory against its energy function."""

    mode: str
    W: np.ndarray
    W_dot: np.ndarray
    fd: np.ndarray
    decrease_margin_min: float
    cross_min: float
    positivity_min: float
    fd_rel_err_max: float
    epsilon: float
    passed: bool
    first_violation: int
    failures: tuple
    decay_c: float = None       # primary mode, from the epsilon search it ran

    def summary(self):
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"certification {verdict} (mode={self.mode})",
                 f"  min W along trajectory      : {self.positivity_min:.3e}",
                 f"  min decrease margin         : {self.decrease_margin_min:.3e}"]
        if self.cross_min is not None:
            lines.append(f"  min cross term              : {self.cross_min:.3e}")
        if self.fd_rel_err_max is not None:
            lines.append(f"  max |Wdot - FD| rel error   : {self.fd_rel_err_max:.3e}")
        if self.epsilon is not None:
            lines.append(f"  epsilon                     : {self.epsilon:.3e}")
        if self.decay_c is not None:
            lines.append(f"  decay constant c            : {self.decay_c:.3e}")
        if not self.passed:
            lines.append(f"  first violation at step     : {self.first_violation}")
            lines.append(f"  failed checks               : {', '.join(self.failures)}")
        return "\n".join(lines)


def trajectory_energy(traj: Trajectory, net: PowerNetwork, controllers: NetParams,
                      eq: Equilibrium, epsilon=None):
    """(W, epsilon, c) along the trajectory: lyap_W in DAI mode (epsilon and
    c None); lyap_V in primary mode at epsilon, or at the one
    epsilon_and_c_search finds, with that search's decay constant c.  Other
    modes raise LyapunovError, read_csv's "unknown" (no angles) among them."""
    state = (traj.delta, traj.omega, traj.s)
    if traj.mode == "dai_general":
        return lyap_W(net, controllers, state, eq), None, None
    if traj.mode != "primary":
        why = (": its angles are missing (the CSV does not store them)"
               if traj.mode == "unknown" else "")
        raise LyapunovError(f"cannot certify mode {traj.mode!r}{why}")
    decay_c = None
    if epsilon is None:
        found = epsilon_and_c_search(net, eq)
        epsilon, decay_c = found.epsilon, found.c
    return lyap_V(net, state, eq, epsilon), epsilon, decay_c


def certify_trajectory(traj: Trajectory, net: PowerNetwork, costs: CostModel,
                       controllers: NetParams, eq: Equilibrium,
                       epsilon=None, fd_rtol=None) -> CertificationReport:
    """Check positivity and per-step decrease of the energy along a trajectory.

    W (or V), epsilon and the decay constant come from trajectory_energy,
    and W's derivative from lyap_W_dot (or lyap_V_dot).  The per-step
    decrease allowance is DECREASE_TOL_ABS + DECREASE_TOL_REL*h*|Wdot|
    (forward Euler overshoots the continuous decrease by O(h)).  A finite
    difference of the recorded energy is compared against the analytic
    derivative and gates the verdict only when fd_rtol is set.
    """
    w, epsilon, decay_c = trajectory_energy(traj, net, controllers, eq, epsilon)
    state = (traj.delta, traj.omega, traj.s)
    cross_min = None
    if traj.mode == "primary":
        wdot = lyap_V_dot(net, controllers, state, eq, epsilon)
    else:
        wdot = lyap_W_dot(net, costs, controllers, state, eq)
        cross = scaled_laplacian_bilinear(net, costs.zeta,
                                          traj.u, costs.grad(traj.u))
        cross_min = float(np.min(cross))

    h = float(traj.t[1] - traj.t[0])
    fd = np.gradient(w, h)

    slack = DECREASE_TOL_ABS + DECREASE_TOL_REL * h * np.abs(wdot[:-1])
    rise = np.diff(w)
    margins = slack - rise
    decrease_ok = margins >= 0.0
    positivity_ok = w >= POSITIVITY_FLOOR

    # Normalized agreement over the centered-stencil interior: pointwise
    # ratios blow up wherever the decrease rate passes through zero, so the
    # defect is measured against the largest rate seen on the trajectory.
    scale = float(np.max(np.abs(wdot))) if len(wdot) else 0.0
    fd_err = np.abs(fd[1:-1] - wdot[1:-1])
    fd_rel_err_max = float(np.max(fd_err)) / scale if fd_err.size and scale > 0 else 0.0

    failures = []
    first = len(w)
    if not np.all(positivity_ok):
        failures.append("positivity")
        first = min(first, int(np.argmin(positivity_ok)))
    if not np.all(decrease_ok):
        failures.append("decrease")
        first = min(first, int(np.argmin(decrease_ok)))
    if cross_min is not None and cross_min < -1e-12:
        failures.append("cross-term sign")
        first = 0
    if fd_rtol is not None and fd_rel_err_max > fd_rtol:
        failures.append("fd-mismatch")      # at the interior step of the worst error
        first = min(first, 1 + int(np.argmax(fd_err)))

    passed = not failures
    return CertificationReport(
        mode=traj.mode, W=w, W_dot=wdot, fd=fd,
        decrease_margin_min=float(np.min(margins)) if len(margins) else 0.0,
        cross_min=cross_min,
        positivity_min=float(np.min(w)),
        fd_rel_err_max=fd_rel_err_max,
        epsilon=epsilon,
        passed=passed,
        first_violation=(None if passed else int(first)),
        failures=tuple(failures),
        decay_c=decay_c,
    )
