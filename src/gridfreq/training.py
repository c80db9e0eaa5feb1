"""Gradient-descent training of the monotone policies through the dynamics.

The discrete-time rollout (one dynamics.euler_step per step, the simulator's
own Euler step over its right-hand side dynamics.derivatives, taken on the
whole batch at once) is unrolled over L steps for a batch of random
disturbances, and the loss

    J = mean over batch [ sum_gens max_l |omega_i at step l+1|
                          + rho * (1/L) sum_i sum_l C_i(u_i(s_i at step l)) ]

is differentiated exactly in reverse mode, by hand: adjoints flow backward
through the Euler updates, through the controllers via their right-limit
slopes, through the marginal costs via the cost curvature, through the
network flows via the angle Jacobian (applied matrix-free), through the
algebraic load-bus frequencies, and finally through the square/telescoping
reparameterization onto the raw parameters.  The frequency-nadir term routes
its entire gradient to the first step attaining each bus's maximum.

The backward sweep walks the tape in blocks of consecutive steps, last block
first.  Every term that depends on the stored states alone (the controller
values, saturation masks and slopes, the cost derivatives, and the cosine
line weights of the flow Jacobian) is computed once per block in whole-block
array operations; only the adjoint recursion runs step by step.  The
controller table rows are not recounted: the rollout ranks each input
among the merged thresholds once and stores the rank on the tape, and the
sweep reads it back.
Elementwise operations give the same bits on a block as on one step, and the
per-step products and histogram sums keep their shapes and order, so the
gradient does not depend on the block length.

No autodiff framework is involved.  The test suite checks backprop against
per-parameter central finite differences, and the CLI's gradient audit
(`gridfreq grad-check`, `gridfreq train --grad-check`) against central
differences along seeded random directions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# eval_u is not called here but stays importable from this module, as the
# benchmark's tracer test looks it up through training
from .controller import (NetParams, RawParams, check_policy_range, eval_u,
                         init_raw_params, transform_params, validate_params)
from .costs import CostModel
from .dynamics import (DynamicsError, Scenario, check_scenario, derivatives,
                       euler_step, gauge_initial)
from .network import (PowerNetwork, comm_laplacian_apply, flow_jacobian_apply,
                      line_weights)


# steps per block of the backward sweep: BLOCK_ELEMENTS // (B * n), at least
# one; a block's state-only terms are about a dozen (steps, B, n) arrays
BLOCK_ELEMENTS = 1 << 15
# gradient_tie_risk: how near a kink or a nadir tie counts as a tie
TIE_TOL = 1e-5


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; defaults are sized for the packaged 39-bus case."""

    rho: float = 0.01           # cost-term weight in the loss
    d: int = 20                 # hidden pairs per controller
    h: float = 5e-4             # rollout step (s)
    T: float = 2.5              # rollout horizon (s)
    batch_size: int = 64
    epochs: int = 50
    lr: float = 0.4
    lr_decay: float = 0.95
    p_lo: float = -5.0
    p_hi: float = 5.0
    seed: int = 0
    u_lo: float = None          # optional saturation for the trained policies
    u_hi: float = None
    dz: float = 0.0

    def __post_init__(self):
        for name, least in (("d", 1), ("batch_size", 1), ("epochs", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= least):
                raise ValueError(f"TrainConfig.{name} must be an integer >= {least}, "
                                 f"got {value!r}")
        for name in ("rho", "h", "T", "lr", "lr_decay", "p_lo", "p_hi"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float, np.number)) and np.isfinite(value)):
                raise ValueError(f"TrainConfig.{name} must be a finite number, "
                                 f"got {value!r}")
        if not self.h > 0:
            raise ValueError(f"TrainConfig.h must be positive, got {self.h!r}")
        if not self.T >= self.h:
            raise ValueError(f"TrainConfig.T must be finite and cover at least "
                             f"one step h = {self.h!r}, got {self.T!r}")
        if self.p_lo > self.p_hi:
            raise ValueError(f"TrainConfig.p_lo = {self.p_lo!r} exceeds "
                             f"TrainConfig.p_hi = {self.p_hi!r}")
        check_policy_range(self.u_lo, self.u_hi, self.dz, "TrainConfig.{}".format)

    @property
    def steps(self):
        return int(np.floor(self.T / self.h + 1e-9))


@dataclass
class Tape:
    """Forward-pass record needed by the exact backward pass.

    Controller outputs, slopes, marginal costs and line weights are
    recomputed during the backward sweep, one block of steps at a time, from
    the stored (theta, omega_G, s) tracks and the controller table counts
    the forward took; these reproduce every intermediate exactly.  `count`
    holds, per input s[l], its rank r = #(x' > b_plus) - #(x' < b_minus) + d
    among the merged thresholds (controller module docstring): the table
    row is bus*(2d+1) + r, and r fits one byte while d <= 127.  train drops
    each epoch's tape before the next rollout, so one tape is alive at a
    time.
    """

    raw: RawParams
    params: NetParams
    p: np.ndarray               # (B, n) disturbances
    theta: np.ndarray           # (L+1, B, n)
    omega_g: np.ndarray         # (L+1, B, n_gen)
    s: np.ndarray               # (L+1, B, n)
    loss: float
    nadir_step: np.ndarray      # (B, n_gen) argmax step index (first on ties)
    nadir_sign: np.ndarray      # (B, n_gen) sign of omega at that step
    cfg: TrainConfig
    count: np.ndarray           # (L, B, n) merged table ranks of s[:-1]


def rollout_loss(net: PowerNetwork, costs: CostModel, raw: RawParams,
                 p: np.ndarray, cfg: TrainConfig,
                 initial=None) -> tuple[float, Tape]:
    """Unroll the closed loop for a disturbance batch and score it.

    p has shape (B, n).  Returns the scalar loss (batch mean) and the tape
    for backprop.  Each step is one dynamics.euler_step over
    dynamics.derivatives, the step simulate takes, with its blow-up rule
    (DynamicsError naming the step, and the state row, bus and scenario);
    the policies are evaluated here from their tables, so that the step's
    table ranks go on the tape.  `initial` is the (3, B, n) state of
    (theta, omega, s) rows at step 0, as dynamics.Scenario takes it (the
    load-bus omega entries are ignored); it goes through
    dynamics.gauge_initial as simulate's does (a non-finite entry raises
    DynamicsError, and the angles are centered), so the tape holds its
    angles in the center-of-inertia gauge.
    """
    params = transform_params(raw, u_lo=cfg.u_lo, u_hi=cfg.u_hi, dz=cfg.dz)
    p = np.asarray(p, dtype=float)
    scenario = Scenario(p=p, T=cfg.T, h=cfg.h)
    check_scenario(net, costs, params, scenario, batched=True)
    scenario = replace(scenario, initial=initial)   # after p, so a bad p is named
    B = p.shape[0]
    n = net.n
    g = net.gens
    L = cfg.steps

    theta = np.zeros((L + 1, B, n))
    omega_g = np.zeros((L + 1, B, len(g)))
    s = np.zeros((L + 1, B, n))
    t = params._tables
    count = np.empty((L, B, n), t.count_dtype)
    x = gauge_initial(net, scenario.x0)
    theta[0], omega_g[0], s[0] = x[0], x[1][:, g], x[2]
    cost_acc = np.zeros(B)
    # running per-bus max |omega_g| and its first step (strict >, as argmax)
    peak_abs = np.full((B, len(g)), -1.0)
    nadir_step = np.zeros((B, len(g)), dtype=np.intp)
    for l in range(L):
        xe = t.shift(x[2])
        count[l] = t.rank(xe)
        u = t.clamp(t.value(xe, t.off + count[l]))
        x = euler_step(net, costs, params, scenario, x, l,
                       derivatives(net, costs, params, x, p, u=u))
        theta[l + 1], omega_g[l + 1], s[l + 1] = x[0], x[1][:, g], x[2]
        cost_acc += costs.values(u).sum(axis=-1)
        abs_om = np.abs(omega_g[l + 1])
        np.copyto(nadir_step, l, where=abs_om > peak_abs)
        np.maximum(peak_abs, abs_om, out=peak_abs)

    peak = np.take_along_axis(omega_g[1:], nadir_step[None], axis=0)[0]
    nadir_sign = np.sign(peak)
    nadir_val = np.abs(peak).sum(axis=-1)             # (B,)
    loss = float(np.mean(nadir_val + cfg.rho * cost_acc / L))
    return loss, Tape(raw=raw, params=params, p=p, theta=theta,
                      omega_g=omega_g, s=s, loss=loss,
                      nadir_step=nadir_step, nadir_sign=nadir_sign, cfg=cfg,
                      count=count)


def backprop(tape: Tape, net: PowerNetwork, costs: CostModel) -> RawParams:
    """Exact reverse-mode gradient of the rollout loss w.r.t. raw params.

    Returns a RawParams-shaped bundle holding dJ/d(mu, chi).  Adjoint
    conventions: g_theta/g_w/g_s enter iteration l as the adjoints of the
    step-(l+1) states; the nadir term injects sign(omega) into g_w at each
    bus's argmax step; all controller-parameter contributions are gated by
    the same saturation/deadband masks as the forward evaluation.
    """
    cfg = tape.cfg
    params = tape.params
    raw = tape.raw
    p = tape.p
    B, n = p.shape
    g = net.gens
    L = cfg.steps
    h = cfg.h
    two_pi_f0 = 2.0 * np.pi * net.f0
    zeta = costs.zeta
    inv_m = 1.0 / net.m

    t = params._tables
    rows = n * (2 * params.d + 1)
    g_theta = np.zeros((B, n))
    g_w = np.zeros((B, len(g)))
    g_s = np.zeros((B, n))
    # per table row (bus, rank r): sums of a and a * x'
    hist = np.zeros((2, rows))
    inv_alpha = 1.0 / net.alpha
    gain_g = h * inv_m
    decay_g = 1.0 - h * net.alpha[g] * inv_m
    run_w = cfg.rho / L

    block = max(1, BLOCK_ELEMENTS // (B * n))
    for hi in range(L, 0, -block):
        lo = max(hi - block, 0)
        # everything that depends on the stored states alone, for the block
        s_blk = tape.s[lo:hi]
        xe = t.shift(s_blk)
        r = t.off + tape.count[lo:hi]
        g_unc = t.value(xe, r)
        u = t.clamp(g_unc)
        unsat = t.unsaturated(g_unc)
        run = run_w * costs.grad(u)
        curv = costs.curvature(u)
        slope = np.where(unsat, t.slope(s_blk, xe, r), 0.0)
        weights = line_weights(net, tape.theta[lo:hi])

        for l in range(hi - 1, lo - 1, -1):
            j = l - lo
            # nadir injection: omega_g[l+1] enters the loss max for buses
            # whose argmax is exactly this step
            g_w = g_w + np.where(tape.nadir_step == l, tape.nadir_sign, 0.0)

            # adjoint of the full omega vector used by the theta and s updates
            pg = g_theta - np.add.reduce(g_theta, axis=-1, keepdims=True) / n
            a_omega = two_pi_f0 * h * pg - two_pi_f0 * h * g_s

            # u and the flows enter the swing update of omega_g[l+1] (gens)
            # and the algebraic load frequencies (loads) with opposite signs
            a_base = a_omega * inv_alpha
            a_base[:, g] = gain_g * g_w

            # consensus term s[l+1] -= h * zeta (.) L_Q grad_C(u), then the
            # running cost term (every step l = 0..L-1)
            a_mc = -h * comm_laplacian_apply(net, zeta * g_s)
            a_u = a_base + curv[j] * a_mc
            a_u += run[j]

            # controller parameter gradients at input s[l], binned by table
            # row; a breakpoint moves the output only where its ReLU is
            # strictly active, which is where the row's rank passes its
            # merged position (plus side) or does not reach it (minus side)
            a_eff = a_u * unsat[j]
            rj = r[j].ravel()
            hist[0] += np.bincount(rj, a_eff.ravel(), rows)
            hist[1] += np.bincount(rj, (a_eff * xe[j]).ravel(), rows)

            # state adjoints for the previous step
            g_s = g_s + slope[j] * a_u
            g_w = decay_g * g_w + a_omega[:, g]
            g_theta = g_theta + flow_jacobian_apply(net, tape.theta[l], -a_base,
                                                    weights=weights[j])

    # the plus breakpoint at merged position q is active for ranks above q,
    # the minus one for ranks up to q: tail and prefix sums of the
    # histograms at each breakpoint's position; batch mean
    hist = hist.reshape(2, n, -1)
    s0p, s1p = np.take_along_axis(np.cumsum(hist[..., ::-1], axis=-1)[..., ::-1] / B,
                                  t.pos[None, :, params.d:] + 1, axis=-1)
    s0m, s1m = np.take_along_axis(np.cumsum(hist, axis=-1) / B,
                                  t.pos[None, :, :params.d], axis=-1)
    gk_p = s1p - params.b_plus * s0p
    gb_p = -params.k_plus * s0p
    gk_m = params.b_minus * s0m - s1m
    gb_m = params.k_minus * s0m

    # chain through the square/telescoping reparameterization
    g_mu_p = 2.0 * raw.mu_plus * (gk_p - np.concatenate(
        [gk_p[:, 1:], np.zeros((n, 1))], axis=1))
    g_mu_m = -2.0 * raw.mu_minus * (gk_m - np.concatenate(
        [gk_m[:, 1:], np.zeros((n, 1))], axis=1))
    # b_plus[j] = sum_{l<j} chi_l^2  =>  dJ/dchi_l = 2 chi_l * sum_{j>l} gb[j]
    tail_p = np.cumsum(gb_p[:, ::-1], axis=1)[:, ::-1]
    tail_m = np.cumsum(gb_m[:, ::-1], axis=1)[:, ::-1]
    g_chi_p = 2.0 * raw.chi_plus * tail_p[:, 1:]
    g_chi_m = -2.0 * raw.chi_minus * tail_m[:, 1:]
    return RawParams(mu_plus=g_mu_p, mu_minus=g_mu_m,
                     chi_plus=g_chi_p, chi_minus=g_chi_m)


def gradient_tie_risk(tape: Tape) -> bool:
    """Detect nondifferentiable-point proximity that would corrupt FD checks.

    Flags trajectories where some controller input sits within TIE_TOL of a
    breakpoint, deadband edge, or saturation crossing, or where a bus's
    nadir is nearly tied between two steps.  Inputs that are exactly zero are
    exempt from the origin-breakpoint check: every policy passes through the
    origin, so integral states stay pinned at exactly 0.0 until their bus is
    first driven, and a pinned zero on the structural (immovable) origin
    breakpoint cannot cross it under a parameter perturbation.
    """
    params = tape.params
    t = params._tables
    s = tape.s[:-1]                                  # inputs used in the loss
    xe = t.shift(s)
    r = t.off + tape.count
    g_unc = t.value(xe, r)
    moving = xe != 0.0
    if np.any(moving & (np.abs(xe) < TIE_TOL)):      # near the origin breakpoint
        return True
    # the rank splits the sorted breakpoints of both sides at x' (inf pads
    # where none), so the nearest one is next to the split, equal ones
    # included; a pinned zero only sees the breakpoints other than zero
    bp = t.breakpoints
    pad = np.pad(bp, ((0, 0), (1, 1)), constant_values=(-np.inf, np.inf)).ravel()
    at = r + np.arange(params.n)
    near = np.minimum(np.abs(xe - pad.take(at)), np.abs(xe - pad.take(at + 1)))
    gap = np.abs(np.where(bp == 0.0, np.inf, bp)).min(axis=-1, initial=np.inf)
    if np.any(np.where(moving, near, gap) < TIE_TOL):
        return True
    if np.any(params.dz > 0) and np.any(
            (np.abs(np.abs(s) - params.dz) < TIE_TOL) & (s != 0.0)):
        return True
    for bound in (params.u_hi, params.u_lo):         # saturation crossings
        if np.any(np.isfinite(bound) & (np.abs(g_unc - bound) < TIE_TOL) & moving):
            return True
    abs_om = np.abs(tape.omega_g[1:])
    if abs_om.shape[0] >= 2:
        top2 = np.sort(abs_om, axis=0)[-2:]
        if np.any(top2[1] - top2[0] < TIE_TOL):
            return True
    return False


@dataclass
class TrainResult:
    raw: RawParams
    params: NetParams
    loss_history: np.ndarray
    seed: int


def train(net: PowerNetwork, costs: CostModel, cfg: TrainConfig) -> TrainResult:
    """Seeded full training loop.

    Initializes raw parameters from the standard distribution, then per
    epoch: draw a fresh batch of uniform disturbances, roll out, backprop,
    and take a plain gradient step with geometrically decaying rate.  The
    monotonicity chains hold at every epoch by construction; a step that
    breaks them anyway (one past the floats) raises ValueError naming the
    epoch, the seed and the rate.
    """
    rng = np.random.default_rng(cfg.seed)
    raw = init_raw_params(net.n, cfg.d, rng)
    history = np.zeros(cfg.epochs)
    for e in range(cfg.epochs):
        p = rng.uniform(cfg.p_lo, cfg.p_hi, size=(cfg.batch_size, net.n))
        try:
            loss, tape = rollout_loss(net, costs, raw, p, cfg)
        except DynamicsError as exc:
            raise DynamicsError(
                f"{exc} (epoch {e}, seed {cfg.seed})") from None
        grads = backprop(tape, net, costs)
        del tape                # so the next rollout's tape replaces it
        lr = cfg.lr * cfg.lr_decay ** e
        # no overflow warnings: a step past the floats fails validate_params
        # below, which names the epoch
        with np.errstate(over="ignore", invalid="ignore"):
            raw = RawParams(
                mu_plus=raw.mu_plus - lr * grads.mu_plus,
                mu_minus=raw.mu_minus - lr * grads.mu_minus,
                chi_plus=raw.chi_plus - lr * grads.chi_plus,
                chi_minus=raw.chi_minus - lr * grads.chi_minus,
            )
            params = transform_params(raw, u_lo=cfg.u_lo, u_hi=cfg.u_hi, dz=cfg.dz)
        if not validate_params(params, warn=False):
            raise ValueError(f"training epoch {e} (seed {cfg.seed}, lr {cfg.lr!r}): "
                             f"the gradient step broke the policies' monotonicity chains")
        history[e] = loss
    return TrainResult(raw=raw, params=params, loss_history=history, seed=cfg.seed)
