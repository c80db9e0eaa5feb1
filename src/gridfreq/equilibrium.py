"""Optimal steady state of the controlled network.

With identical marginal costs as the optimality condition, the closed-loop
equilibrium is fully determined by the aggregate disturbance: a common
marginal-cost level gamma splits the burden -sum(p) across buses in inverse
proportion to their cost scalings, the network angles then solve a lossless
power flow for those injections, and each integral state is read off the
controller's inverse, in closed form from its tables.  The open-loop (or
droop-controlled) counterpart is a single scalar balance, piecewise linear
in the synchronous frequency deviation, solved in closed form from the
same tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import NetParams, eval_u, lipschitz_constant
from .costs import CostModel
from .network import (PowerNetwork, edge_angle_spread, flow_jacobian,
                      power_flows, to_center_of_inertia)

NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 30


class EquilibriumError(ValueError):
    pass


@dataclass(frozen=True)
class Equilibrium:
    """Closed-loop fixed point (gamma and s_star are None in primary mode)."""

    gamma: float
    u_star: np.ndarray
    delta_star: np.ndarray
    s_star: np.ndarray
    omega_star: float


def solve_gamma(costs: CostModel, p) -> float:
    """Common marginal-cost level balancing the total disturbance.

    Power balance with equal marginals forces the common inverse at gamma to
    equal -sum(p) / sum(1/zeta), inverted in closed form.
    """
    inv_zeta_sum = float(np.sum(1.0 / costs.zeta))
    return float(costs.common_grad(-float(np.sum(p)) / inv_zeta_sum))


def newton_power_flow(net: PowerNetwork, injections, guess=None) -> np.ndarray:
    """Angles delta with power_flows(delta) = injections, in mean-zero gauge.

    Damped Newton iteration; the flow Jacobian is singular along the all-ones
    direction, so the linear solve augments it with a scaled rank-one term
    that pins the mean (the residual is orthogonal to ones whenever the
    injections balance, so the added term does not bias the step).
    """
    injections = np.asarray(injections, dtype=float)
    n = net.n
    if abs(float(injections.sum())) > 1e-9:
        raise EquilibriumError(
            f"injections must balance: sum = {injections.sum():.3e}")
    delta = np.zeros(n) if guess is None else to_center_of_inertia(guess)
    res = power_flows(net, delta) - injections
    res_norm = float(np.linalg.norm(res))
    ones = np.ones((n, n)) / n
    for _ in range(NEWTON_MAX_ITER):
        if float(np.max(np.abs(res))) < NEWTON_TOL:
            if edge_angle_spread(net, delta) >= np.pi / 2:
                raise EquilibriumError("outside security region: an edge angle "
                                       "difference reached pi/2")
            return delta
        H = flow_jacobian(net, delta)
        pin = (np.trace(H) / n) * ones
        try:
            step = np.linalg.solve(H + pin, -res)
        except np.linalg.LinAlgError:
            raise EquilibriumError("power flow infeasible (singular Jacobian)")
        t = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            cand = to_center_of_inertia(delta + t * step)
            cand_res = power_flows(net, cand) - injections
            cand_norm = float(np.linalg.norm(cand_res))
            if cand_norm < res_norm:
                break
            t *= 0.5
        else:
            raise EquilibriumError("power flow infeasible (no descent step)")
        delta, res, res_norm = cand, cand_res, cand_norm
    raise EquilibriumError("power flow infeasible (Newton did not converge)")


def solve_s_star(params: NetParams, u_star, bus_ids=None) -> np.ndarray:
    """Integral states mapping through the controllers to the target u*.

    Each policy is monotone and piecewise linear, so s*_i is one linear
    solve on the segment where bus i's unclamped policy meets u*_i (the
    tables' inverse), moved out of the deadband; s*_i = 0 wherever u_i(0)
    is u*_i already (u*_i = 0, or a saturation bound that u_i(0) sits at).
    A target beyond the saturation bounds cannot be realized by any s, nor
    can one the policy does not reach: |s*_i| > 1e9, or u(s*) off u* by
    more than 1e-14 (max(1, |u*|) + L |s*|), L the steepest slope (a flat
    tail short of u*, or a policy that is not monotone).  The lowest-index
    failing bus is reported.
    """
    u_star = np.asarray(u_star, dtype=float)
    ids = bus_ids if bus_ids is not None else list(range(params.n))
    xe = np.where(eval_u(params, np.zeros(params.n)) == u_star, 0.0,
                  params._tables.inverse(u_star[None])[0])
    s_star = xe + np.sign(xe) * params.dz
    outside = (u_star > params.u_hi) | (u_star < params.u_lo)
    # u(s*) carries the rounding of s*, times the slope
    tol = 1e-14 * (np.maximum(1.0, np.abs(u_star))
                   + lipschitz_constant(params) * np.abs(s_star))
    failed = outside | ~(np.abs(s_star) <= 1e9) \
        | ~(np.abs(eval_u(params, s_star) - u_star) <= tol)
    if failed.any():
        i = np.flatnonzero(failed)[0]
        why = (f"not within [{params.u_lo[i]:.6g}, {params.u_hi[i]:.6g}]"
               if outside[i] else "unreachable")
        raise EquilibriumError(f"equilibrium outside controller range at bus "
                               f"{ids[i]}: u* = {u_star[i]:.6g} {why}")
    return s_star


def synchronous_frequency(net: PowerNetwork, p, params: NetParams = None) -> float:
    """Steady frequency deviation of the all-machine (primary/open-loop) model.

    The root of F(omega) = sum_i u_i(omega) + omega * sum(alpha) = sum(p);
    with no controllers this is the classic sum(p)/sum(alpha).  F is
    increasing and linear between its nodes: each bus's breakpoints and
    saturation crossings x' moved out of the deadband (x' + dz above zero,
    x' - dz below it), and both deadband edges.  One eval_u on all nodes,
    padded by one point beyond each end, gives F there; omega is the root
    of the line through the first node with F >= sum(p) and the one before
    it (the end segments extend to infinity), taken from the node nearer
    the root, since the far one loses digits to cancellation.
    """
    p = np.asarray(p, dtype=float)
    alpha_sum = float(net.alpha.sum())
    p_sum = float(p.sum())
    if params is None:
        return p_sum / alpha_sum
    t = params._tables
    xe = np.concatenate([t.breakpoints, t.crossings.T], axis=1)
    x = np.concatenate([xe + np.sign(xe) * params.dz[:, None],
                        np.stack([-params.dz, params.dz], axis=1)], axis=1)
    x = np.sort(x[np.isfinite(x)])       # a repeated node brackets no root
    x = np.concatenate([x[:1] - 1.0, x, x[-1:] + 1.0])
    F = eval_u(params, x[:, None]).sum(axis=1) + x * alpha_sum
    above = np.flatnonzero(F >= p_sum)
    j = int(np.clip(above[0] if above.size else len(x), 1, len(x) - 1))
    a = j if F[j] - p_sum < p_sum - F[j - 1] else j - 1
    return float(x[a] + (p_sum - F[a]) * (x[j] - x[j - 1]) / (F[j] - F[j - 1]))


def solve_equilibrium(net: PowerNetwork, costs: CostModel, params: NetParams,
                      p, mode="dai_general") -> Equilibrium:
    """Full fixed point of the chosen closed loop.

    DAI mode: zero frequency deviation, common marginal cost, network flow
    solve, controller inversion.  Primary mode: scalar synchronous frequency,
    droop injections at that frequency, then the flow solve.
    """
    p = np.asarray(p, dtype=float)
    if mode == "primary":
        omega = synchronous_frequency(net, p, params)
        u = eval_u(params, np.full(net.n, omega)) if params is not None \
            else np.zeros(net.n)
        inj = p - net.alpha * omega - u
        delta = newton_power_flow(net, inj)
        return Equilibrium(gamma=None, u_star=u, delta_star=delta,
                           s_star=None, omega_star=omega)
    gamma = solve_gamma(costs, p)
    u_star = costs.grad_inverse(gamma)
    delta_star = newton_power_flow(net, p + u_star)
    s_star = solve_s_star(params, u_star, bus_ids=list(net.ids))
    return Equilibrium(gamma=gamma, u_star=u_star, delta_star=delta_star,
                       s_star=s_star, omega_star=0.0)


def equilibrium_residuals(net: PowerNetwork, costs: CostModel,
                          params: NetParams, p, eq: Equilibrium) -> dict:
    """Numerical residuals of the fixed-point conditions (for reporting)."""
    p = np.asarray(p, dtype=float)
    out = {}
    if eq.gamma is not None:
        mc = costs.grad(eq.u_star)
        out["marginal_cost_spread"] = float(mc.max() - mc.min())
        out["power_balance"] = float(np.sum(p) + np.sum(eq.u_star))
        flow_res = power_flows(net, eq.delta_star) - (p + eq.u_star)
    else:
        flow_res = power_flows(net, eq.delta_star) \
            - (p - net.alpha * eq.omega_star - eq.u_star)
    out["flow_residual_max"] = float(np.max(np.abs(flow_res)))
    if eq.s_star is not None:
        out["controller_residual_max"] = float(
            np.max(np.abs(eval_u(params, eq.s_star) - eq.u_star)))
    out["edge_angle_spread"] = edge_angle_spread(net, eq.delta_star)
    return out
