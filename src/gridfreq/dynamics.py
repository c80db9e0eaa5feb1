"""Closed-loop time integration.

Three closed loops share one integrator:

- dai_general: swing dynamics on generator buses, algebraic (instantaneous)
  frequency on load buses, and per-bus integral states s driven by the local
  frequency plus a marginal-cost consensus term over the communication graph.
  The controllers map s_i to the injection u_i.
- dai_linear: the classic linear rule u_i = k_i s_i with the same consensus
  structure (a specialization of dai_general; kept as a separate code path
  and cross-checked against it in the tests).
- primary: the all-machine droop model used for the exponential-stability
  analysis; every bus carries inertia (load buses get a small synthetic one),
  the controller input is the local frequency deviation, and there is no
  integral state.

Angles are integrated in center-of-inertia gauge.  In the DAI modes the
angle/integrator clocks carry the 2*pi*f0 factor explicitly; the primary
mode follows the companion convention d(delta)/dt = omega - mean(omega).

The Euler recursion evaluates the algebraic load frequencies from the
current (delta, s) before any state is advanced; the same order is unrolled
by the training module, so simulated trajectories and training rollouts are
bit-identical for matching inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .controller import NetParams, eval_u
from .costs import CostModel
from .network import (PowerNetwork, comm_laplacian_apply, power_flows,
                      project_gauge)

MODES = ("dai_general", "dai_linear", "primary")
DEFAULT_LOAD_INERTIA = 0.1   # synthetic m for load buses in primary mode (s)
BLOWUP_LIMIT = 1e9           # all states are per-unit scale; beyond this the
                             # integration has lost the solution


class DynamicsError(RuntimeError):
    pass


@dataclass(frozen=True)
class SystemState:
    """Snapshot of (delta, omega, s); omega is full-length.

    In DAI modes the load-bus omega components are the algebraic values
    implied by (delta, s) — outputs, not integrated states.  In primary mode
    every omega component is a state and s is unused (kept zero).
    """

    delta: np.ndarray
    omega: np.ndarray
    s: np.ndarray

    @staticmethod
    def zeros(n):
        return SystemState(np.zeros(n), np.zeros(n), np.zeros(n))


@dataclass(frozen=True)
class Scenario:
    """Constant-disturbance experiment description."""

    p: np.ndarray
    T: float
    h: float
    mode: str = "dai_general"
    initial: SystemState = None
    gains: np.ndarray = None            # dai_linear only: u_i = gains[i] s_i
    load_inertia: float = DEFAULT_LOAD_INERTIA

    def __post_init__(self):
        if self.mode not in MODES:
            raise DynamicsError(f"unknown mode {self.mode!r}")
        if not (self.h > 0):
            raise DynamicsError("step h must be positive")
        if self.T < self.h:
            raise DynamicsError("horizon T must cover at least one step")
        if not np.all(np.isfinite(self.p)):
            raise DynamicsError("disturbance p must be finite")
        if self.mode == "dai_linear" and self.gains is None:
            raise DynamicsError("dai_linear mode needs per-bus gains")

    @property
    def steps(self):
        # floor with a small guard so T = L*h does not lose a step to roundoff
        return int(np.floor(self.T / self.h + 1e-9))


@dataclass
class Trajectory:
    """Dense record of a simulation: row l is time l*h, rows = steps + 1."""

    mode: str
    t: np.ndarray
    delta: np.ndarray
    omega: np.ndarray
    s: np.ndarray
    u: np.ndarray
    mc: np.ndarray
    W: np.ndarray = None     # optional energy-function column

    @property
    def n(self):
        return self.delta.shape[1]


def full_inertia(net: PowerNetwork, load_inertia=DEFAULT_LOAD_INERTIA):
    """Inertia vector over all buses for the primary (all-machine) mode."""
    m = np.full(net.n, float(load_inertia))
    m[net.gens] = net.m
    return m


def load_bus_frequencies(net: PowerNetwork, delta, u, p):
    """Algebraic load-bus frequencies: omega_i = (-flow_i + p_i + u_i)/alpha_i.

    No implicit solve is needed: the load-bus power balance couples omega_i
    only through the diagonal alpha, so given (delta, u) it is a division.
    """
    flows = power_flows(net, delta)
    i = net.loads
    return (-flows[..., i] + np.asarray(p)[..., i] + u[..., i]) / net.alpha[i]


def control_input(scenario: Scenario, controllers: NetParams, state: SystemState):
    """Per-bus injections for the scenario's mode at the given state."""
    if scenario.mode == "dai_linear":
        return scenario.gains * state.s
    if scenario.mode == "primary":
        if controllers is None:
            return np.zeros(len(state.omega))
        return eval_u(controllers, state.omega)
    return eval_u(controllers, state.s)


def derivatives(net: PowerNetwork, costs: CostModel, controllers: NetParams,
                state: SystemState, p, mode="dai_general", gains=None,
                load_inertia=DEFAULT_LOAD_INERTIA):
    """Time-derivative field (ddelta, domega, ds) for the chosen mode.

    In DAI modes the omega vector inside `state` is ignored on load buses
    (recomputed algebraically) and domega is zero there; ds is zero in
    primary mode.
    """
    p = np.asarray(p, dtype=float)
    n = net.n
    flows = power_flows(net, state.delta)
    two_pi_f0 = 2.0 * np.pi * net.f0

    if mode == "primary":
        u = eval_u(controllers, state.omega) if controllers is not None \
            else np.zeros(n)
        m = full_inertia(net, load_inertia)
        ddelta = state.omega - state.omega.mean()
        domega = (p - net.alpha * state.omega - u - flows) / m
        return ddelta, domega, np.zeros(n)

    if mode == "dai_linear":
        u = np.asarray(gains) * state.s
    else:
        u = eval_u(controllers, state.s)
    omega = state.omega.copy()
    omega[net.loads] = load_bus_frequencies(net, state.delta, u, p)
    mc = costs.grad(u)
    ddelta = two_pi_f0 * (omega - omega.mean())
    domega = np.zeros(n)
    g = net.gens
    domega[g] = (-net.alpha[g] * omega[g] - flows[g] + p[g] + u[g]) / net.m
    ds = -two_pi_f0 * omega - costs.zeta * comm_laplacian_apply(net, mc)
    return ddelta, domega, ds


def _check_sane(step_index, *arrays):
    """Raise on non-finite or absurdly large states (divergence, not drift)."""
    for a in arrays:
        if not np.all(np.isfinite(a)) or np.max(np.abs(a), initial=0.0) > BLOWUP_LIMIT:
            raise DynamicsError(f"integration blow-up at step {step_index}")


def _refresh_load_omega(net, scenario, controllers, state: SystemState):
    """Return state with load-bus omega set to its algebraic value."""
    if scenario.mode == "primary":
        return state
    u = control_input(scenario, controllers, state)
    omega = state.omega.copy()
    omega[net.loads] = load_bus_frequencies(net, state.delta, u, scenario.p)
    return replace(state, omega=omega)


def euler_step(net: PowerNetwork, costs: CostModel, controllers: NetParams,
               scenario: Scenario, state: SystemState, step_index=0) -> SystemState:
    """One forward-Euler step of the scenario's mode.

    Load-bus frequencies are evaluated from the pre-step (delta, s) and used
    in both the angle and integrator updates; generator frequencies advance
    by the swing equation.  Raises on any non-finite result.
    """
    h = scenario.h
    state = _refresh_load_omega(net, scenario, controllers, state)
    ddelta, domega, ds = derivatives(net, costs, controllers, state,
                                     scenario.p, scenario.mode, scenario.gains,
                                     scenario.load_inertia)
    delta = state.delta + h * ddelta
    omega = state.omega + h * domega
    s = state.s + h * ds
    _check_sane(step_index, delta, omega, s)
    return SystemState(project_gauge(delta), omega, s)


def rk4_step(net: PowerNetwork, costs: CostModel, controllers: NetParams,
             scenario: Scenario, state: SystemState, step_index=0) -> SystemState:
    """Classical 4th-order step over the same derivative field."""
    h = scenario.h

    def f(st):
        # derivatives recomputes the load-bus omega itself
        return derivatives(net, costs, controllers, st, scenario.p,
                           scenario.mode, scenario.gains, scenario.load_inertia)

    def advance(st, k, fac):
        return SystemState(st.delta + fac * k[0], st.omega + fac * k[1],
                           st.s + fac * k[2])

    k1 = f(state)
    k2 = f(advance(state, k1, 0.5 * h))
    k3 = f(advance(state, k2, 0.5 * h))
    k4 = f(advance(state, k3, h))
    delta = state.delta + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    omega = state.omega + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    s = state.s + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    _check_sane(step_index, delta, omega, s)
    return SystemState(project_gauge(delta), omega, s)


def simulate(scenario: Scenario, net: PowerNetwork, costs: CostModel = None,
             controllers: NetParams = None, stepper=euler_step) -> Trajectory:
    """Integrate the scenario and record every step.

    Row l of the trajectory holds time l*h and the state with all algebraic
    quantities (load omega, u, marginal costs) evaluated at that same step.
    Deterministic: identical inputs give bit-identical trajectories.
    """
    if scenario.mode != "primary" and costs is None:
        raise DynamicsError("DAI modes need a cost model")
    n = net.n
    steps = scenario.steps
    state = scenario.initial or SystemState.zeros(n)
    if len(state.delta) != n:
        raise DynamicsError("initial state size does not match network")

    t = np.arange(steps + 1) * scenario.h
    delta = np.empty((steps + 1, n))
    omega = np.empty((steps + 1, n))
    s = np.empty((steps + 1, n))
    u = np.empty((steps + 1, n))
    mc = np.empty((steps + 1, n))

    for l in range(steps + 1):
        state = _refresh_load_omega(net, scenario, controllers, state)
        ul = control_input(scenario, controllers, state)
        delta[l] = state.delta
        omega[l] = state.omega
        s[l] = state.s
        u[l] = ul
        mc[l] = costs.grad(ul) if costs is not None else 0.0
        if l < steps:
            state = stepper(net, costs, controllers, scenario, state,
                            step_index=l)
    return Trajectory(mode=scenario.mode, t=t, delta=delta, omega=omega,
                      s=s, u=u, mc=mc)


def write_csv(traj: Trajectory, path):
    """Trajectory CSV: t, omega_1..n, s_1..n, u_1..n, mc_1..n, W."""
    n = traj.n
    header = (["t"]
              + [f"omega_{i}" for i in range(1, n + 1)]
              + [f"s_{i}" for i in range(1, n + 1)]
              + [f"u_{i}" for i in range(1, n + 1)]
              + [f"mc_{i}" for i in range(1, n + 1)]
              + ["W"])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for l in range(len(traj.t)):
            row = ([repr(float(traj.t[l]))]
                   + [repr(float(x)) for x in traj.omega[l]]
                   + [repr(float(x)) for x in traj.s[l]]
                   + [repr(float(x)) for x in traj.u[l]]
                   + [repr(float(x)) for x in traj.mc[l]])
            row.append("" if traj.W is None else repr(float(traj.W[l])))
            w.writerow(row)


def read_csv(path):
    """Inverse of write_csv; returns a Trajectory without angles (not stored)."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    n = (len(header) - 2) // 4
    arr = np.array([[float(x) if x != "" else np.nan for x in row]
                    for row in data])
    t = arr[:, 0]
    omega = arr[:, 1:1 + n]
    s = arr[:, 1 + n:1 + 2 * n]
    u = arr[:, 1 + 2 * n:1 + 3 * n]
    mc = arr[:, 1 + 3 * n:1 + 4 * n]
    W = arr[:, -1]
    if np.all(np.isnan(W)):
        W = None
    return Trajectory(mode="unknown", t=t, delta=np.full((len(t), n), np.nan),
                      omega=omega, s=s, u=u, mc=mc, W=W)
