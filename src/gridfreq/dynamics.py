"""Closed-loop time integration.

Two closed loops share one integrator:

- dai_general: swing dynamics on generator buses, algebraic (instantaneous)
  frequency on load buses, and per-bus integral states s driven by the local
  frequency plus a marginal-cost consensus term over the communication graph.
  The controllers map s_i to the injection u_i; the classic linear rule
  u_i = k_i s_i is dai_general with controller.scaled_identity_params(k).
- primary: the all-machine droop model used for the exponential-stability
  analysis; every bus carries inertia (load buses get a small synthetic one),
  the controller input is the local frequency deviation, and there is no
  integral state.

Angles are integrated in center-of-inertia gauge.  In the DAI mode the
angle/integrator clocks carry the 2*pi*f0 factor explicitly; the primary
mode follows the companion convention d(delta)/dt = omega - mean(omega).

`derivatives` is the one closed-loop right-hand side: the steppers here and
the training rollout, which calls it on a batch of states, all evaluate it.
The load frequencies always come from the current (delta, s) before any
state is advanced.  A rollout of one scenario replays its forward-Euler
simulation bit for bit; in a larger batch the BLAS incidence products of
the network module may sum a bus's edges in another order, which moves
results in the last bits.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .controller import NetParams, eval_u
from .costs import CostModel
from .network import (PowerNetwork, comm_laplacian_apply, power_flows,
                      project_gauge)

MODES = ("dai_general", "primary")
DEFAULT_LOAD_INERTIA = 0.1   # synthetic m for load buses in primary mode (s)
BLOWUP_LIMIT = 1e9           # all states are per-unit scale; beyond this the
                             # integration has lost the solution


class DynamicsError(RuntimeError):
    pass


@dataclass(frozen=True)
class SystemState:
    """Snapshot of (delta, omega, s); omega is full-length.

    In DAI mode the load-bus omega components are the algebraic values
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


def _load_omega(net: PowerNetwork, flows, u, p):
    """Load-bus power balance solved for omega: (-flow_i + p_i + u_i)/alpha_i."""
    i = net.loads
    return (-flows[..., i] + np.asarray(p)[..., i] + u[..., i]) / net.alpha[i]


def load_bus_frequencies(net: PowerNetwork, delta, u, p):
    """Algebraic load-bus frequencies: omega_i = (-flow_i + p_i + u_i)/alpha_i.

    No implicit solve is needed: the load-bus power balance couples omega_i
    only through the diagonal alpha, so given (delta, u) it is a division.
    """
    return _load_omega(net, power_flows(net, delta), u, p)


def derivatives(net: PowerNetwork, costs: CostModel, controllers: NetParams,
                state: SystemState, p, mode="dai_general",
                load_inertia=DEFAULT_LOAD_INERTIA):
    """The closed-loop right-hand side, on (..., n) state arrays.

    Returns (ddelta, domega, ds, omega, u, mc): the time derivatives and the
    algebraic quantities at the state.  In DAI mode the load-bus entries of
    state.omega are ignored; omega carries their power-balance values and
    domega is zero there.  In primary mode ds is zero.  mc is zero without
    a cost model.
    """
    p = np.asarray(p, dtype=float)
    flows = power_flows(net, state.delta)
    two_pi_f0 = 2.0 * np.pi * net.f0

    if mode == "primary":
        omega = state.omega
        u = eval_u(controllers, omega) if controllers is not None \
            else np.zeros(np.shape(omega))
        mc = costs.grad(u) if costs is not None else np.zeros_like(u)
        m = full_inertia(net, load_inertia)
        ddelta = omega - omega.mean(axis=-1, keepdims=True)
        domega = (p - net.alpha * omega - u - flows) / m
        return ddelta, domega, np.zeros_like(omega), omega, u, mc

    u = eval_u(controllers, state.s)
    omega = state.omega.copy()
    omega[..., net.loads] = _load_omega(net, flows, u, p)
    mc = costs.grad(u)
    ddelta = two_pi_f0 * (omega - omega.mean(axis=-1, keepdims=True))
    domega = np.zeros_like(omega)
    g = net.gens
    domega[..., g] = (-net.alpha[g] * omega[..., g] - flows[..., g]
                      + p[..., g] + u[..., g]) / net.m
    ds = -two_pi_f0 * omega - costs.zeta * comm_laplacian_apply(net, mc)
    return ddelta, domega, ds, omega, u, mc


def _check_sane(step_index, *arrays):
    """Raise on non-finite or absurdly large states (divergence, not drift)."""
    for a in arrays:
        if not np.all(np.isfinite(a)) or np.max(np.abs(a), initial=0.0) > BLOWUP_LIMIT:
            raise DynamicsError(f"integration blow-up at step {step_index}")


def _field(net, costs, controllers, scenario, state):
    return derivatives(net, costs, controllers, state, scenario.p,
                       scenario.mode, scenario.load_inertia)


def euler_step(net: PowerNetwork, costs: CostModel, controllers: NetParams,
               scenario: Scenario, state: SystemState, step_index=0,
               stage=None) -> SystemState:
    """One forward-Euler step of the scenario's mode.

    Load-bus frequencies are evaluated from the pre-step (delta, s) and used
    in both the angle and integrator updates; generator frequencies advance
    by the swing equation.  `stage` is derivatives() at `state` when the
    caller already has it.  Raises on any non-finite result.
    """
    h = scenario.h
    k = stage if stage is not None else _field(net, costs, controllers,
                                               scenario, state)
    delta = state.delta + h * k[0]
    omega = k[3] + h * k[1]
    s = state.s + h * k[2]
    _check_sane(step_index, delta, omega, s)
    return SystemState(project_gauge(delta), omega, s)


def rk4_step(net: PowerNetwork, costs: CostModel, controllers: NetParams,
             scenario: Scenario, state: SystemState, step_index=0,
             stage=None) -> SystemState:
    """Classical 4th-order step over the same derivative field; `stage` as
    in euler_step."""
    h = scenario.h

    def f(st):
        return _field(net, costs, controllers, scenario, st)

    def advance(k, fac):
        return SystemState(state.delta + fac * k[0], k1[3] + fac * k[1],
                           state.s + fac * k[2])

    k1 = stage if stage is not None else f(state)
    k2 = f(advance(k1, 0.5 * h))
    k3 = f(advance(k2, 0.5 * h))
    k4 = f(advance(k3, h))
    delta = state.delta + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    omega = k1[3] + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    s = state.s + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    _check_sane(step_index, delta, omega, s)
    return SystemState(project_gauge(delta), omega, s)


def simulate(scenario: Scenario, net: PowerNetwork, costs: CostModel = None,
             controllers: NetParams = None, stepper=euler_step) -> Trajectory:
    """Integrate the scenario and record every step.

    Row l of the trajectory holds time l*h and the state with all algebraic
    quantities (load omega, u, marginal costs) evaluated at that same step:
    the first stage of step l, which the stepper then reuses.
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
        stage = _field(net, costs, controllers, scenario, state)
        delta[l] = state.delta
        s[l] = state.s
        omega[l], u[l], mc[l] = stage[3:]
        if l < steps:
            state = stepper(net, costs, controllers, scenario, state,
                            step_index=l, stage=stage)
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
