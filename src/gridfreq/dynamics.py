"""Closed-loop time integration.

Two closed loops share one integrator:

- dai_general: swing dynamics on generator buses, algebraic (instantaneous)
  frequency on load buses, and per-bus integral states s driven by the local
  frequency plus a marginal-cost consensus term over the communication graph.
  The controllers map s_i to the injection u_i; the classic linear rule
  u_i = k_i s_i is dai_general with controller.scaled_identity_params(k).
- primary: the all-machine droop model used for the exponential-stability
  analysis; every bus carries the network's inertia (load buses the
  synthetic network.DEFAULT_LOAD_INERTIA, re-exported here), the controller
  input is the local frequency deviation, and there is no integral state.

Angles are integrated in center-of-inertia gauge.  In the DAI mode the
angle/integrator clocks carry the 2*pi*f0 factor explicitly; the primary
mode follows the companion convention d(delta)/dt = omega - mean(omega).

`derivatives` is the one closed-loop right-hand side and `_advance` the one
state update: the steppers here evaluate the one and end in the other, the
training rollout takes `euler_step` on a batch of states, and
`max_stable_step` differentiates the field through its linear part `_assemble`.
States travel as one (3, ..., n) array of (delta, omega, s), so a stage
advance or the RK4 combination is a single array operation; the rows lead
so that each is a C-contiguous (..., n) block at any batch size, which the
incidence products and table ranks read faster than a strided view.
The load frequencies always come from the current (delta, s) before any
state is advanced.  A rollout of one scenario replays its forward-Euler
simulation bit for bit; in a larger batch the BLAS incidence products of
the network module may sum a bus's edges in another order, which moves
results in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .controller import NetParams, eval_u
from .costs import CostModel
from .network import (DEFAULT_LOAD_INERTIA, NetworkError, PowerNetwork,  # noqa: F401
                      comm_laplacian_apply, flow_jacobian_apply, power_flows, project_gauge)

MODES = ("dai_general", "primary")
BLOWUP_LIMIT = 1e9           # all states are per-unit scale; beyond this the
                             # integration has lost the solution
CSV_BLOCK_VALUES = 1 << 12   # values formatted per write_csv write (whole rows,
                             # at least one): its floats and strings stay near
                             # 0.4 MB at any row count or network size


class DynamicsError(RuntimeError):
    pass


@dataclass(frozen=True)
class Scenario:
    """Constant-disturbance experiment description.  `initial` is the
    (3,) + p.shape state of (delta, omega, s) rows at step 0, or None for
    the origin: load-bus omega entries are ignored in DAI mode (derivatives
    gives their algebraic values), and s is unused in primary mode."""

    p: np.ndarray
    T: float
    h: float
    mode: str = "dai_general"
    initial: np.ndarray = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise DynamicsError(f"unknown mode {self.mode!r}")
        if not (np.isfinite(self.h) and self.h > 0):
            raise DynamicsError(f"step h must be positive and finite, got {self.h!r}")
        if not (np.isfinite(self.T) and self.T >= self.h):
            raise DynamicsError(f"horizon T must cover at least one step and "
                                f"be finite, got {self.T!r}")
        if not np.all(np.isfinite(self.p)):
            raise DynamicsError("disturbance p must be finite")
        want = (3,) + np.shape(self.p)
        if self.initial is not None and np.shape(self.initial) != want:
            raise DynamicsError(f"initial state has shape {np.shape(self.initial)}, "
                                f"expected {want}")

    @property
    def x0(self):
        """A fresh float copy of the initial state (zeros when None), which
        the caller may write into, as gauge_initial does."""
        if self.initial is None:
            return np.zeros((3,) + np.shape(self.p))
        return np.array(self.initial, dtype=float)

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


def derivatives(net: PowerNetwork, costs: CostModel, controllers: NetParams,
                x, p, mode="dai_general", u=None):
    """The closed-loop right-hand side on stacked (3, ..., n) states.

    x holds (delta, omega, s) along axis 0.  Returns (k, omega, u, mc): k is
    the time derivative in the layout of x, and omega, u, mc are the
    algebraic quantities at the state.  In DAI mode the load-bus entries of
    x's omega are ignored; omega carries their power-balance values
    (-flow_i + p_i + u_i)/alpha_i, and k's omega row is zero there.  In
    primary mode k's s row is zero.  u is zero without controllers and mc
    without a cost model.  `u` is the policies' output at x's controller
    input (the integral row in DAI mode) when the caller already has it.
    """
    if u is None:
        u = (eval_u(controllers, x[1 if mode == "primary" else 2])
             if controllers is not None else np.zeros(x.shape[1:]))
    mc = costs.grad(u) if costs is not None else np.zeros_like(u)
    return (*_assemble(net, costs, x, power_flows(net, x[0]), p, u, mc, mode), u, mc)


def _assemble(net, costs, x, flows, p, u, mc, mode):
    """(k, omega) of `derivatives` from the state and its nonlinear maps:
    the flows, u and mc.  Linear in (x, flows, p, u, mc), so on tangents of
    them it gives the field's directional derivative."""
    omega = x[1]
    k = np.zeros(x.shape)
    if mode == "primary":
        np.subtract(omega, np.add.reduce(omega, axis=-1, keepdims=True) / net.n,
                    out=k[0])
        np.divide(p - net.alpha * omega - u - flows, net.inertia, out=k[1])
        return k, omega

    two_pi_f0 = 2.0 * np.pi * net.f0
    omega = np.where(net._is_gen, omega, (-flows + p + u) / net.alpha)
    np.multiply(two_pi_f0,
                omega - np.add.reduce(omega, axis=-1, keepdims=True) / net.n,
                out=k[0])
    np.divide(-net.alpha * omega - flows + p + u, net.inertia,
              out=k[1], where=net._is_gen)
    np.subtract(-two_pi_f0 * omega, costs.zeta * comm_laplacian_apply(net, mc),
                out=k[2])
    return k, omega


def _locate(net, x):
    """The place "<row> at bus <id>[ of scenario b]" of the state x's first
    non-finite entry, or of its largest |x| when every entry is finite."""
    bad = ~np.isfinite(x)
    at = np.argmax(bad) if bad.any() else np.argmax(np.abs(x))
    row, *batch, bus = np.unravel_index(at, x.shape)
    where = f" of scenario {','.join(map(str, batch))}" if batch else ""
    return f"{('delta', 'omega', 's')[row]} at bus {net.ids[bus]}{where}"


def _advance(net, step_index, x, omega, dx):
    """x + dx, written over dx, with the omega row advanced from the
    algebraic omega of the step's first stage; raises on non-finite or
    absurdly large states (divergence, not drift), then re-projects the
    angle gauge."""
    omega = omega + dx[1]
    out = np.add(x, dx, out=dx)
    out[1] = omega
    if not -BLOWUP_LIMIT <= out.min() <= out.max() <= BLOWUP_LIMIT:
        raise DynamicsError(f"integration blow-up at step {step_index} in "
                            f"{_locate(net, out)}")
    delta = out[0]
    if (fixed := project_gauge(delta)) is not delta:
        delta[...] = fixed
    return out


def gauge_initial(net, x):
    """The (3, ..., n) initial state x with its angles put in the
    center-of-inertia gauge in place before step 0, by `_advance`'s rule.
    A non-finite entry, or a drift past GAUGE_ERROR, raises DynamicsError
    naming the initial state."""
    if not np.isfinite(x).all():
        raise DynamicsError(f"initial state: non-finite {_locate(net, x)}")
    try:
        x[0] = project_gauge(x[0])
    except NetworkError as exc:
        raise DynamicsError(f"initial state: {exc}") from None
    return x


def euler_step(net: PowerNetwork, costs: CostModel, controllers: NetParams,
               scenario: Scenario, x, step_index=0, stage=None):
    """One forward-Euler step of the scenario's mode on a (3, ..., n) state.

    Load-bus frequencies are evaluated from the pre-step (delta, s) and used
    in both the angle and integrator updates; generator frequencies advance
    by the swing equation.  `stage` is derivatives() at `x` when the caller
    already has it.  Raises DynamicsError naming step_index, and the state
    row, bus and scenario, once the state is non-finite or beyond
    BLOWUP_LIMIT.
    """
    k, omega = (stage or derivatives(net, costs, controllers, x, scenario.p,
                                     scenario.mode))[:2]
    return _advance(net, step_index, x, omega, scenario.h * k)


def rk4_step(net: PowerNetwork, costs: CostModel, controllers: NetParams,
             scenario: Scenario, x, step_index=0, stage=None):
    """Classical 4th-order step over the same derivative field; `stage` as
    in euler_step."""
    h, p, mode = scenario.h, scenario.p, scenario.mode
    k1, omega = (stage or derivatives(net, costs, controllers, x, p, mode))[:2]
    k2 = derivatives(net, costs, controllers, x + (0.5 * h) * k1, p, mode)[0]
    k3 = derivatives(net, costs, controllers, x + (0.5 * h) * k2, p, mode)[0]
    k4 = derivatives(net, costs, controllers, x + h * k3, p, mode)[0]
    return _advance(net, step_index, x, omega, (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


STEPPERS = {"euler": euler_step, "rk4": rk4_step}


def check_scenario(net: PowerNetwork, costs: CostModel, controllers: NetParams,
                   scenario: Scenario, batched=False):
    """Raise DynamicsError unless the scenario runs on `net`: a cost model
    and controllers in DAI modes (primary mode runs uncontrolled without
    them), and p one (n,) disturbance ((B, n) when `batched`)."""
    if scenario.mode != "primary" and costs is None:
        raise DynamicsError("DAI modes need a cost model")
    if scenario.mode != "primary" and controllers is None:
        raise DynamicsError("DAI modes need controllers")
    shape, n = np.shape(scenario.p), net.n
    if len(shape) != 1 + batched or shape[-1] != n:
        want = f"(B, {n})" if batched else f"({n},)"
        raise DynamicsError(f"disturbance p has shape {shape}, expected {want} "
                            f"for the {n}-bus network")


# stability functions R(z) of the steppers: a step multiplies a mode of
# the linearized loop with eigenvalue lam by R(h * lam)
_STABILITY = {"euler": lambda z: 1 + z,
              "rk4": lambda z: 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))}


def _jacobians(net, costs, controllers, scenario):
    """The field's one-sided Jacobians at the scenario's initial state (gauged
    and checked as simulate's is), with the policies' right- and left-limit
    slopes: `_assemble` on the 3n unit tangents, with p' = 0, u' the slope
    masked where saturated (as in training.backprop) and mc' = C''(u) u'."""
    x0 = gauge_initial(net, scenario.x0)
    row = 1 if scenario.mode == "primary" else 2      # the controller input
    x = np.stack([x0[row], np.nextafter(x0[row], -np.inf)])
    slopes, curv = np.zeros(x.shape), 0.0
    if controllers is not None:
        t = controllers._tables
        xe = t.shift(x)
        r = t.index(xe)
        g = t.value(xe, r)
        slopes = np.where(t.unsaturated(g), t.slope(x, xe, r), 0.0)
        curv = costs.curvature(t.clamp(g[0])) if costs is not None else 0.0
    E = np.eye(x0.size).reshape(-1, 3, net.n).swapaxes(0, 1)    # (3, 3n, n)
    flows = flow_jacobian_apply(net, x0[0], E[0])
    for du in slopes[:, None] * E[row]:
        k = _assemble(net, costs, E, flows, 0.0, du, curv * du, scenario.mode)[0]
        yield k.transpose(0, 2, 1).reshape(x0.size, x0.size)


def max_stable_step(net: PowerNetwork, costs: CostModel, controllers: NetParams,
                    scenario: Scenario, method="rk4"):
    """Largest step h at which `method` ("euler" or "rk4") is stable on the
    closed loop linearized at the scenario's initial state: |R(h lam)| <= 1
    for every eigenvalue lam with a negative real part of either one-sided
    Jacobian.  Eigenvalues on the imaginary axis or right of it (the angle
    gauge, the algebraic load frequencies) are left out: no step size damps
    them.  Returns inf when no eigenvalue limits h.
    """
    check_scenario(net, costs, controllers, scenario)
    lam = np.linalg.eigvals([*_jacobians(net, costs, controllers, scenario)]).ravel()
    lam = lam[lam.real < -1e-9 * np.abs(lam).max(initial=0.0)]
    if lam.size == 0:
        return np.inf
    # walk out along each eigenvalue's ray to the first exit from the
    # stability region; both regions lie inside |z| < 4
    rho = np.linspace(0.0, 4.0, 4001)[1:]
    inside = np.abs(_STABILITY[method](rho[:, None] * (lam / np.abs(lam)))) <= 1.0
    first_out = np.argmin(inside, axis=0)
    return float(np.min(np.where(first_out > 0, rho[first_out - 1], 0.0) / np.abs(lam)))


def simulate(scenario: Scenario, net: PowerNetwork, costs: CostModel = None,
             controllers: NetParams = None, stepper=euler_step) -> Trajectory:
    """Integrate the scenario and record every step.

    Row l of the trajectory holds time l*h and the state with all algebraic
    quantities (load omega, u, marginal costs) evaluated at that same step:
    the first stage of step l, which the stepper then reuses.
    Deterministic: identical inputs give bit-identical trajectories.
    """
    check_scenario(net, costs, controllers, scenario)
    steps = scenario.steps
    x = gauge_initial(net, scenario.x0)

    t = np.arange(steps + 1) * scenario.h
    delta, omega, s, u, mc = np.empty((5, steps + 1, net.n))
    for l in range(steps + 1):
        stage = derivatives(net, costs, controllers, x, scenario.p, scenario.mode)
        delta[l], s[l] = x[0], x[2]
        omega[l], u[l], mc[l] = stage[1:]
        if l < steps:
            x = stepper(net, costs, controllers, scenario, x,
                        step_index=l, stage=stage)
    return Trajectory(mode=scenario.mode, t=t, delta=delta, omega=omega,
                      s=s, u=u, mc=mc)


def csv_header(n):
    """Column names of the trajectory CSV for an n-bus network."""
    return (["t"] + [f"{name}_{i}" for name in ("omega", "s", "u", "mc")
                     for i in range(1, n + 1)] + ["W"])


def write_csv(traj: Trajectory, path):
    """Trajectory CSV: t, omega_1..n, s_1..n, u_1..n, mc_1..n, W (empty when
    not computed), every value as repr(float), CRLF line ends."""
    end = ",\r\n" if traj.W is None else "\r\n"
    cols = [traj.t[:, None], traj.omega, traj.s, traj.u, traj.mc]
    if traj.W is not None:
        cols.append(traj.W[:, None])
    header = csv_header(traj.n)
    block = max(1, CSV_BLOCK_VALUES // len(header))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(traj.t), block):
            rows = np.hstack([c[lo:lo + block] for c in cols]).tolist()
            fh.write("".join([",".join(map(repr, row)) + end for row in rows]))


def _checked_lines(fh, path, width):
    """The data lines of an open trajectory CSV as they stream past, each
    blank or holding `width` fields; loadtxt with usecols reads a ragged
    row without a word, so a row cut short or grown raises ValueError
    naming the file and line."""
    for number, line in enumerate(fh, start=2):
        if line.count(",") != width - 1 and line.strip():
            raise ValueError(f"{path}: line {number} has {line.count(',') + 1} "
                             f"fields, expected {width}")
        yield line


def _load_csv(path, keep=None):
    """The column names and rows of a trajectory CSV: the header checked
    against csv_header, then one loadtxt over t and the columns whose names
    pass `keep` (every column when None), with every row's field count
    checked against the header; an empty W cell reads as nan."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        pairs = list(zip_longest(header, csv_header((len(header) - 2) // 4), fillvalue=""))
        if (bad := next((i for i, (a, b) in enumerate(pairs) if a != b), None)) is not None:
            raise ValueError(f"{path}: header column {bad + 1} is {pairs[bad][0]!r}, "
                             f"expected {pairs[bad][1]!r}")
        cols = None if keep is None else [j for j, name in enumerate(header)
                                          if j == 0 or keep(name)]
        rows = np.loadtxt(_checked_lines(fh, path, len(header)), delimiter=",",
                          ndmin=2, usecols=cols,
                          converters={len(header) - 1: lambda x: float(x or "nan")})
    return header if cols is None else [header[j] for j in cols], rows


def read_csv(path):
    """Inverse of write_csv; returns a Trajectory without angles (not stored)."""
    arr = _load_csv(path)[1]
    omega, s, u, mc = np.split(arr[:, 1:-1], 4, axis=1)
    W = None if np.all(np.isnan(arr[:, -1])) else arr[:, -1]
    return Trajectory(mode="unknown", t=arr[:, 0], delta=np.full(omega.shape, np.nan),
                      omega=omega, s=s, u=u, mc=mc, W=W)


def read_csv_columns(path, keep):
    """t and the trajectory CSV's columns whose names pass `keep`, as
    (t, {name: values}) in file order; only those columns are parsed."""
    names, rows = _load_csv(path, keep)
    return rows[:, 0], dict(zip(names[1:], rows[:, 1:].T))
