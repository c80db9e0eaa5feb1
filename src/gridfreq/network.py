"""Lossless power-network model: buses, lines, communication graph.

Everything downstream (dynamics, equilibrium, certification, training) works
on the immutable :class:`PowerNetwork` built here.  Angles are handled in
center-of-inertia gauge (sum zero); per-unit throughout, with the nominal
frequency f0 stored in Hz and the 2*pi*f0 factor applied explicitly in the
dynamics module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Gauge handling: drift below CORRECT is left alone, up to ERROR it is
# silently re-projected, above ERROR the caller gets an exception.
GAUGE_CORRECT = 1e-9
GAUGE_ERROR = 1e-3
DEFAULT_LOAD_INERTIA = 0.1   # synthetic inertia of load buses (s), primary mode


class NetworkError(ValueError):
    """Raised for malformed or physically invalid network files."""


@dataclass(frozen=True)
class PowerNetwork:
    """Immutable lossless network.

    Arrays are aligned to buses sorted by external id.  `m` is defined on
    generator buses only (length = len(gens)); `alpha`, `v` and `inertia`
    cover all buses, `inertia` being m on generator buses and
    DEFAULT_LOAD_INERTIA (the primary mode's synthetic load inertia) on load
    buses.  Lines and comm edges are stored as index pairs with
    weights, plus a cached signed edge-by-bus incidence matrix per edge set
    (+1 at i, -1 at j) and a C-contiguous copy of its transpose (matmul is
    slower on a transposed view): the transpose takes every edge's x_i - x_j
    in one product (exact for finite x, as a row has two nonzero +-1 terms;
    inf gives NaN, so angle checks take differences by index), and the
    matrix scatters edge quantities onto buses in another.
    """

    ids: tuple              # external bus ids, sorted ascending
    gens: np.ndarray        # indices (0-based) of generator buses
    loads: np.ndarray       # indices of algebraic (load) buses
    m: np.ndarray           # inertia 2H (s), per generator bus
    alpha: np.ndarray       # frequency sensitivity (pu), per bus
    v: np.ndarray           # voltage magnitude (pu), per bus
    line_i: np.ndarray      # line endpoints (0-based), i < j
    line_j: np.ndarray
    line_b: np.ndarray      # susceptance per line (pu, > 0)
    comm_i: np.ndarray      # communication edges, i < j
    comm_j: np.ndarray
    comm_q: np.ndarray      # edge weights Q (>= 0)
    f0: float               # nominal frequency (Hz)
    s_base: float = 100.0   # MVA base, bookkeeping only
    # derived in __post_init__, so that dataclasses.replace recomputes them
    line_w: np.ndarray = field(init=False, repr=False)   # v_i v_j B_ij per line
    inertia: np.ndarray = field(init=False, repr=False)  # per bus
    _is_gen: np.ndarray = field(init=False, repr=False)  # bool, per bus
    _line_inc: np.ndarray = field(init=False, repr=False)    # (lines, n)
    _comm_inc: np.ndarray = field(init=False, repr=False)    # (comm edges, n)
    _line_inc_t: np.ndarray = field(init=False, repr=False)  # (n, lines)
    _comm_inc_t: np.ndarray = field(init=False, repr=False)  # (n, comm edges)

    def __post_init__(self):
        n = len(self.ids)
        inertia, is_gen = np.full(n, DEFAULT_LOAD_INERTIA), np.zeros(n, dtype=bool)
        inertia[self.gens], is_gen[self.gens] = self.m, True
        eye = np.eye(n)
        line_inc = eye[self.line_i] - eye[self.line_j]
        comm_inc = eye[self.comm_i] - eye[self.comm_j]
        for name, value in (
                ("line_w", self.v[self.line_i] * self.v[self.line_j] * self.line_b),
                ("inertia", inertia), ("_is_gen", is_gen),
                ("_line_inc", line_inc), ("_line_inc_t", np.ascontiguousarray(line_inc.T)),
                ("_comm_inc", comm_inc), ("_comm_inc_t", np.ascontiguousarray(comm_inc.T))):
            object.__setattr__(self, name, value)

    @property
    def n(self):
        return len(self.ids)

    @property
    def n_gen(self):
        return len(self.gens)

    def index_of(self, bus_id):
        try:
            return self.ids.index(bus_id)
        except ValueError:
            raise NetworkError(f"unknown bus id {bus_id!r}") from None


def _unreachable(n, ei, ej):
    """Lowest-index bus that an undirected edge list does not connect to bus
    0 (breadth-first search), or None when the graph is connected."""
    adj = [[] for _ in range(n)]
    for a, b in zip(ei, ej):
        adj[a].append(b)
        adj[b].append(a)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        k = stack.pop()
        for nb in adj[k]:
            if not seen[nb]:
                seen[nb] = True
                stack.append(nb)
    return None if seen.all() else int(np.argmin(seen))


def _collect_edges(records, index, what, weight_key, allow_zero=False):
    """Validate an edge section into (i, j, w) arrays keyed by unordered pair."""
    seen = {}
    for rec in records:
        try:
            ends = rec["i"], rec["j"]
            w = float(rec[weight_key])
        except KeyError as exc:
            raise NetworkError(f"{what} entry {rec!r}: missing field {exc}") from None
        for end, bus in zip("ij", ends):
            if bus not in index:
                raise NetworkError(f"{what} entry {rec!r}: unknown bus id "
                                   f"{bus!r} in field {end!r}")
        a, b = index[ends[0]], index[ends[1]]
        if a == b:
            raise NetworkError(f"{what} entry connects bus {rec['i']} to itself")
        key = (min(a, b), max(a, b))
        if key in seen and seen[key] != w:
            raise NetworkError(
                f"asymmetric {what} weight on pair ({rec['i']}, {rec['j']})")
        if w < 0:
            raise NetworkError(f"negative susceptance on {what} ({rec['i']}, {rec['j']})"
                               if what == "line" else
                               f"negative weight on {what} ({rec['i']}, {rec['j']})")
        if w == 0 and not allow_zero:
            raise NetworkError(f"zero-weight {what} ({rec['i']}, {rec['j']})")
        seen[key] = w
    if not seen:
        raise NetworkError(f"network has no {what} entries")
    keys = sorted(seen)
    ei = np.array([k[0] for k in keys], dtype=np.intp)
    ej = np.array([k[1] for k in keys], dtype=np.intp)
    w = np.array([seen[k] for k in keys])
    return ei, ej, w


def network_from_dict(doc) -> PowerNetwork:
    """Build and validate a PowerNetwork from a parsed network document."""
    try:
        buses = doc["buses"]
        lines = doc["lines"]
    except (KeyError, TypeError):
        raise NetworkError("network document needs 'buses' and 'lines' sections")
    base = doc.get("base", {})
    f0 = float(base.get("f0", 50.0))
    s_base = float(base.get("S0", 100.0))
    if f0 <= 0:
        raise NetworkError("nominal frequency f0 must be positive")

    ids = []
    kinds = {}
    m_by_id = {}
    alpha_by_id = {}
    v_by_id = {}
    for rec in buses:
        try:
            bid = rec["id"]
            kind = rec["kind"]
        except KeyError as exc:
            raise NetworkError(f"bus entry {rec!r}: missing field {exc}") from None
        if bid in kinds:
            raise NetworkError(f"duplicate bus id {bid}")
        if kind not in ("gen", "load"):
            raise NetworkError(f"bus {bid}: kind must be 'gen' or 'load', got {kind!r}")
        alpha = float(rec.get("alpha", 0.0))
        vmag = float(rec.get("v", 1.0))
        if alpha <= 0:
            raise NetworkError(f"bus {bid}: alpha must be positive")
        if vmag <= 0:
            raise NetworkError(f"bus {bid}: voltage must be positive")
        if kind == "gen":
            if "m" not in rec:
                raise NetworkError(f"generator bus {bid}: missing inertia m")
            m = float(rec["m"])
            if m <= 0:
                raise NetworkError(f"bus {bid}: inertia m must be positive")
            m_by_id[bid] = m
        elif "m" in rec:
            raise NetworkError(f"load bus {bid}: inertia m not allowed "
                               "(load buses are algebraic)")
        ids.append(bid)
        kinds[bid] = kind
        alpha_by_id[bid] = alpha
        v_by_id[bid] = vmag

    ids = tuple(sorted(ids))
    index = {bid: k for k, bid in enumerate(ids)}
    gens = np.array([index[b] for b in ids if kinds[b] == "gen"], dtype=np.intp)
    loads = np.array([index[b] for b in ids if kinds[b] == "load"], dtype=np.intp)
    if len(gens) == 0:
        raise NetworkError("network needs at least one generator bus")

    li, lj, lb = _collect_edges(lines, index, "line", "B")
    lost = _unreachable(len(ids), li, lj)
    if lost is not None:
        raise NetworkError(f"physical graph is disconnected: bus {ids[lost]} "
                           f"cannot be reached from bus {ids[0]}")

    if doc.get("comm"):
        ci, cj, cq = _collect_edges(doc["comm"], index, "comm", "Q", allow_zero=True)
    else:
        # default communication graph: the physical graph with unit weights
        ci, cj, cq = li.copy(), lj.copy(), np.ones_like(lb)
    lost = _unreachable(len(ids), ci[cq > 0], cj[cq > 0])
    if lost is not None:
        raise NetworkError(f"communication graph is disconnected: bus "
                           f"{ids[lost]} cannot be reached from bus {ids[0]}")

    return PowerNetwork(
        ids=ids,
        gens=gens,
        loads=loads,
        m=np.array([m_by_id[ids[g]] for g in gens]),
        alpha=np.array([alpha_by_id[b] for b in ids]),
        v=np.array([v_by_id[b] for b in ids]),
        line_i=li, line_j=lj, line_b=lb,
        comm_i=ci, comm_j=cj, comm_q=cq,
        f0=f0, s_base=s_base,
    )


def load_network(path) -> PowerNetwork:
    """Load a network file (JSON; see README for the schema)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NetworkError(f"{path}: parse error at line {exc.lineno}: {exc.msg}")
    return network_from_dict(doc)


def to_center_of_inertia(theta):
    """Re-express angles relative to their mean (gauge sum(delta) = 0)."""
    theta = np.asarray(theta, dtype=float)
    return theta - theta.mean(axis=-1, keepdims=True)


def project_gauge(delta):
    """Enforce the center-of-inertia gauge, correcting small drift.

    Drift below GAUGE_CORRECT passes through untouched; up to GAUGE_ERROR it
    is re-projected (Euler integration accumulates roundoff); beyond that the
    state is considered corrupted.
    """
    delta = np.asarray(delta, dtype=float)
    worst = float(np.abs(np.add.reduce(delta, axis=-1)).max()) / delta.shape[-1]
    if worst > GAUGE_ERROR:
        raise NetworkError(f"angle gauge drift {worst:.3e} exceeds {GAUGE_ERROR}")
    if worst > GAUGE_CORRECT:
        return to_center_of_inertia(delta)
    return delta


def angle_differences(net: PowerNetwork, delta):
    """Per-line angle differences delta_i - delta_j (batch dims allowed)."""
    delta = np.asarray(delta, dtype=float)
    return delta[..., net.line_i] - delta[..., net.line_j]


def power_flows(net: PowerNetwork, delta):
    """Net power injected into the grid at each bus by line flows.

    Component i is sum_j v_i v_j B_ij sin(delta_i - delta_j); the vector sums
    to zero (every line's flow leaves one end and enters the other).  Gauge
    invariant: adding a constant to all angles changes nothing.
    """
    return (net.line_w * np.sin(delta @ net._line_inc_t)) @ net._line_inc


def potential_energy(net: PowerNetwork, delta):
    """Scalar potential whose gradient is power_flows.

    Equals -1/2 sum_i sum_j v_i v_j B_ij cos(delta_i - delta_j); the double
    sum counts every line twice, so this reduces to an edge sum.
    """
    d = angle_differences(net, delta)
    return -np.sum(net.line_w * np.cos(d), axis=-1)


def line_weights(net: PowerNetwork, delta):
    """Per-line weights v_i v_j B_ij cos(delta_i - delta_j) of the flow
    Jacobian (batch dims allowed)."""
    return net.line_w * np.cos(delta @ net._line_inc_t)


def flow_jacobian(net: PowerNetwork, delta):
    """Dense Jacobian of power_flows: a weighted Laplacian.

    Off-diagonal (i, j) is -v_i v_j B_ij cos(delta_ij); the diagonal is
    minus the row sum of the off-diagonals.  Supports batch dims: returns
    (..., n, n).
    """
    w = line_weights(net, delta)
    shape = np.shape(delta)[:-1] + (net.n, net.n)
    H = np.zeros(shape)
    H[..., net.line_i, net.line_j] = -w
    H[..., net.line_j, net.line_i] = -w
    H[..., np.arange(net.n), np.arange(net.n)] = -H.sum(axis=-1)
    return H


def flow_jacobian_apply(net: PowerNetwork, delta, x, weights=None):
    """Matrix-free product flow_jacobian(delta) @ x (used by the adjoint pass).

    `weights` may carry line_weights(net, delta) when the caller has already
    computed them (the adjoint computes them for a block of steps at once).
    """
    w = line_weights(net, delta) if weights is None else weights
    return (w * (x @ net._line_inc_t)) @ net._line_inc


def comm_laplacian_apply(net: PowerNetwork, y):
    """Product L_Q @ y over the communication graph (batch dims allowed)."""
    return (net.comm_q * (y @ net._comm_inc_t)) @ net._comm_inc


def scaled_laplacian_bilinear(net: PowerNetwork, zeta, x, y):
    """Edge-sum form of x^T Z L_Q y over the communication graph.

    Returns sum over comm edges {i,j} of Q_ij (y_i - y_j)(zeta_i x_i - zeta_j x_j),
    which equals the dense product x^T diag(zeta) L_Q y.
    """
    zx = np.asarray(zeta) * np.asarray(x, dtype=float)
    dy = y[..., net.comm_i] - y[..., net.comm_j]
    dzx = zx[..., net.comm_i] - zx[..., net.comm_j]
    return np.sum(net.comm_q * dy * dzx, axis=-1)


def edge_angle_spread(net: PowerNetwork, delta):
    """Largest |delta_i - delta_j| over physical lines (security-region check)."""
    return float(np.max(np.abs(angle_differences(net, delta))))
