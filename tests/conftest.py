"""Shared network builders and oracles for the test suite.

Everything here is deterministic: fixed parameters, fixed seeds. The builders
return fresh PowerNetwork objects so tests can't contaminate each other
through the cached line-weight arrays.
"""

import numpy as np
import pytest
from hypothesis import settings

from gridfreq import network, training
from gridfreq.controller import RawParams, eval_u
from gridfreq.costs import CostError

# property tests draw the same examples on every run, so tier-1 reruns stay
# deterministic; no example database is written
settings.register_profile("gridfreq", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("gridfreq")


def two_bus(b=1.0):
    """Two generators joined by one line."""
    return network.network_from_dict({
        "buses": [
            {"id": 1, "kind": "gen", "m": 3.0, "alpha": 1.0, "v": 1.0},
            {"id": 2, "kind": "gen", "m": 2.0, "alpha": 1.5, "v": 1.0},
        ],
        "lines": [{"i": 1, "j": 2, "B": b}],
        "base": {"f0": 50.0},
    })


def three_bus():
    """Two generators and one algebraic load bus on a path."""
    return network.network_from_dict({
        "buses": [
            {"id": 1, "kind": "gen", "m": 4.0, "alpha": 1.2, "v": 1.0},
            {"id": 2, "kind": "gen", "m": 3.0, "alpha": 0.8, "v": 1.0},
            {"id": 3, "kind": "load", "alpha": 1.5, "v": 1.0},
        ],
        "lines": [{"i": 1, "j": 2, "B": 2.0}, {"i": 2, "j": 3, "B": 1.5}],
        "base": {"f0": 50.0},
    })


def three_bus_gens(alpha=(3.0, 4.0, 3.5)):
    """Three generators on a path (all-machine systems)."""
    a1, a2, a3 = alpha
    return network.network_from_dict({
        "buses": [
            {"id": 1, "kind": "gen", "m": 4.0, "alpha": a1, "v": 1.0},
            {"id": 2, "kind": "gen", "m": 3.0, "alpha": a2, "v": 1.0},
            {"id": 3, "kind": "gen", "m": 2.0, "alpha": a3, "v": 1.0},
        ],
        "lines": [{"i": 1, "j": 2, "B": 1.0}, {"i": 2, "j": 3, "B": 0.8}],
        "base": {"f0": 50.0},
    })


def nine_bus():
    """Three generators feeding a six-bus load ring.

    Parameters are chosen so the fastest algebraic-load angle mode stays
    near 300/s, keeping RK4 at h = 2 ms well inside its stability region.
    """
    buses = []
    gens = {1: (5.0, 1.3), 2: (4.0, 1.0), 3: (3.0, 1.1)}
    for b in range(1, 10):
        if b in gens:
            m, a = gens[b]
            buses.append({"id": b, "kind": "gen", "m": m, "alpha": a, "v": 1.0})
        else:
            buses.append({"id": b, "kind": "load", "alpha": 2.0 + 0.1 * b, "v": 1.0})
    lines = [(1, 4, 1.2), (2, 7, 1.1), (3, 9, 1.0), (4, 5, 0.9), (5, 6, 0.8),
             (6, 7, 1.0), (7, 8, 0.9), (8, 9, 0.8), (9, 4, 0.9)]
    return network.network_from_dict({
        "buses": buses,
        "lines": [{"i": i, "j": j, "B": B} for i, j, B in lines],
        "base": {"f0": 50.0},
    })


def dense_comm_laplacian(net):
    """Dense communication Laplacian L_Q, the oracle for the matrix-free
    Laplacian products."""
    L = np.zeros((net.n, net.n))
    L[net.comm_i, net.comm_j] = -net.comm_q
    L[net.comm_j, net.comm_i] = -net.comm_q
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def eval_slope(params, x):
    """Right-limit derivative of controller.eval_u at x, the slope oracle of
    the controller tests; zero inside the deadband and strictly beyond a
    saturation bound."""
    t = params._tables
    x = np.asarray(x, dtype=float)
    xe = t.shift(x)
    r = t.index(xe)
    return np.where(t.unsaturated(t.value(xe, r)), t.slope(x, xe, r), 0.0)


def bisect_increasing(f, target, tol=1e-12, limit=1e6,
                      exhausted_msg="gradient range exhausted while bracketing inverse"):
    """Root of f(x) = target for increasing f, by doubling bracket + bisection,
    the scalar oracle for the closed-form equilibrium solves.

    Stops on |f(x) - target| < tol, falling back to float-resolution stall
    (the midpoint stops moving) when the local slope makes that unreachable.
    An array of targets is solved one element at a time.
    """
    if np.ndim(target) > 0:
        return np.array([bisect_increasing(f, t, tol, limit, exhausted_msg)
                         for t in np.ravel(target).tolist()]).reshape(np.shape(target))
    lo, hi = -1.0, 1.0
    while f(hi) < target:
        hi *= 2.0
        if hi > limit:
            raise CostError(exhausted_msg)
    while f(lo) > target:
        lo *= 2.0
        if lo < -limit:
            raise CostError(exhausted_msg)
    mid = 0.5 * (lo + hi)
    for _ in range(400):
        res = f(mid) - target
        if abs(res) < tol:
            return mid
        if res < 0:
            lo = mid
        else:
            hi = mid
        nxt = 0.5 * (lo + hi)
        if nxt == lo or nxt == hi:   # interval is two adjacent floats: done
            return nxt
        mid = nxt
    return mid


def bisection_gamma(costs, p):
    """equilibrium.solve_gamma by bisection end to end: an outer search over
    gamma, with numeric inverses of the common marginal inside."""
    inv_zeta_sum = float(np.sum(1.0 / costs.zeta))

    def total_injection(gamma):
        return bisect_increasing(costs.common_grad, gamma) * inv_zeta_sum

    return bisect_increasing(total_injection, -float(np.sum(p)))


def bisection_synchronous_frequency(net, p, params):
    """equilibrium.synchronous_frequency by bisection of the balance
    sum_i u_i(omega) + omega * sum(alpha) = sum(p)."""
    alpha_sum = float(net.alpha.sum())

    def balance(omega):
        u = eval_u(params, np.full(net.n, omega))
        return float(u.sum()) + omega * alpha_sum

    return bisect_increasing(balance, float(np.sum(p)), limit=1e9,
                             exhausted_msg="synchronous frequency bracket exhausted")


def finite_difference_gradients(net, costs, raw, p, cfg, eps=1e-6,
                                initial=None):
    """Central finite differences of training.rollout_loss in each raw
    parameter, the per-parameter oracle for training.backprop; `initial`
    as in rollout_loss."""
    fields = ("mu_plus", "mu_minus", "chi_plus", "chi_minus")

    def loss_at(r):
        return training.rollout_loss(net, costs, r, p, cfg, initial)[0]

    grads = {}
    for name in fields:
        base = getattr(raw, name)
        grad = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            bumped = {f: getattr(raw, f).copy() for f in fields}
            bumped[name][idx] = base[idx] + eps
            up = loss_at(RawParams(**bumped))
            bumped[name][idx] = base[idx] - eps
            down = loss_at(RawParams(**bumped))
            grad[idx] = (up - down) / (2.0 * eps)
        grads[name] = grad
    return RawParams(**grads)


def random_connected_net(seed, buses=4, all_gens=False):
    """Random small network: a spanning path plus a few chords."""
    rng = np.random.default_rng(seed)
    recs = []
    for b in range(1, buses + 1):
        gen = all_gens or b == 1 or rng.uniform() < 0.5
        rec = {"id": b, "kind": "gen" if gen else "load",
               "alpha": float(rng.uniform(0.8, 2.5)), "v": float(rng.uniform(0.95, 1.05))}
        if gen:
            rec["m"] = float(rng.uniform(2.0, 6.0))
        recs.append(rec)
    lines = [{"i": b, "j": b + 1, "B": float(rng.uniform(0.8, 2.0))}
             for b in range(1, buses)]
    for _ in range(buses // 3):
        i, j = rng.choice(np.arange(1, buses + 1), size=2, replace=False)
        if not any(set((l["i"], l["j"])) == {int(i), int(j)} for l in lines):
            lines.append({"i": int(i), "j": int(j), "B": float(rng.uniform(0.5, 1.5))})
    return network.network_from_dict(
        {"buses": recs, "lines": lines, "base": {"f0": 50.0}})


@pytest.fixture
def net2():
    return two_bus()


@pytest.fixture
def net3():
    return three_bus()


@pytest.fixture
def net9():
    return nine_bus()
