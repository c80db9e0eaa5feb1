from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridfreq import controller as ctl
from gridfreq import costs as cm
from gridfreq import dynamics as dyn
from gridfreq import equilibrium as eqm
from gridfreq import lyapunov as lyap
from gridfreq.dynamics import Scenario
from gridfreq.equilibrium import Equilibrium
from gridfreq.lyapunov import LyapunovError
from gridfreq.network import (angle_differences, edge_angle_spread,
                              to_center_of_inertia)

from conftest import (dense_comm_laplacian, random_connected_net, three_bus,
                      three_bus_gens, two_bus)
from test_controller import relu_oracle
from test_dynamics import bits, case39, random_loop


def quad3():
    return cm.quadratic_costs(np.array([1.0, 2.0, 1.5]))


def _trapezoid_integral(params, i, s, steps=40001):
    """Dense-grid trapezoid oracle for the closed-form integral."""
    xs = np.linspace(0.0, s, steps)
    n = params.n
    grid = np.zeros((steps, n))
    grid[:, i] = xs
    vals = ctl.eval_u(params, grid)[:, i]
    dx = xs[1] - xs[0]
    return float(np.sum((vals[1:] + vals[:-1]) * 0.5 * dx))


# --------------------------------------------------------------------------
# controller integral
# --------------------------------------------------------------------------

def test_integral_identity_closed_form():
    params = ctl.identity_params(n=2)
    s = np.array([1.5, -2.0])
    per = lyap.integral_per_bus(params, s)
    assert np.allclose(per, [1.125, 2.0], atol=1e-14)
    assert lyap.integral_L(params, s) == pytest.approx(3.125, abs=1e-14)


def test_integral_with_saturation_and_deadband():
    params = ctl.identity_params(n=2, u_lo=[-0.5, -np.inf],
                                 u_hi=[0.5, np.inf], dz=[0.0, 0.2])
    # clipped identity: int_0^2 = 0.5^2/2 + 0.5 * 1.5 = 0.875
    per = lyap.integral_per_bus(params, np.array([2.0, 1.0]))
    assert per[0] == pytest.approx(0.875, abs=1e-13)
    # deadband: int_0^1 max(x - 0.2, 0) = 0.8^2/2 = 0.32
    assert per[1] == pytest.approx(0.32, abs=1e-13)


def test_integral_matches_trapezoid_oracle():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        raw = ctl.init_raw_params(2, 3, rng)
        params = ctl.transform_params(
            raw, u_lo=[-0.8, -np.inf], u_hi=[0.6, np.inf],
            dz=[0.0, float(rng.uniform(0.0, 0.3))])
        for s0 in rng.uniform(-3.0, 3.0, 3):
            got = lyap.integral_per_bus(params, np.array([s0, s0]))
            for i in range(2):
                oracle = _trapezoid_integral(params, i, s0)
                assert got[i] == pytest.approx(oracle, abs=5e-7)
    # bounds that exclude 0 (both above it, or both below): u is a bound on
    # the deadband and around the origin, not 0, so the integral is linear
    # there; buses 1 and 2 have a deadband, bus 0 none
    for seed in range(8):
        rng = np.random.default_rng(seed + 100)
        raw = ctl.init_raw_params(3, 3, rng)
        params = ctl.transform_params(
            raw, u_lo=[0.1, 0.1, -0.9], u_hi=[0.9, np.inf, -0.1],
            dz=[0.0, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.05, 0.3))])
        for s0 in rng.uniform(-3.0, 3.0, 3):
            got = lyap.integral_per_bus(params, np.full(3, s0))
            for i in range(3):
                oracle = _trapezoid_integral(params, i, s0)
                assert got[i] == pytest.approx(oracle, abs=5e-7)
    # one bound infinite and the other never reached, past a flat end
    # segment: bus 0 is min(x, 0) under u_lo = 0.5, bus 1 max(x, 0) under
    # u_hi = -0.5, so u is the finite bound everywhere; bus 2 is bus 0 with
    # a subnormal slope under u_hi = -1, whose crossing overflows a float
    flat = ctl.NetParams(k_plus=np.array([[0.0], [1.0], [0.0]]),
                         b_plus=np.zeros((3, 1)),
                         k_minus=np.array([[-1.0], [0.0], [-4e-318]]),
                         b_minus=np.zeros((3, 1)),
                         u_lo=np.array([0.5, -np.inf, -np.inf]),
                         u_hi=np.array([np.inf, -0.5, -1.0]))
    for s0 in (-2.0, -0.5, 0.7, 3.0):
        got = lyap.integral_per_bus(flat, np.full(3, s0))
        assert np.allclose(got, [0.5 * s0, -0.5 * s0, -s0], rtol=0.0, atol=1e-14)
        for i in range(3):
            oracle = _trapezoid_integral(flat, i, s0)
            assert got[i] == pytest.approx(oracle, abs=5e-7)


def test_integral_rejects_a_saturated_nonmonotone_bus():
    # buses 1 and 2 fold down past 0.3; the closed form needs a monotone
    # policy only where a bound clips it, so bus 1 (clamped) is refused by
    # number and bus 2 (unclamped) stays exact
    fold = dict(k_plus=np.array([[1.0, 0.0], [3.0, -5.0], [3.0, -5.0]]),
                b_plus=np.tile([0.0, 0.3], (3, 1)),
                k_minus=np.array([[-1.0, 0.0], [-3.0, 5.0], [-3.0, 5.0]]),
                b_minus=np.tile([0.0, -0.3], (3, 1)))
    clamped = ctl.NetParams(**fold, u_lo=np.array([-0.5, -0.5, -np.inf]),
                            u_hi=np.array([0.5, 0.5, np.inf]))
    with pytest.raises(LyapunovError, match="bus 1"):
        lyap.integral_per_bus(clamped, np.zeros(3))
    free = ctl.NetParams(**fold, u_lo=np.array([-0.5, -np.inf, -np.inf]),
                         u_hi=np.array([0.5, np.inf, np.inf]))
    for s0 in (-1.0, 0.2, 1.0):
        got = lyap.integral_per_bus(free, np.full(3, s0))
        for i in range(3):
            assert got[i] == pytest.approx(_trapezoid_integral(free, i, s0),
                                           abs=5e-7)


@st.composite
def monotone_policies(draw):
    """Policies from transform_params (slopes down to zero, so flat end
    segments too) with random finite or infinite bounds and deadbands, and
    one input per bus."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 5))

    def grid(shape, elements):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    raw = ctl.RawParams(grid((n, d), st.floats(0.0, 1.5)),
                        grid((n, d), st.floats(0.0, 1.5)),
                        grid((n, d - 1), st.floats(0.0, 1.0)),
                        grid((n, d - 1), st.floats(0.0, 1.0)))
    lo = grid((n,), st.one_of(st.just(-np.inf), st.floats(-2.0, 2.0)))
    hi = grid((n,), st.one_of(st.just(np.inf), st.floats(-2.0, 2.0)))
    dz = grid((n,), st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    params = ctl.transform_params(raw, u_lo=np.minimum(lo, hi),
                                  u_hi=np.maximum(lo, hi), dz=dz)
    return params, grid((n,), st.floats(-3.0, 3.0))


@given(monotone_policies())
def test_integral_matches_trapezoid_of_relu_oracle(case):
    params, s = case
    steps = 40001
    xs = np.linspace(0.0, s, steps)                      # (steps, n)
    u = relu_oracle(params, xs)[0]
    oracle = np.sum((u[1:] + u[:-1]) * 0.5, axis=0) * (s / (steps - 1))
    got = lyap.integral_per_bus(params, s)
    assert np.all(np.abs(got - oracle) <= 5e-7 * np.maximum(1.0, np.abs(oracle)))


def test_integral_gradient_is_u():
    eps = 1e-6
    for seed in range(6):
        rng = np.random.default_rng(seed + 13)
        params = ctl.transform_params(ctl.init_raw_params(3, 3, rng))
        s = rng.uniform(-2.0, 2.0, 3)
        u = ctl.eval_u(params, s)
        for i in range(3):
            bump = np.zeros(3)
            bump[i] = eps
            fd = (lyap.integral_L(params, s + bump)
                  - lyap.integral_L(params, s - bump)) / (2 * eps)
            assert fd == pytest.approx(u[i], abs=1e-6)


def test_integral_midpoint_convexity():
    for seed in range(10):
        rng = np.random.default_rng(seed + 29)
        params = ctl.transform_params(ctl.init_raw_params(2, 4, rng))
        a = rng.uniform(-3.0, 3.0, 2)
        b = rng.uniform(-3.0, 3.0, 2)
        mid = lyap.integral_L(params, 0.5 * (a + b))
        assert mid <= 0.5 * lyap.integral_L(params, a) \
            + 0.5 * lyap.integral_L(params, b) + 1e-12


def test_integral_batched():
    rng = np.random.default_rng(2)
    params = ctl.transform_params(ctl.init_raw_params(3, 2, rng))
    s = rng.uniform(-2, 2, size=(5, 3))
    batch = lyap.integral_per_bus(params, s)
    for k in range(5):
        assert np.allclose(batch[k], lyap.integral_per_bus(params, s[k]),
                           atol=1e-15)


# --------------------------------------------------------------------------
# DAI energy function
# --------------------------------------------------------------------------

def dai_setup():
    net = three_bus()
    costs = quad3()
    params = ctl.identity_params(n=3)
    p = np.array([-0.6, -0.2, -0.2])
    eq = eqm.solve_equilibrium(net, costs, params, p)
    return net, costs, params, p, eq


def test_W_zero_at_equilibrium():
    net, costs, params, p, eq = dai_setup()
    w = lyap.lyap_W(net, params, (eq.delta_star, np.zeros(3), eq.s_star), eq)
    assert abs(w) < 1e-13


def test_W_positive_near_equilibrium():
    net, costs, params, p, eq = dai_setup()
    delta, omega, s = lyap.sample_region_states(net, eq, 200, seed=11)
    w = lyap.lyap_W(net, params, (delta, omega, s), eq)
    assert np.all(w > 0.0)


def test_W_dot_matches_directional_derivative():
    net, costs, params, p, eq = dai_setup()
    deltas, omegas, ss = lyap.sample_region_states(net, eq, 12, seed=5)
    eps = 1e-6
    for k in range(12):
        delta, s = deltas[k], ss[k]
        # derivatives fills the load-bus omega entries from the power balance
        f, omega = dyn.derivatives(net, costs, params,
                                   np.stack((delta, omegas[k], s)), p)[:2]
        state = np.stack((delta, omega, s))
        wp = lyap.lyap_W(net, params,
                         (delta + eps * f[0], omega + eps * f[1], s + eps * f[2]),
                         eq)
        wm = lyap.lyap_W(net, params,
                         (delta - eps * f[0], omega - eps * f[1], s - eps * f[2]),
                         eq)
        directional = (wp - wm) / (2 * eps)
        analytic = lyap.lyap_W_dot(net, costs, params, state, eq)
        assert abs(directional - analytic) < 1e-5 * max(1.0, abs(analytic))


def test_W_dot_nonpositive_on_region():
    net, costs, params, p, eq = dai_setup()
    delta, omega, s = lyap.sample_region_states(net, eq, 300, seed=21)
    omega = dyn.derivatives(net, costs, params, np.stack((delta, omega, s)), p)[1]
    wdot = lyap.lyap_W_dot(net, costs, params, (delta, omega, s), eq)
    assert np.all(wdot <= 1e-12)


@given(st.integers(0, 10 ** 6), st.integers(3, 12), st.integers(0, 2 ** 40),
       st.integers(1, 40), st.sampled_from([0.4, 3.0, 20.0]), st.booleans(),
       st.booleans())
def test_W_nonnegative_and_W_dot_nonpositive_on_random_networks(
        net_seed, buses, seed, count, spread, clamped, deadband):
    net = random_connected_net(net_seed, buses=buses)
    rng = np.random.default_rng(net_seed)
    costs = cm.random_power_costs(net.n, rng, r=4)
    bound = 2.0 if clamped else None
    params = ctl.transform_params(ctl.init_raw_params(net.n, 3, rng),
                                  u_lo=None if bound is None else -bound,
                                  u_hi=bound, dz=0.01 if deadband else None)
    p = rng.uniform(-0.3, 0.3, net.n)
    eq = eqm.solve_equilibrium(net, costs, params, p)
    assume(edge_angle_spread(net, eq.delta_star) < np.pi / 2 - lyap.REGION_MARGIN)
    delta, omega, s = lyap.sample_region_states(net, eq, count, seed=seed,
                                                base_spread=spread)
    omega = dyn.derivatives(net, costs, params, np.stack((delta, omega, s)), p)[1]
    state = (delta, omega, s)
    # W and W_dot sum differences of O(1) terms, so rounding may cross zero
    # by a few ulps: the floor is the certifier's positivity floor, both ways
    floor = -lyap.POSITIVITY_FLOOR
    assert np.all(lyap.lyap_W(net, params, state, eq) >= -floor)
    assert np.all(lyap.lyap_W_dot(net, costs, params, state, eq) <= floor)


@settings(max_examples=20)
@given(st.integers(0, 10 ** 6), st.integers(2, 10))
def test_certify_trajectory_reruns_bit_identical_on_random_networks(net_seed,
                                                                     buses):
    net, costs, params, scen = random_loop(net_seed, buses)
    eq = eqm.solve_equilibrium(net, costs, params, scen.p)
    traj = dyn.simulate(scen, net, costs, params)
    first, again = (lyap.certify_trajectory(traj, net, costs, params, eq)
                    for _ in range(2))
    assert bits(first) == bits(again)


def test_cross_term_edge_sum_matches_dense_quadratic_form():
    net = three_bus()
    costs = cm.power_costs(4, np.array([0.7, 1.4, 1.0]))
    for seed in range(10):
        rng = np.random.default_rng(seed + 3)
        params = ctl.transform_params(ctl.init_raw_params(3, 3, rng))
        s = rng.uniform(-2.0, 2.0, 3)
        value, _ = lyap.cross_term(net, costs, params, s)
        u = ctl.eval_u(params, s)
        mc = costs.grad(u)
        dense = (costs.zeta * u) @ dense_comm_laplacian(net) @ mc
        assert value == pytest.approx(dense, abs=1e-12)
        assert value >= -1e-12


def test_cross_term_zero_iff_marginals_equal():
    net = three_bus()
    costs = cm.quadratic_costs(np.array([2.0, 1.0, 4.0]))
    params = ctl.identity_params(n=3)
    # equal marginals: c_i s_i constant -> s = k / c
    s = 0.8 / np.array([2.0, 1.0, 4.0])
    value, equalized = lyap.cross_term(net, costs, params, s)
    assert value == 0.0
    assert bool(equalized)
    value2, equalized2 = lyap.cross_term(net, costs, params, s + [0.1, 0, 0])
    assert value2 > 0.0
    assert not bool(equalized2)


# --------------------------------------------------------------------------
# primary-mode energy function
# --------------------------------------------------------------------------

def primary_setup():
    net = three_bus_gens()
    params = ctl.identity_params(n=3)
    p = np.array([-0.5, -0.2, 0.1])
    eq = eqm.solve_equilibrium(net, None, params, p, mode="primary")
    return net, params, p, eq


def test_V_zero_at_equilibrium():
    net, params, p, eq = primary_setup()
    omega = np.full(3, eq.omega_star)
    v = lyap.lyap_V(net, (eq.delta_star, omega, None), eq, 0.01)
    assert abs(v) < 1e-13


def test_V_dot_matches_directional_derivative():
    net, params, p, eq = primary_setup()
    deltas, omegas, _ = lyap.sample_region_states(net, eq, 12, seed=9)
    eps = 1e-6
    for k in range(12):
        state = np.stack((deltas[k], omegas[k], np.zeros(3)))
        f = dyn.derivatives(net, None, params, state, p, mode="primary")[0]
        vp = lyap.lyap_V(net, (deltas[k] + eps * f[0], omegas[k] + eps * f[1],
                               None), eq, 0.01)
        vm = lyap.lyap_V(net, (deltas[k] - eps * f[0], omegas[k] - eps * f[1],
                               None), eq, 0.01)
        directional = (vp - vm) / (2 * eps)
        analytic = lyap.lyap_V_dot(net, params, state, eq, 0.01)
        assert abs(directional - analytic) < 1e-6 * max(1.0, abs(analytic))


def test_V_dot_quadratic_form_matches_assembled_Q():
    # with no controllers the decrease rate is exactly -[x; y]' Q(delta) [x; y]
    net, params, p, eq = primary_setup()
    deltas, omegas, _ = lyap.sample_region_states(net, eq, 20, seed=14)
    epsilon = 0.01
    for k in range(20):
        vdot = lyap.lyap_V_dot(net, None, (deltas[k], omegas[k], None),
                               eq, epsilon)
        x, y = lyap._primary_mismatch(net, deltas[k], omegas[k], eq)
        z = np.concatenate([x, y])
        q = lyap.assemble_Q(net, deltas[k], epsilon)
        assert vdot == pytest.approx(-z @ q @ z, abs=1e-12)


def random_primary_setup(seed, buses=6):
    net = random_connected_net(seed, buses=buses, all_gens=True)
    params = ctl.identity_params(n=net.n)
    p = np.random.default_rng(100 + seed).uniform(-0.3, 0.3, net.n)
    eq = eqm.solve_equilibrium(net, None, params, p, mode="primary")
    return net, eq


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batched_Q_and_schur_block_equal_per_state(seed):
    net, eq = random_primary_setup(seed)
    deltas, _, _ = lyap.sample_region_states(net, eq, 7, seed=seed)
    for eps in (1e-1, 1e-3):
        q = lyap.assemble_Q(net, deltas, eps)
        assert q.shape == (7, 2 * net.n, 2 * net.n)
        for k in range(7):
            assert np.array_equal(q[k], lyap.assemble_Q(net, deltas[k], eps))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_epsilon_search_matches_per_state_loop(seed):
    net, eq = random_primary_setup(seed)
    # ascending, and fine enough that the sampled states decide: the
    # thresholds of these networks lie between 0.046 and 0.054
    grid = tuple(np.arange(40, 61) * 1e-3)
    res = lyap.epsilon_and_c_search(net, eq, grid=grid, samples=30, seed=seed)
    deltas, _, _ = lyap.sample_region_states(net, eq, 30, seed=seed)
    test_deltas = np.vstack([eq.delta_star[None, :], deltas])

    def pd(a):
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return False
        return True

    expected = next(eps for eps in sorted(grid, reverse=True)
                    if all(pd(lyap.assemble_Q(net, dl, eps)) for dl in test_deltas))
    assert res.epsilon == expected
    lam = min(np.linalg.eigvalsh(lyap.assemble_Q(net, dl, expected))[0]
              for dl in test_deltas)
    assert res.lambda_min_q == pytest.approx(lam, rel=1e-12, abs=0)
    pivots = [np.diag(np.linalg.cholesky(lyap.assemble_Q(net, dl, expected))) ** 2
              for dl in test_deltas]
    assert res.min_pivot == pytest.approx(min(p.min() for p in pivots),
                                          rel=1e-12, abs=0)


# --------------------------------------------------------------------------
# dense symmetric linear algebra
# --------------------------------------------------------------------------

def test_cholesky_factor_detects_definiteness():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 5, 9):
        a = rng.normal(size=(dim, dim))
        spd = a @ a.T + dim * np.eye(dim)
        low = lyap.cholesky_factor(spd)
        assert low is not None and np.all(np.diag(low) > 0)
        assert np.allclose(low @ low.T, spd, rtol=1e-12, atol=1e-12)
        indef = spd - (np.linalg.eigvalsh(spd).max() + 1.0) * np.eye(dim)
        assert lyap.cholesky_factor(indef) is None
        # a stack fails as soon as one of its matrices does
        assert lyap.cholesky_factor(np.stack([spd, 2 * spd])) is not None
        assert lyap.cholesky_factor(np.stack([spd, indef, spd])) is None


# --------------------------------------------------------------------------
# region sampling and the epsilon search
# --------------------------------------------------------------------------

def test_sample_region_states_reproducible_and_prefix_stable():
    net, params, p, eq = primary_setup()
    d1, o1, s1 = lyap.sample_region_states(net, eq, 10, seed=3)
    d2, o2, s2 = lyap.sample_region_states(net, eq, 10, seed=3)
    assert np.array_equal(d1, d2) and np.array_equal(o1, o2) \
        and np.array_equal(s1, s2)
    d3, o3, s3 = lyap.sample_region_states(net, eq, 4, seed=3)
    assert np.array_equal(d3, d1[:4])
    assert np.array_equal(o3, o1[:4])
    d4, _, _ = lyap.sample_region_states(net, eq, 10, seed=4)
    assert not np.array_equal(d4, d1)


def _advanced_generator(seed, n, k):
    """The generator of sample k alone: PCG64(seed) advanced past the 3n
    doubles of each earlier sample."""
    return np.random.Generator(np.random.PCG64(seed).advance(3 * n * k))


def _reference_sample(net, eq, rng, omega_range=lyap.OMEGA_RANGE,
                      s_range=lyap.S_RANGE, margin=lyap.REGION_MARGIN,
                      base_spread=0.4):
    """One sample's (delta, omega, s) drawn from rng, one state at a time."""
    n = net.n
    limit = np.pi / 2 - margin
    step = to_center_of_inertia(rng.uniform(-base_spread, base_spread, n))
    for _ in range(64):
        cand = eq.delta_star + step
        if edge_angle_spread(net, cand) < limit:
            break
        step *= 0.5
    else:
        cand = eq.delta_star
    omega = (eq.omega_star or 0.0) + rng.uniform(-omega_range, omega_range, n)
    s = (eq.s_star if eq.s_star is not None else 0.0) \
        + rng.uniform(-s_range, s_range, n)
    return to_center_of_inertia(cand), omega, s


def _sample_region_states_loop(net, eq, count, seed=0, **kw):
    """Per-sample reference for the vectorized sampler."""
    samples = [_reference_sample(net, eq, _advanced_generator(seed, net.n, k), **kw)
               for k in range(count)]
    return tuple(np.array(part) for part in zip(*samples))


def _assert_sampler_matches_loop(net, eq, count, seed, **kw):
    got = lyap.sample_region_states(net, eq, count, seed=seed, **kw)
    ref = _sample_region_states_loop(net, eq, count, seed=seed, **kw)
    for g, r in zip(got, ref):
        assert g.shape == r.shape and np.array_equal(g, r)
    return ref


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_sample_region_states_match_per_sample_loop(seed):
    net_p, _, _, eq_p = primary_setup()
    net_d, _, _, _, eq_d = dai_setup()
    setups = [(net_p, eq_p), (net_d, eq_d)]
    setups += [random_primary_setup(s, buses=9) for s in range(3)]
    for net, eq in setups:
        for spread in (0.4, 3.0, 20.0):      # the wide draws need halvings
            _assert_sampler_matches_loop(net, eq, 150, seed, base_spread=spread)


def test_sample_region_states_fallback_matches_per_sample_loop():
    # an equilibrium just inside the margin: huge steps never shrink below the
    # rounding of its edge angles, so some samples fall back to delta*
    net = three_bus_gens()
    limit = np.pi / 2 - lyap.REGION_MARGIN
    delta_star = to_center_of_inertia(np.array([0.3, 0.3 - limit + 1e-15, 0.1]))
    assert edge_angle_spread(net, delta_star) < limit
    eq = Equilibrium(gamma=None, u_star=np.zeros(3), delta_star=delta_star,
                     s_star=None, omega_star=0.01)
    deltas, _, _ = _assert_sampler_matches_loop(net, eq, 200, 2, base_spread=1e6)
    fell_back = np.all(deltas == to_center_of_inertia(delta_star), axis=-1)
    assert 0 < fell_back.sum() < 200


def test_sample_region_states_respect_security_margin():
    net, params, p, eq = primary_setup()
    deltas, omegas, ss = lyap.sample_region_states(net, eq, 100, seed=6)
    for k in range(100):
        assert edge_angle_spread(net, deltas[k]) < np.pi / 2 - lyap.REGION_MARGIN
    assert np.max(np.abs(omegas - eq.omega_star)) <= lyap.OMEGA_RANGE


def test_sample_region_states_rejects_marginal_equilibrium():
    net = two_bus()
    bad_eq = Equilibrium(gamma=None, u_star=np.zeros(2),
                         delta_star=np.array([0.78, -0.78]),
                         s_star=None, omega_star=0.0)
    with pytest.raises(LyapunovError, match="violates the sampling margin"):
        lyap.sample_region_states(net, bad_eq, 1, seed=0)


@pytest.mark.parametrize("count, seed, match", [
    (-1, 0, "count must be a non-negative integer"),
    (2.0, 0, "count must be a non-negative integer"),
    (np.float64(3), 0, "count must be a non-negative integer"),
    (1, -1, "seed must be a non-negative integer"),
    (1, 1.0, "seed must be a non-negative integer"),
    (1, "7", "seed must be a non-negative integer"),
])
def test_sample_region_states_rejects_bad_count_or_seed(count, seed, match):
    net, params, p, eq = primary_setup()
    with pytest.raises(LyapunovError, match=match):
        lyap.sample_region_states(net, eq, count, seed=seed)


@pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 130])
@pytest.mark.parametrize("n", [3, 39])
def test_sample_k_reproduces_alone_from_the_advanced_generator(seed, n):
    if n == 3:
        net, _, _, eq = primary_setup()
    else:
        net = case39()
        eq = Equilibrium(gamma=None, u_star=np.zeros(n), delta_star=np.zeros(n),
                         s_star=np.linspace(-1.0, 1.0, n), omega_star=0.01)
    count = 1500
    raw = np.random.default_rng(seed).random((count, 3 * n))
    got = lyap.sample_region_states(net, eq, count, seed=seed)
    for k in (0, count // 2, count - 1):
        alone = _advanced_generator(seed, n, k).random(3 * n)
        assert np.array_equal(raw[k].view(np.uint64), alone.view(np.uint64))
        ref = _reference_sample(net, eq, _advanced_generator(seed, n, k))
        for g, r in zip(got, ref):
            assert np.array_equal(g[k].view(np.uint64), r.view(np.uint64))


@given(st.integers(0, 10 ** 6), st.integers(3, 12), st.integers(0, 2 ** 40),
       st.integers(1, 40), st.sampled_from([0.4, 3.0, 20.0]),
       st.floats(1e-3, 1.0), st.floats(1e-3, 5.0), st.booleans())
def test_sample_region_states_properties_on_random_networks(
        net_seed, buses, seed, count, spread, omega_range, s_range, with_s):
    net = random_connected_net(net_seed, buses=buses)
    rng = np.random.default_rng(net_seed)
    p = rng.uniform(-0.3, 0.3, net.n)
    eq = eqm.solve_equilibrium(net, None, ctl.identity_params(n=net.n), p,
                               mode="primary")
    if with_s:
        eq = replace(eq, s_star=rng.uniform(-1.0, 1.0, net.n))
    limit = np.pi / 2 - lyap.REGION_MARGIN
    assume(edge_angle_spread(net, eq.delta_star) < limit)
    kw = dict(base_spread=spread, omega_range=omega_range, s_range=s_range)
    deltas, omegas, ss = _assert_sampler_matches_loop(net, eq, count, seed, **kw)
    assert np.all(np.max(np.abs(angle_differences(net, deltas)), axis=-1) < limit)
    # a box offset and its centre are summed in floats: allow their rounding
    tol = 4 * np.finfo(float).eps
    assert np.all(np.abs(omegas - eq.omega_star)
                  <= omega_range * (1 + tol) + tol * abs(eq.omega_star))
    s_star = eq.s_star if with_s else 0.0
    assert np.all(np.abs(ss - s_star) <= s_range * (1 + tol) + tol * np.abs(s_star))
    scale = np.max(np.abs(deltas), axis=-1)
    assert np.all(np.abs(deltas.mean(axis=-1)) <= 4 * np.finfo(float).eps * scale)


def test_epsilon_search_returns_certifying_point():
    net, params, p, eq = primary_setup()
    res = lyap.epsilon_and_c_search(net, eq, samples=60, seed=0)
    assert res.epsilon in lyap.DEFAULT_EPS_GRID
    assert res.c > 0
    assert res.min_pivot > 0
    assert res.lambda_min_q > 0
    # the certified pair must satisfy the decay inequality on fresh samples
    deltas, omegas, _ = lyap.sample_region_states(net, eq, 100, seed=77)
    v = lyap.lyap_V(net, (deltas, omegas, None), eq, res.epsilon)
    vdot = lyap.lyap_V_dot(net, params, (deltas, omegas, None), eq, res.epsilon)
    assert np.all(v > 0)
    assert np.all(vdot + res.c * v <= 1e-12)


def test_epsilon_search_raises_when_grid_fails():
    net, params, p, eq = primary_setup()
    with pytest.raises(LyapunovError, match="no certifying epsilon"):
        lyap.epsilon_and_c_search(net, eq, grid=(1e6,), samples=10, seed=0)


# --------------------------------------------------------------------------
# trajectory certification
# --------------------------------------------------------------------------

def test_certify_dai_trajectory_passes():
    net = three_bus()
    costs = quad3()
    params = ctl.identity_params(n=3)
    p = np.array([-0.3, -0.15, 0.0])
    eq = eqm.solve_equilibrium(net, costs, params, p)
    scen = Scenario(p=p, T=10.0, h=2e-3)
    traj = dyn.simulate(scen, net, costs, params, stepper=dyn.rk4_step)
    report = lyap.certify_trajectory(traj, net, costs, params, eq, fd_rtol=1e-3)
    assert report.passed, report.summary()
    assert report.decrease_margin_min >= 0.0
    assert report.positivity_min >= 0.0
    assert report.cross_min >= -1e-12
    assert report.fd_rel_err_max < 1e-3
    assert "PASS" in report.summary()


def test_an_fd_mismatch_names_the_step_of_its_worst_error():
    # the gate compares the centered stencil on the interior steps; it used
    # to report step len(W), one past the last recorded step
    net = three_bus()
    costs = quad3()
    params = ctl.identity_params(n=3)
    p = np.array([-0.3, -0.15, 0.0])
    eq = eqm.solve_equilibrium(net, costs, params, p)
    traj = dyn.simulate(Scenario(p=p, T=0.05, h=2e-3), net, costs, params,
                        stepper=dyn.rk4_step)
    report = lyap.certify_trajectory(traj, net, costs, params, eq, fd_rtol=1e-15)
    assert report.failures == ("fd-mismatch",)
    err = np.abs(report.fd - report.W_dot)[1:-1]
    assert report.first_violation == 1 + np.argmax(err)
    assert 1 <= report.first_violation <= len(report.W) - 2


def test_certify_flags_nonmonotone_controller_by_positivity():
    # slope partial sums go negative past s = 0.3: u rises to 0.9 then folds
    # down; the controller integral is non-convex and the energy loses
    # positivity for states beyond the fold.
    net = three_bus()
    costs = quad3()
    params = ctl.NetParams(
        k_plus=np.tile([3.0, -5.0], (3, 1)),
        b_plus=np.tile([0.0, 0.3], (3, 1)),
        k_minus=np.tile([-3.0, 5.0], (3, 1)),
        b_minus=np.tile([0.0, -0.3], (3, 1)),
    )
    assert not ctl.validate_params(params, warn=False)
    p = np.array([-0.5, -0.3, -0.1])
    gamma = eqm.solve_gamma(costs, p)
    u_star = costs.grad_inverse(gamma)
    assert np.all(u_star < 0.9)  # reachable on the increasing branch
    delta_star = eqm.newton_power_flow(net, p + u_star)
    eq = Equilibrium(gamma=gamma, u_star=u_star, delta_star=delta_star,
                     s_star=u_star / 3.0, omega_star=0.0)
    initial = np.stack((delta_star, np.zeros(3), np.full(3, 1.0)))
    scen = Scenario(p=p, T=0.05, h=1e-3, initial=initial)
    traj = dyn.simulate(scen, net, costs, params)
    report = lyap.certify_trajectory(traj, net, costs, params, eq)
    assert not report.passed
    assert "positivity" in report.failures
    assert report.positivity_min < 0.0
    assert "FAIL" in report.summary()


def test_certify_rejects_unknown_mode():
    traj = dyn.Trajectory(mode="foo", t=np.array([0.0, 1.0]),
                          delta=np.zeros((2, 2)), omega=np.zeros((2, 2)),
                          s=np.zeros((2, 2)), u=np.zeros((2, 2)),
                          mc=np.zeros((2, 2)))
    net = two_bus()
    with pytest.raises(LyapunovError, match="cannot certify mode"):
        lyap.certify_trajectory(traj, net, cm.quadratic_costs(np.ones(2)),
                                ctl.identity_params(n=2), None)


def test_certify_refuses_a_trajectory_read_back_from_csv(tmp_path):
    # the CSV stores no angles, so read_csv's "unknown" trajectory has NaN
    # delta: refused by name before scoring, not reported as FAIL with nan
    net = three_bus()
    costs = quad3()
    params = ctl.identity_params(n=3)
    p = np.array([-0.3, -0.15, 0.0])
    eq = eqm.solve_equilibrium(net, costs, params, p)
    traj = dyn.simulate(Scenario(p=p, T=0.05, h=1e-3), net, costs, params)
    dyn.write_csv(traj, tmp_path / "run.csv")
    back = dyn.read_csv(tmp_path / "run.csv")
    assert back.mode == "unknown" and np.isnan(back.delta).all()
    with pytest.raises(LyapunovError,
                       match=r"cannot certify mode 'unknown': its angles are missing"):
        lyap.certify_trajectory(back, net, costs, params, eq)


@pytest.mark.parametrize("make_net", [three_bus_gens, three_bus],
                         ids=lambda make: make.__name__)
def test_certify_primary_trajectory_passes(make_net):
    # on three_bus the load bus's synthetic inertia enters both the
    # simulated loop and V; the fd gate fails if the two models differ
    net = make_net()
    params = ctl.identity_params(n=3)
    p = np.array([-0.5, -0.2, 0.1])
    eq = eqm.solve_equilibrium(net, None, params, p, mode="primary")
    scen = Scenario(p=p, T=10.0, h=1e-3, mode="primary")
    traj = dyn.simulate(scen, net, None, params, stepper=dyn.rk4_step)
    report = lyap.certify_trajectory(traj, net, None, params, eq, fd_rtol=1e-3)
    assert report.passed, report.summary()
    assert report.epsilon is not None
