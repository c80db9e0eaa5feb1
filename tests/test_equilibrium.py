import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfreq import controller as ctl
from gridfreq import costs as cm
from gridfreq import equilibrium as eqm
from gridfreq.equilibrium import EquilibriumError
from gridfreq.network import power_flows

from conftest import (bisect_increasing, bisection_gamma,
                      bisection_synchronous_frequency, three_bus, two_bus,
                      random_connected_net)
from test_lyapunov import monotone_policies


def test_gamma_closed_form_quartic():
    # c = (1, 8, 1), r = 4: zeta = (1, 2, 1), sum(1/zeta) = 2.5.
    # Total disturbance -2 => common inverse level 0.8 => gamma = 0.8^3.
    costs = cm.power_costs(4, np.array([1.0, 8.0, 1.0]))
    gamma = eqm.solve_gamma(costs, np.array([-1.0, -0.5, -0.5]))
    assert gamma == pytest.approx(0.512, abs=1e-12)
    u_star = costs.grad_inverse(gamma)
    assert np.allclose(u_star, [0.8, 0.4, 0.8], atol=1e-12)


def test_gamma_quadratic_closed_form():
    # r = 2: u*_i = gamma / c_i, so gamma = -sum(p) / sum(1/c).
    c = np.array([1.0, 2.0, 4.0])
    costs = cm.quadratic_costs(c)
    p = np.array([-0.7, -0.2, -0.35])
    gamma = eqm.solve_gamma(costs, p)
    assert gamma == pytest.approx(1.25 / np.sum(1.0 / c), abs=1e-12)


def test_gamma_bisection_agrees_with_analytic():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        costs = cm.power_costs(4, rng.uniform(0.3, 3.0, 4))
        p = rng.uniform(-1.0, 1.0, 4)
        if abs(p.sum()) < 0.5:
            p = p - (np.sign(p.sum()) or 1.0) * 0.5 / 4
        analytic = eqm.solve_gamma(costs, p)
        bisected = bisection_gamma(costs, p)
        assert bisected == pytest.approx(analytic, abs=1e-9)


def test_steady_injections_equalize_marginals_and_balance():
    for seed in range(15):
        rng = np.random.default_rng(seed + 40)
        r = int(rng.choice([2, 4]))
        costs = cm.power_costs(r, rng.uniform(0.2, 2.0, 5))
        p = rng.uniform(-1.0, 0.0, 5)
        gamma = eqm.solve_gamma(costs, p)
        u = costs.grad_inverse(gamma)
        mc = costs.grad(u)
        assert np.max(np.abs(mc - gamma)) < 1e-10
        assert p.sum() + u.sum() == pytest.approx(0.0, abs=1e-10)


def test_two_bus_power_flow_closed_form():
    # One line, w = 1: injection (q, -q) needs sin(d1 - d2) = q.
    net = two_bus(b=1.0)
    delta = eqm.newton_power_flow(net, np.array([0.5, -0.5]))
    assert delta[0] - delta[1] == pytest.approx(np.arcsin(0.5), abs=1e-10)
    assert abs(delta.sum()) < 1e-12


def test_power_flow_solves_random_feasible_cases():
    for seed in range(12):
        net = random_connected_net(seed, buses=4 + seed % 3)
        rng = np.random.default_rng(seed + 9)
        target = rng.uniform(-0.35, 0.35, net.n)
        delta_true = target - target.mean()
        delta_true *= 0.3 / max(0.3, np.max(np.abs(delta_true)))
        inj = power_flows(net, delta_true)
        delta = eqm.newton_power_flow(net, inj)
        assert np.allclose(power_flows(net, delta), inj, atol=1e-10)
        assert np.allclose(delta, delta_true, atol=1e-8)


def test_power_flow_requires_balanced_injections():
    net = two_bus()
    with pytest.raises(EquilibriumError, match="injections must balance"):
        eqm.newton_power_flow(net, np.array([0.5, -0.4]))


def test_power_flow_infeasible_when_line_overloaded():
    net = two_bus(b=1.0)
    with pytest.raises(EquilibriumError, match="power flow infeasible"):
        eqm.newton_power_flow(net, np.array([1.5, -1.5]))


def test_power_flow_rejects_solution_outside_security_region():
    # sin has a second root at pi - arcsin(q); steering Newton there with the
    # initial guess must trip the security-region check, not return angles.
    net = two_bus(b=1.0)
    high = np.pi - np.arcsin(0.5)
    guess = np.array([high / 2, -high / 2]) + 1e-3
    with pytest.raises(EquilibriumError, match="outside security region"):
        eqm.newton_power_flow(net, np.array([0.5, -0.5]), guess=guess)


def test_solve_s_star_inverts_identity():
    params = ctl.identity_params(n=3)
    u_star = np.array([0.8, 0.0, -0.4])
    s = eqm.solve_s_star(params, u_star)
    assert np.allclose(s, u_star, atol=1e-10)


def test_solve_s_star_inverts_random_monotone():
    for seed in range(10):
        rng = np.random.default_rng(seed + 3)
        params = ctl.transform_params(ctl.init_raw_params(3, 4, rng))
        s_true = rng.uniform(-2.0, 2.0, 3)
        u_star = ctl.eval_u(params, s_true)
        s = eqm.solve_s_star(params, u_star)
        assert np.allclose(ctl.eval_u(params, s), u_star, atol=1e-9)


def test_solve_s_star_saturation_unreachable():
    params = ctl.identity_params(n=2, u_lo=-0.5, u_hi=0.5)
    with pytest.raises(EquilibriumError, match="outside controller range"):
        eqm.solve_s_star(params, np.array([0.8, 0.0]), bus_ids=[10, 11])


def test_solve_s_star_is_zero_where_u_of_zero_is_u_star():
    # u* = 0 beyond the bounds is refused, not read off s = 0
    with pytest.raises(EquilibriumError,
                       match=r"at bus 0: u\* = 0 not within \[0.1, inf\]"):
        eqm.solve_s_star(ctl.identity_params(1, u_lo=0.1), [0.0])
    # u(0) = u* at 0 inside the bounds, and at the bound u_lo = 1 that
    # u(0) sits at, though g (slope 1e-12) reaches it only at s = 1e12
    params = ctl.scaled_identity_params([1.0, 1e-12], u_lo=[-0.1, 1.0])
    assert np.array_equal(eqm.solve_s_star(params, [0.0, 1.0]), [0.0, 0.0])


def test_solve_s_star_reaches_a_steep_segment_far_from_zero():
    # on slope 50 past a deadband of 5, u at the float nearest s* = 5.02
    # misses u* = 1 by 2e-14, as close as any float s comes: not unreachable
    params = ctl.scaled_identity_params([50.0, 3.0], dz=[5.0, 1000.0])
    s = eqm.solve_s_star(params, np.array([1.0, 0.37]))
    assert np.allclose(s, [5.02, 1000.0 + 0.37 / 3.0], rtol=1e-15, atol=0)


def test_synchronous_frequency_open_loop():
    net = three_bus()
    p = np.array([-0.6, -0.3, 0.15])
    omega = eqm.synchronous_frequency(net, p)
    assert omega == pytest.approx(p.sum() / net.alpha.sum(), abs=1e-15)


def test_synchronous_frequency_with_droop():
    # identity controllers: omega (sum alpha + n) = sum p
    net = three_bus()
    params = ctl.identity_params(n=3)
    p = np.array([-0.6, -0.3, 0.15])
    omega = eqm.synchronous_frequency(net, p, params)
    assert omega == pytest.approx(p.sum() / (net.alpha.sum() + 3), abs=1e-9)


@given(st.integers(0, 2 ** 16), st.integers(2, 8), st.integers(1, 6),
       st.booleans(), st.booleans(), st.floats(-30.0, 30.0))
def test_synchronous_frequency_is_the_exact_root_of_the_balance(
        seed, buses, d, saturated, deadband, p_sum):
    # kinked policies, with saturation bounds small enough for a large
    # disturbance to drive some buses onto them, and with a deadband; the
    # bisection stops at a residual below 1e-12, the closed form near
    # rounding of the balance itself
    rng = np.random.default_rng(seed)
    net = random_connected_net(seed, buses=buses, all_gens=True)
    masks = {}
    if saturated:
        masks.update(u_lo=-rng.uniform(0.05, 1.0, net.n),
                     u_hi=rng.uniform(0.05, 1.0, net.n))
    if deadband:
        masks.update(dz=rng.uniform(0.0, 0.3, net.n))
    params = ctl.transform_params(ctl.init_raw_params(net.n, d, rng), **masks)
    p = p_sum * rng.dirichlet(np.ones(net.n))
    omega = eqm.synchronous_frequency(net, p, params)
    assert abs(omega - bisection_synchronous_frequency(net, p, params)) <= 1e-11
    balance = float(ctl.eval_u(params, np.full(net.n, omega)).sum()) \
        + omega * float(net.alpha.sum())
    assert abs(balance - float(p.sum())) <= 1e-13 * max(1.0, abs(float(p.sum())))


def test_solve_equilibrium_dai_fixed_point():
    net = three_bus()
    costs = cm.power_costs(4, np.array([1.0, 8.0, 1.0]))
    params = ctl.identity_params(n=3)
    p = np.array([-1.0, -0.5, -0.5])
    eq = eqm.solve_equilibrium(net, costs, params, p)
    res = eqm.equilibrium_residuals(net, costs, params, p, eq)
    assert res["marginal_cost_spread"] < 1e-10
    assert abs(res["power_balance"]) < 1e-10
    assert res["flow_residual_max"] < 1e-9
    assert res["controller_residual_max"] < 1e-9
    assert eq.omega_star == 0.0
    assert res["edge_angle_spread"] < np.pi / 2


def test_solve_equilibrium_primary_fixed_point():
    net = three_bus()
    params = ctl.identity_params(n=3)
    p = np.array([-0.5, -0.2, 0.1])
    eq = eqm.solve_equilibrium(net, None, params, p, mode="primary")
    assert eq.gamma is None and eq.s_star is None
    res = eqm.equilibrium_residuals(net, None, params, p, eq)
    assert res["flow_residual_max"] < 1e-9
    # u at equilibrium is the droop response to the synchronous frequency
    assert np.allclose(eq.u_star, np.full(3, eq.omega_star), atol=1e-9)


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 16), buses=st.integers(2, 6),
       mode=st.sampled_from(["dai_general", "primary"]), masked=st.booleans())
def test_equilibrium_residuals_stay_under_tolerance_on_random_networks(
        seed, buses, mode, masked):
    # random networks, costs and d = 5 policies (in DAI mode optionally
    # saturated at 1.5 times the largest |u*| and with a deadband, so that
    # the tables' inverse works between clamped crossings); disturbances
    # small enough for every line to carry the flows inside the region
    rng = np.random.default_rng(seed)
    net = random_connected_net(seed, buses=buses)
    costs = cm.random_power_costs(net.n, rng)
    p = rng.uniform(-0.05, 0.05, net.n)
    masks = {}
    if masked:
        bound = 1.5 * np.max(np.abs(costs.grad_inverse(eqm.solve_gamma(costs, p))))
        masks = dict(u_lo=-bound, u_hi=bound, dz=float(rng.uniform(0.0, 0.1)))
    params = ctl.transform_params(ctl.init_raw_params(net.n, 5, rng), **masks)
    eq = eqm.solve_equilibrium(net, costs, params, p, mode=mode)
    res = eqm.equilibrium_residuals(net, costs, params, p, eq)
    assert res["flow_residual_max"] < 1e-9
    assert res["edge_angle_spread"] < np.pi / 2
    if mode == "primary":
        return
    scale = max(1.0, float(np.max(np.abs(eq.u_star))))
    assert eq.omega_star == 0.0
    assert res["marginal_cost_spread"] < 1e-12 * np.max(np.abs(costs.grad(eq.u_star)))
    assert abs(res["power_balance"]) < 1e-12 * scale
    assert res["controller_residual_max"] < 1e-12 * scale


def _oracle_s_star(params, u_star):
    """Per-bus scalar bisection, as solve_s_star did it one bus at a time."""
    n = params.n
    s_star = np.zeros(n)
    for i in range(n):
        if u_star[i] == 0.0:
            continue

        def u_of_s(s, _i=i):
            x = np.zeros(n)
            x[_i] = s
            return float(ctl.eval_u(params, x)[_i])

        s_star[i] = bisect_increasing(u_of_s, float(u_star[i]), limit=1e9)
    return s_star


def _residual(params, s, u_star):
    return np.abs(ctl.eval_u(params, s) - u_star)


@pytest.mark.parametrize("masks", [{}, {"u_lo": -0.6, "u_hi": 0.6},
                                   {"dz": 0.05},
                                   {"u_lo": -0.6, "u_hi": 0.6, "dz": 0.05}])
def test_solve_s_star_matches_per_bus_bisection(masks):
    for seed in range(12):
        rng = np.random.default_rng(seed + 40)
        n = int(rng.integers(2, 9))
        params = ctl.transform_params(ctl.init_raw_params(n, 5, rng), **masks)
        u_star = ctl.eval_u(params, rng.uniform(-3.0, 3.0, n))
        u_star[rng.uniform(size=n) < 0.2] = 0.0
        s = eqm.solve_s_star(params, u_star)
        ref = _oracle_s_star(params, u_star)
        residual = _residual(params, s, u_star)
        assert np.all(residual <= 1e-14 * np.maximum(1.0, np.abs(u_star))), seed
        assert np.all(residual <= _residual(params, ref, u_star)), seed
        # a saturated target is met by every s beyond the crossing
        free = (u_star > params.u_lo) & (u_star < params.u_hi)
        assert np.all(np.abs(s - ref)[free] <= 1e-9 * np.abs(ref[free])), seed
        assert np.all(s[u_star == 0.0] == 0.0), seed


@given(monotone_policies(), st.data())
def test_solve_s_star_meets_u_star_or_names_a_bus_it_cannot_reach(case, data):
    # targets are u(s) at the drawn s, except on the `free` buses, which
    # draw any target (beyond the bounds, or past a flat tail, or not)
    params, s = case
    n = params.n
    u_star = ctl.eval_u(params, s)
    free = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    drawn = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    u_star[free] = np.array(drawn)[free]
    ids = list(range(10, 10 + n))
    try:
        s_star = eqm.solve_s_star(params, u_star, bus_ids=ids)
    except EquilibriumError as exc:
        i = ids.index(int(re.search(r"at bus (\d+):", str(exc)).group(1)))
        assert free[i], str(exc)
        if "not within" in str(exc):
            assert not params.u_lo[i] <= u_star[i] <= params.u_hi[i]
        else:
            # u is monotone, so u* inside u's range over |s| <= 1e9 is reachable
            lo, hi = ctl.eval_u(params, np.full((2, n), [[-1e9], [1e9]]))[:, i]
            assert not lo + 1e-6 < u_star[i] < hi - 1e-6, str(exc)
    else:
        residual = _residual(params, s_star, u_star)
        assert np.all(residual <= 1e-14 * np.maximum(1.0, np.abs(u_star)))


def _flat_policies(n, flat):
    """Identity policies except on the `flat` buses, whose slope 1e-12 cannot
    reach |u| = 0.5 within |s| <= 1e9."""
    gains = np.ones(n)
    gains[flat] = 1e-12
    return ctl.scaled_identity_params(gains, u_lo=-1.0, u_hi=1.0)


def test_solve_s_star_names_the_lowest_unreachable_bus():
    params = _flat_policies(5, [2, 4])
    u_star = np.array([0.5, -0.5, 0.5, 0.3, -0.5])
    with pytest.raises(EquilibriumError, match="at bus 12: u\\* = 0.5 unreachable"):
        eqm.solve_s_star(params, u_star, bus_ids=[10, 11, 12, 13, 14])


@pytest.mark.parametrize("outside, unreachable, named", [
    (1, 3, "at bus 11: u\\* = 1.5 not within"),
    (3, 1, "at bus 11: u\\* = 0.5 unreachable"),
])
def test_solve_s_star_reports_the_lowest_failing_bus_of_either_kind(
        outside, unreachable, named):
    params = _flat_policies(4, [unreachable])
    u_star = np.full(4, 0.5)
    u_star[outside] = 1.5
    with pytest.raises(EquilibriumError, match=named):
        eqm.solve_s_star(params, u_star, bus_ids=[10, 11, 12, 13])


def test_elementwise_bisection_freezes_each_element():
    # targets that converge at very different iteration counts, and one
    # that stalls on float resolution, each equal the scalar solve
    targets = np.array([0.0, 1e-3, 7.25, -3.5e5, 123.456, 2.0 ** -40])
    got = bisect_increasing(lambda x: x ** 3, targets)
    for g, t in zip(got, targets):
        assert g == bisect_increasing(lambda x: x ** 3, float(t))
