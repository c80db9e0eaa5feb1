import numpy as np
import pytest

from gridfreq import controller as ctl
from gridfreq import costs as cm
from gridfreq import dynamics as dyn
from gridfreq import equilibrium as eqm
from gridfreq.dynamics import DynamicsError, Scenario, SystemState
from gridfreq.network import power_flows

from conftest import three_bus, three_bus_gens, two_bus


def quad3():
    return cm.quadratic_costs(np.array([1.0, 2.0, 1.5]))


@pytest.mark.parametrize("kwargs, message", [
    (dict(mode="secondary"), "unknown mode"),
    (dict(h=0.0), "step h must be positive"),
    (dict(h=-1e-3), "step h must be positive"),
    (dict(T=1e-4), "horizon T must cover"),
    (dict(p=np.array([np.inf, 0.0, 0.0])), "must be finite"),
    (dict(mode="dai_linear"), "unknown mode"),
])
def test_scenario_validation(kwargs, message):
    base = dict(p=np.zeros(3), T=1.0, h=1e-3)
    base.update(kwargs)
    with pytest.raises(DynamicsError, match=message):
        Scenario(**base)


def test_scenario_steps_roundoff_guard():
    assert Scenario(p=np.zeros(2), T=1.0, h=1e-3).steps == 1000
    assert Scenario(p=np.zeros(2), T=0.3, h=0.1).steps == 3


def test_load_bus_frequency_is_power_balance():
    net = three_bus()
    rng = np.random.default_rng(0)
    delta = rng.uniform(-0.2, 0.2, 3)
    delta -= delta.mean()
    u = rng.uniform(-0.5, 0.5, 3)
    p = rng.uniform(-0.5, 0.5, 3)
    omega_l = dyn.load_bus_frequencies(net, delta, u, p)
    # the algebraic bus must satisfy its own balance exactly
    flows = power_flows(net, delta)
    i = net.loads[0]
    assert net.alpha[i] * omega_l[0] == pytest.approx(
        -flows[i] + p[i] + u[i], abs=1e-14)


def test_derivatives_stationary_at_equilibrium():
    net = three_bus()
    costs = quad3()
    params = ctl.identity_params(n=3)
    p = np.array([-0.6, -0.2, -0.2])
    eq = eqm.solve_equilibrium(net, costs, params, p)
    state = SystemState(eq.delta_star.copy(), np.zeros(3), eq.s_star.copy())
    ddelta, domega, ds, *_ = dyn.derivatives(net, costs, params, state, p)
    assert np.max(np.abs(ddelta)) < 1e-9
    assert np.max(np.abs(domega)) < 1e-9
    assert np.max(np.abs(ds)) < 1e-9


def test_primary_derivatives_stationary_at_equilibrium():
    net = three_bus()
    params = ctl.identity_params(n=3)
    p = np.array([-0.5, -0.1, 0.2])
    eq = eqm.solve_equilibrium(net, None, params, p, mode="primary")
    omega = np.full(3, eq.omega_star)
    state = SystemState(eq.delta_star.copy(), omega, np.zeros(3))
    ddelta, domega, *_ = dyn.derivatives(net, None, params, state, p,
                                         mode="primary")
    assert np.max(np.abs(ddelta)) < 1e-9
    assert np.max(np.abs(domega)) < 1e-8


def test_dai_linear_equals_general_with_matching_quadratics():
    # the classic linear rule u = k s is dai_general with the per-bus linear
    # controllers scaled_identity_params(k)
    net = three_bus()
    gains = np.array([0.7, 1.3, 1.0])
    costs = quad3()
    p = np.array([-0.4, -0.3, 0.1])
    traj = dyn.simulate(Scenario(p=p, T=0.5, h=1e-3), net, costs,
                        controllers=ctl.scaled_identity_params(gains))
    assert np.min(np.max(np.abs(traj.s), axis=0)) > 1e-2
    assert np.max(np.abs(traj.u - gains * traj.s)) <= 1e-15


def test_euler_matches_hand_rolled_step():
    net = two_bus()
    costs = cm.quadratic_costs(np.ones(2))
    params = ctl.identity_params(n=2)
    p = np.array([-0.3, 0.0])
    h = 1e-3
    scen = Scenario(p=p, T=h, h=h)
    state0 = SystemState.zeros(2)
    out = dyn.euler_step(net, costs, params, scen, state0)
    # by hand: flows(0) = 0, omega = 0, u = s = 0
    # ds = -2 pi f0 * omega - zeta * L_Q mc = 0 at the origin
    # domega_g = (p - alpha*omega - flow + u)/m
    two_pi_f0 = 2 * np.pi * net.f0
    assert np.allclose(out.delta, 0.0, atol=1e-15)
    assert out.omega[0] == pytest.approx(h * p[0] / net.m[0], abs=1e-15)
    assert np.allclose(out.s, 0.0, atol=1e-15)
    # one more step: now omega feeds the angle and integrator clocks
    scen2 = Scenario(p=p, T=2 * h, h=h)
    out2 = dyn.euler_step(net, costs, params, scen2, out, step_index=1)
    omega_bar = out.omega - out.omega.mean()
    assert np.allclose(out2.delta, h * two_pi_f0 * omega_bar, atol=1e-18)
    assert np.allclose(out2.s, -h * two_pi_f0 * out.omega, atol=1e-18)


def test_rk4_converges_at_fourth_order():
    net = three_bus()
    costs = quad3()
    params = ctl.identity_params(n=3)
    p = np.array([-0.5, -0.2, 0.0])
    T = 0.02

    def endpoint(h, stepper):
        scen = Scenario(p=p, T=T, h=h)
        traj = dyn.simulate(scen, net, costs, params, stepper=stepper)
        return np.concatenate([traj.delta[-1], traj.omega[-1][net.gens],
                               traj.s[-1]])

    ref = endpoint(T / 2560, dyn.rk4_step)
    errs_rk4 = [np.max(np.abs(endpoint(T / L, dyn.rk4_step) - ref))
                for L in (10, 20, 40)]
    orders = np.log2(np.array(errs_rk4[:-1]) / np.array(errs_rk4[1:]))
    assert np.all(orders > 3.5), orders

    errs_eul = [np.max(np.abs(endpoint(T / L, dyn.euler_step) - ref))
                for L in (10, 20, 40)]
    orders_eul = np.log2(np.array(errs_eul[:-1]) / np.array(errs_eul[1:]))
    assert np.all(orders_eul > 0.8) and np.all(orders_eul < 1.3), orders_eul


def test_simulate_records_consistent_rows():
    net = three_bus()
    costs = quad3()
    params = ctl.identity_params(n=3)
    scen = Scenario(p=np.array([-0.4, -0.1, 0.0]), T=0.2, h=1e-3)
    traj = dyn.simulate(scen, net, costs, params)
    assert traj.t.shape == (201,)
    assert traj.delta.shape == (201, 3)
    # u and mc columns are the controller and marginal evaluated at each row
    assert np.allclose(traj.u, ctl.eval_u(params, traj.s), atol=0)
    assert np.allclose(traj.mc, costs.grad(traj.u), atol=0)
    # load-bus omega rows satisfy the algebraic balance
    for l in (0, 57, 200):
        omega_l = dyn.load_bus_frequencies(net, traj.delta[l], traj.u[l], scen.p)
        assert np.allclose(traj.omega[l][net.loads], omega_l, atol=1e-14)


def test_simulate_deterministic_bit_identity():
    net = three_bus_gens()
    costs = cm.power_costs(4, np.array([0.8, 1.1, 0.9]))
    rng = np.random.default_rng(5)
    params = ctl.transform_params(ctl.init_raw_params(3, 3, rng))
    scen = Scenario(p=np.array([-0.3, -0.2, 0.1]), T=0.3, h=2e-3)
    a = dyn.simulate(scen, net, costs, params)
    b = dyn.simulate(scen, net, costs, params)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.u, b.u)


def test_simulate_requires_costs_for_dai():
    net = two_bus()
    scen = Scenario(p=np.zeros(2), T=0.1, h=1e-3)
    with pytest.raises(DynamicsError, match="need a cost model"):
        dyn.simulate(scen, net, None, ctl.identity_params(n=2))


def test_simulate_rejects_wrong_size_initial():
    net = two_bus()
    scen = Scenario(p=np.zeros(2), T=0.1, h=1e-3,
                    initial=SystemState.zeros(3))
    with pytest.raises(DynamicsError, match="does not match network"):
        dyn.simulate(scen, net, cm.quadratic_costs(np.ones(2)),
                     ctl.identity_params(n=2))


def test_blow_up_reports_step_index():
    # grossly unstable step size makes Euler diverge to non-finite values
    net = two_bus()
    costs = cm.quadratic_costs(np.ones(2))
    params = ctl.identity_params(n=2)
    scen = Scenario(p=np.array([0.9, -0.2]), T=50.0, h=0.5)
    with pytest.raises(DynamicsError, match=r"integration blow-up at step \d+"):
        dyn.simulate(scen, net, costs, params)


def test_primary_mode_convergence_to_synchronous_frequency():
    net = three_bus()
    params = ctl.identity_params(n=3)
    p = np.array([-0.5, -0.3, 0.1])
    scen = Scenario(p=p, T=30.0, h=1e-3, mode="primary")
    traj = dyn.simulate(scen, net, None, params)
    omega_sync = eqm.synchronous_frequency(net, p, params)
    assert np.max(np.abs(traj.omega[-1] - omega_sync)) < 1e-6


def test_primary_load_inertia_parameter():
    # synthetic load inertia shapes the transient but not the steady state
    net = three_bus()
    p = np.array([-0.5, -0.3, 0.1])
    light = dyn.simulate(Scenario(p=p, T=20.0, h=1e-3, mode="primary",
                                  load_inertia=0.05), net)
    heavy = dyn.simulate(Scenario(p=p, T=20.0, h=1e-3, mode="primary",
                                  load_inertia=0.5), net)
    omega_sync = p.sum() / net.alpha.sum()
    assert np.max(np.abs(light.omega[-1] - omega_sync)) < 1e-3
    assert np.max(np.abs(heavy.omega[-1] - omega_sync)) < 1e-3
    i = net.loads[0]
    assert np.max(np.abs(light.omega[:500, i] - heavy.omega[:500, i])) > 1e-3


def test_csv_roundtrip(tmp_path):
    net = three_bus()
    costs = quad3()
    params = ctl.identity_params(n=3)
    scen = Scenario(p=np.array([-0.4, -0.1, 0.0]), T=0.05, h=1e-3)
    traj = dyn.simulate(scen, net, costs, params)
    traj.W = np.linspace(1.0, 0.5, len(traj.t))
    path = tmp_path / "traj.csv"
    dyn.write_csv(traj, path)
    back = dyn.read_csv(path)
    assert np.array_equal(back.t, traj.t)
    assert np.array_equal(back.omega, traj.omega)
    assert np.array_equal(back.s, traj.s)
    assert np.array_equal(back.u, traj.u)
    assert np.array_equal(back.mc, traj.mc)
    assert np.array_equal(back.W, traj.W)


def test_csv_header_and_golden_first_rows(tmp_path):
    net = two_bus()
    costs = cm.quadratic_costs(np.ones(2))
    params = ctl.identity_params(n=2)
    scen = Scenario(p=np.array([-0.3, 0.0]), T=2e-3, h=1e-3)
    traj = dyn.simulate(scen, net, costs, params)
    path = tmp_path / "golden.csv"
    dyn.write_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,omega_1,omega_2,s_1,s_2,u_1,u_2,mc_1,mc_2,W"
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert all(v == "0.0" for v in first[1:9])
    assert first[9] == ""  # W column empty when not computed
    # row 1: omega_1 after one Euler step = h * p_1 / m_1
    second = lines[2].split(",")
    assert float(second[1]) == pytest.approx(1e-3 * (-0.3) / 3.0, abs=1e-18)
