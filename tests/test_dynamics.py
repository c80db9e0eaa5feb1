import csv
import json
import re
import tracemalloc
from dataclasses import dataclass
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from gridfreq import controller as ctl
from gridfreq import costs as cm
from gridfreq import dynamics as dyn
from gridfreq import equilibrium as eqm
from gridfreq import network
from gridfreq.dynamics import DynamicsError, Scenario
from gridfreq.network import comm_laplacian_apply, power_flows, project_gauge

from conftest import (nine_bus, random_connected_net, three_bus, three_bus_gens,
                      two_bus)


def quad3():
    return cm.quadratic_costs(np.array([1.0, 2.0, 1.5]))


@pytest.mark.parametrize("kwargs, message", [
    (dict(mode="secondary"), "unknown mode"),
    (dict(h=0.0), "step h must be positive"),
    (dict(h=-1e-3), "step h must be positive"),
    (dict(T=1e-4), "horizon T must cover"),
    (dict(p=np.array([np.inf, 0.0, 0.0])), "must be finite"),
    (dict(mode="dai_linear"), "unknown mode"),
    # last, so the cases above keep their ids; an infinite h used to pass
    # and be blamed on T
    (dict(h=np.inf), r"step h must be positive and finite, got inf"),
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
    x = np.stack((delta, np.zeros(3), np.zeros(3)))
    omega = dyn.derivatives(net, quad3(), ctl.identity_params(n=3), x, p, u=u)[1]
    # the algebraic bus must satisfy its own balance exactly
    flows = power_flows(net, delta)
    i = net.loads[0]
    assert net.alpha[i] * omega[i] == pytest.approx(
        -flows[i] + p[i] + u[i], abs=1e-14)


def test_derivatives_stationary_at_equilibrium():
    net = three_bus()
    costs = quad3()
    params = ctl.identity_params(n=3)
    p = np.array([-0.6, -0.2, -0.2])
    eq = eqm.solve_equilibrium(net, costs, params, p)
    state = np.stack((eq.delta_star, np.zeros(3), eq.s_star))
    (ddelta, domega, ds), *_ = dyn.derivatives(net, costs, params, state, p)
    assert np.max(np.abs(ddelta)) < 1e-9
    assert np.max(np.abs(domega)) < 1e-9
    assert np.max(np.abs(ds)) < 1e-9


def test_primary_derivatives_stationary_at_equilibrium():
    net = three_bus()
    params = ctl.identity_params(n=3)
    p = np.array([-0.5, -0.1, 0.2])
    eq = eqm.solve_equilibrium(net, None, params, p, mode="primary")
    omega = np.full(3, eq.omega_star)
    state = np.stack((eq.delta_star, omega, np.zeros(3)))
    (ddelta, domega, _), *_ = dyn.derivatives(net, None, params, state, p,
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


def ring(n):
    """n buses on a ring, generators on the even ones.  Every bus has two
    lines, so its incidence sums have two terms, which any summation order
    adds to the same bits: a batched call cannot differ from a single one
    in the last bits, as it may on buses with more lines."""
    return network.network_from_dict({
        "buses": [{"id": b, "kind": "gen", "m": 2.0 + b, "alpha": 1.0 + 0.1 * b}
                  if b % 2 == 0 else {"id": b, "kind": "load", "alpha": 1.5}
                  for b in range(n)],
        "lines": [{"i": b, "j": (b + 1) % n, "B": 1.0 + 0.2 * b} for b in range(n)],
        "base": {"f0": 50.0},
    })


@pytest.mark.parametrize("mode", dyn.MODES)
def test_batched_states_lead_with_the_rows(mode):
    # B = 5 is neither 3 nor n = 6, so a batch on another axis cannot pass:
    # Scenario.x0 puts (delta, omega, s) first, and column b of a batched
    # derivatives call is the single-scenario call on scenario b
    net = ring(6)
    rng = np.random.default_rng(5)
    costs = cm.random_power_costs(net.n, rng, r=4)
    params = ctl.transform_params(ctl.init_raw_params(net.n, 3, rng))
    fields = rng.uniform(-0.3, 0.3, (3, 5, net.n))
    p = rng.uniform(-0.3, 0.3, (5, net.n))
    x = Scenario(p=p, T=1.0, h=1e-3, mode=mode, initial=fields).x0
    assert x.shape == (3, 5, net.n) and x.flags.c_contiguous
    assert x.tobytes() == fields.tobytes()
    batch = dyn.derivatives(net, costs, params, x, p, mode)
    assert batch[0].shape == (3, 5, net.n)
    for b in range(5):
        one = dyn.derivatives(net, costs, params, x[:, b], p[b], mode)
        assert batch[0][:, b].tobytes() == one[0].tobytes()
        for got, want in zip(batch[1:], one[1:]):
            assert got[b].tobytes() == want.tobytes()


def test_euler_matches_hand_rolled_step():
    net = two_bus()
    costs = cm.quadratic_costs(np.ones(2))
    params = ctl.identity_params(n=2)
    p = np.array([-0.3, 0.0])
    h = 1e-3
    scen = Scenario(p=p, T=h, h=h)
    out = dyn.euler_step(net, costs, params, scen, scen.x0)
    delta, omega, s = out
    # by hand: flows(0) = 0, omega = 0, u = s = 0
    # ds = -2 pi f0 * omega - zeta * L_Q mc = 0 at the origin
    # domega_g = (p - alpha*omega - flow + u)/m
    two_pi_f0 = 2 * np.pi * net.f0
    assert np.allclose(delta, 0.0, atol=1e-15)
    assert omega[0] == pytest.approx(h * p[0] / net.m[0], abs=1e-15)
    assert np.allclose(s, 0.0, atol=1e-15)
    # one more step: now omega feeds the angle and integrator clocks
    scen2 = Scenario(p=p, T=2 * h, h=h)
    delta2, _, s2 = dyn.euler_step(net, costs, params, scen2, out,
                                   step_index=1)
    omega_bar = omega - omega.mean()
    assert np.allclose(delta2, h * two_pi_f0 * omega_bar, atol=1e-18)
    assert np.allclose(s2, -h * two_pi_f0 * omega, atol=1e-18)


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
    ll = net.loads
    for l in (0, 57, 200):
        flows = power_flows(net, traj.delta[l])
        assert np.allclose(net.alpha[ll] * traj.omega[l][ll],
                           -flows[ll] + scen.p[ll] + traj.u[l][ll], atol=1e-14)


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
    # a three-bus state for the two-bus disturbance is refused by the
    # Scenario; a three-bus disturbance with it, by simulate on two buses
    net = two_bus()
    with pytest.raises(DynamicsError, match=r"^initial state has shape \(3, 3\), "
                                            r"expected \(3, 2\)$"):
        Scenario(p=np.zeros(2), T=0.1, h=1e-3, initial=np.zeros((3, 3)))
    scen = Scenario(p=np.zeros(3), T=0.1, h=1e-3, initial=np.zeros((3, 3)))
    with pytest.raises(DynamicsError, match=r"^disturbance p has shape \(3,\), "
                                            r"expected \(2,\) for the 2-bus network$"):
        dyn.simulate(scen, net, cm.quadratic_costs(np.ones(2)),
                     ctl.identity_params(n=2))


@pytest.mark.parametrize("p_shape, bad", [
    ((3,), (3,)), ((3,), (3, 4)), ((3,), (2, 3)), ((3,), (3, 1, 3)),
    ((4, 3), (3, 3)), ((4, 3), (3, 3, 4)), ((4, 3), (3, 4, 2)), ((4, 3), (4, 3, 3)),
])
def test_scenario_refuses_a_wrong_shape_initial_state(p_shape, bad):
    # the initial state is (3,) + p.shape at one disturbance (n,) and at a
    # stack of them (B, n); any other shape is refused, naming both
    with pytest.raises(DynamicsError, match=re.escape(
            f"initial state has shape {bad}, expected {(3,) + p_shape}")):
        Scenario(p=np.zeros(p_shape), T=0.1, h=1e-3, initial=np.zeros(bad))
    scen = Scenario(p=np.zeros(p_shape), T=0.1, h=1e-3,
                    initial=np.zeros((3,) + p_shape))
    assert scen.x0.shape == (3,) + p_shape


@pytest.mark.parametrize("p", [np.zeros(5), np.zeros(2), np.zeros((1, 3))],
                         ids=["5", "2", "1x3"])
def test_simulate_names_a_wrong_length_disturbance(p):
    # a 5-entry p on three buses used to fail inside NumPy broadcasting
    net = three_bus()
    with pytest.raises(DynamicsError, match=re.escape(
            f"disturbance p has shape {p.shape}, expected (3,) for the 3-bus network")):
        dyn.simulate(Scenario(p=p, T=0.01, h=1e-3), net, quad3(),
                     ctl.identity_params(n=3))


def _no_derivatives(*args, **kwargs):
    raise AssertionError("derivatives evaluated")


@pytest.mark.parametrize("p, costs, message", [
    (np.zeros(5), quad3(), "disturbance p has shape (5,), expected (3,) for the 3-bus network"),
    (np.zeros((2, 3)), quad3(),
     "disturbance p has shape (2, 3), expected (3,) for the 3-bus network"),
    (np.zeros(3), None, "DAI modes need a cost model"),
], ids=["5", "2x3", "no-costs"])
def test_max_stable_step_names_a_bad_scenario(p, costs, message, monkeypatch):
    # each used to fail inside NumPy, or on costs.grad, mid-evaluation;
    # now it is refused as simulate refuses it, before the field is evaluated
    # (the step limit evaluates it through _assemble)
    monkeypatch.setattr(dyn, "derivatives", _no_derivatives)
    monkeypatch.setattr(dyn, "_assemble", _no_derivatives)
    with pytest.raises(DynamicsError, match=re.escape(message)):
        dyn.max_stable_step(three_bus(), costs, ctl.identity_params(n=3),
                            Scenario(p=p, T=0.01, h=1e-3))


@pytest.mark.parametrize("row, name", [(0, "delta"), (1, "omega"), (2, "s")])
def test_max_stable_step_names_a_non_finite_initial_state(row, name):
    # each used to end in a LinAlgError from the eigenvalue solver; from the
    # exact Jacobians a NaN omega or s would give a finite limit
    x0 = np.zeros((3, 3))
    x0[row, 1] = np.nan
    with pytest.raises(DynamicsError, match=f"^initial state: non-finite {name} at bus 2$"):
        dyn.max_stable_step(three_bus(), quad3(), ctl.identity_params(n=3),
                            Scenario(p=np.zeros(3), T=0.01, h=1e-3, initial=x0))


def test_a_dai_scenario_without_controllers_is_refused_by_name(monkeypatch):
    # both used to end in AttributeError on None._tables mid-evaluation
    monkeypatch.setattr(dyn, "derivatives", _no_derivatives)
    monkeypatch.setattr(dyn, "_assemble", _no_derivatives)
    scen = Scenario(p=np.array([-0.3, 0.1, 0.1]), T=0.01, h=1e-3)
    for run in (lambda: dyn.simulate(scen, three_bus(), quad3()),
                lambda: dyn.max_stable_step(three_bus(), quad3(), None, scen)):
        with pytest.raises(DynamicsError, match="DAI modes need controllers"):
            run()


@pytest.mark.parametrize("mode", dyn.MODES)
def test_simulate_leaves_the_callers_initial_state_alone(mode):
    # the angles are 1e-6 off the gauge, so gauge_initial rewrites them
    # before step 0; it does so in a copy, and the Scenario's x0 is fresh
    net = three_bus()
    initial = np.array([[0.1, -0.1 + 3e-6, 0.0], [0.01, -0.02, 0.03], [0.2, -0.1, 0.05]])
    kept = initial.copy()
    scen = Scenario(p=np.array([-0.3, 0.1, 0.1]), T=0.01, h=1e-3, mode=mode,
                    initial=initial)
    traj = dyn.simulate(scen, net, None if mode == "primary" else quad3(),
                        ctl.identity_params(n=3), stepper=dyn.rk4_step)
    assert abs(traj.delta[0].mean()) < 1e-15
    assert initial.tobytes() == kept.tobytes()
    scen.x0[0] = 7.0
    assert scen.x0.tobytes() == kept.tobytes()


@pytest.mark.parametrize("stepper", [dyn.euler_step, dyn.rk4_step], ids=["euler", "rk4"])
def test_simulate_gauges_the_initial_angles_before_step_0(stepper):
    # angles off the center-of-inertia gauge by 1e-2 are refused before any
    # step, naming the initial state; by 1e-6 they are projected, so row 0
    # is in the gauge of the rows after it
    net = three_bus()
    costs = cm.power_costs(4, np.array([0.9, 1.3, 0.7]))
    params = ctl.identity_params(n=3)
    p = np.array([-0.5, 0.2, 0.1])
    far = np.zeros((3, 3))
    far[0] = 1e-2
    with pytest.raises(DynamicsError, match="initial state: angle gauge drift"):
        dyn.simulate(Scenario(p=p, T=0.01, h=1e-3, initial=far), net, costs,
                     params, stepper=stepper)
    near = np.zeros((3, 3))
    near[0] = 1e-6
    traj = dyn.simulate(Scenario(p=p, T=0.01, h=1e-3, initial=near), net, costs,
                        params, stepper=stepper)
    assert traj.delta[0].mean() == 0.0
    assert np.all(np.abs(traj.delta.mean(axis=-1)) < 1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_simulate_names_a_non_finite_initial_state(bad):
    # refused before step 0, naming the entry: a non-finite integral state
    # would reach every entry within the first step
    net = three_bus()
    costs = cm.power_costs(4, np.array([0.9, 1.3, 0.7]))
    params = ctl.identity_params(n=3)
    for row, bus, where in ((2, 2, "s at bus 3"), (0, 1, "delta at bus 2")):
        fields = np.zeros((3, 3))
        fields[row, bus] = bad
        scen = Scenario(p=np.zeros(3), T=0.01, h=1e-3, initial=fields)
        with pytest.raises(DynamicsError, match=f"^initial state: non-finite {where}$"):
            dyn.simulate(scen, net, costs, params)


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


# --------------------------------------------------------------------------
# stacked-state stepping against a frozen copy of a per-row state loop
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Rows:
    """(delta, omega, s) as three separate arrays, the oracle loop's state."""

    delta: np.ndarray
    omega: np.ndarray
    s: np.ndarray


def _oracle_field(net, costs, controllers, state, p, mode):
    """The closed-loop right-hand side, one state component at a time."""
    p = np.asarray(p, dtype=float)
    flows = power_flows(net, state.delta)
    two_pi_f0 = 2.0 * np.pi * net.f0
    if mode == "primary":
        omega = state.omega
        u = ctl.eval_u(controllers, omega) if controllers is not None \
            else np.zeros(np.shape(omega))
        mc = costs.grad(u) if costs is not None else np.zeros_like(u)
        m = np.full(net.n, network.DEFAULT_LOAD_INERTIA)
        m[net.gens] = net.m
        ddelta = omega - omega.mean(axis=-1, keepdims=True)
        domega = (p - net.alpha * omega - u - flows) / m
        return ddelta, domega, np.zeros_like(omega), omega, u, mc
    u = ctl.eval_u(controllers, state.s)
    omega = state.omega.copy()
    i = net.loads
    omega[..., i] = (-flows[..., i] + p[..., i] + u[..., i]) / net.alpha[i]
    mc = costs.grad(u)
    ddelta = two_pi_f0 * (omega - omega.mean(axis=-1, keepdims=True))
    domega = np.zeros_like(omega)
    g = net.gens
    domega[..., g] = (-net.alpha[g] * omega[..., g] - flows[..., g]
                      + p[..., g] + u[..., g]) / net.m
    ds = -two_pi_f0 * omega - costs.zeta * comm_laplacian_apply(net, mc)
    return ddelta, domega, ds, omega, u, mc


def _oracle_simulate(scen, net, costs, controllers, rk4):
    """(delta, omega, s, u, mc) rows of the per-row Euler/RK4 loop."""
    h = scen.h

    def f(st):
        return _oracle_field(net, costs, controllers, st, scen.p, scen.mode)

    state = _Rows(*(np.zeros((3, net.n)) if scen.initial is None else scen.initial))
    rows = []
    for l in range(scen.steps + 1):
        k1 = f(state)
        rows.append((state.delta, k1[3], state.s, k1[4], k1[5]))
        if l == scen.steps:
            break
        if rk4:
            def advance(k, fac):
                return _Rows(state.delta + fac * k[0], k1[3] + fac * k[1],
                             state.s + fac * k[2])
            k2 = f(advance(k1, 0.5 * h))
            k3 = f(advance(k2, 0.5 * h))
            k4 = f(advance(k3, h))
            inc = [(h / 6.0) * (k1[j] + 2 * k2[j] + 2 * k3[j] + k4[j])
                   for j in range(3)]
        else:
            inc = [h * k1[j] for j in range(3)]
        state = _Rows(project_gauge(state.delta + inc[0]),
                      k1[3] + inc[1], state.s + inc[2])
    return [np.array(col) for col in zip(*rows)]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def case39():
    return network.network_from_dict(json.loads(
        (resources.files("gridfreq") / "data" / "case39.json").read_text()))


def _case39_setup(seed=4):
    net = case39()
    rng = np.random.default_rng(seed)
    costs = cm.random_power_costs(net.n, rng, r=4)
    params = ctl.transform_params(ctl.init_raw_params(net.n, 20, rng))
    p = np.zeros(net.n)
    p[rng.choice(net.n, 3, replace=False)] = -3.0
    return net, costs, params, p


def _saturated_three_bus():
    net = three_bus()
    costs = cm.power_costs(4, np.array([0.8, 1.1, 0.9]))
    rng = np.random.default_rng(2)
    params = ctl.transform_params(ctl.init_raw_params(3, 3, rng),
                                  u_lo=-0.25, u_hi=0.25, dz=0.02)
    return net, costs, params, np.array([-0.6, -0.3, 0.1])


def _stepping_cases():
    net, costs, params, p = _case39_setup()
    for rk4 in (False, True):
        yield (f"case39-dai-{'rk4' if rk4 else 'euler'}",
               Scenario(p=p, T=0.02, h=5e-4), net, costs, params, rk4)
    yield ("case39-primary", Scenario(p=p, T=0.02, h=5e-4, mode="primary"),
           net, None, params, True)
    yield ("three-bus-primary-euler",
           Scenario(p=np.array([-0.5, -0.2, 0.1]), T=0.2, h=1e-3,
                    mode="primary"), three_bus(), None,
           ctl.identity_params(3), False)
    net, costs, params, p = _saturated_three_bus()
    yield ("three-bus-saturation-deadband", Scenario(p=p, T=1.5, h=2e-3),
           net, costs, params, True)
    rng = np.random.default_rng(8)
    delta0 = rng.uniform(-0.1, 0.1, 3)
    initial = np.stack((delta0 - delta0.mean(), rng.uniform(-0.01, 0.01, 3),
                        rng.uniform(-0.5, 0.5, 3)))
    yield ("three-bus-initial", Scenario(p=p, T=0.3, h=2e-3, initial=initial),
           net, costs, params, True)


@pytest.mark.parametrize("case", list(_stepping_cases()), ids=lambda c: c[0])
def test_stacked_stepping_replays_the_state_loop_bit_for_bit(case):
    _, scen, net, costs, params, rk4 = case
    stepper = dyn.rk4_step if rk4 else dyn.euler_step
    traj = dyn.simulate(scen, net, costs, params, stepper=stepper)
    delta, omega, s, u, mc = _oracle_simulate(scen, net, costs, params, rk4)
    assert same_bits(traj.t, np.arange(scen.steps + 1) * scen.h)
    for name, ref in (("delta", delta), ("omega", omega), ("s", s), ("u", u),
                      ("mc", mc)):
        assert same_bits(getattr(traj, name), ref), name


def test_saturation_case_crosses_the_deadband_and_the_bounds():
    # the oracle case above must exercise both nonsmooth features
    net, costs, params, p = _saturated_three_bus()
    traj = dyn.simulate(Scenario(p=p, T=1.5, h=2e-3), net, costs, params,
                        stepper=dyn.rk4_step)
    assert np.any(np.abs(traj.u) == 0.25)
    inside = (traj.s != 0.0) & (np.abs(traj.s) < 0.02)
    assert np.any(inside) and np.all(traj.u[inside] == 0.0)


def test_blow_up_check_catches_nan_and_inf():
    net = two_bus()
    costs = cm.quadratic_costs(np.ones(2))
    params = ctl.identity_params(n=2)
    scen = Scenario(p=np.zeros(2), T=1e-3, h=1e-3)
    # a non-finite s spreads to every entry within the step, so the error
    # names the first non-finite entry; a finite one, the largest
    for bad, bus, where in ((np.nan, 0, "delta at bus 1"), (np.inf, 0, "delta at bus 1"),
                            (2e9, 0, "s at bus 1"), (2e9, 1, "s at bus 2")):
        x = np.zeros((3, 2))
        x[2, bus] = bad
        with pytest.raises(DynamicsError, match=f"integration blow-up at step 7 in {where}$"), \
                np.errstate(invalid="ignore"):
            dyn.rk4_step(net, costs, params, scen, x, step_index=7)


# --------------------------------------------------------------------------
# step-size guard
# --------------------------------------------------------------------------

def test_stability_limits_sit_at_the_edge_of_stability():
    # on the 39-bus case the fastest mode is a stiff real one, where the
    # Euler and RK4 limits are 2/|lam| and 2.785/|lam|
    net, costs, params, p = _case39_setup()
    scen = Scenario(p=p, T=1.0, h=5e-4)
    euler = dyn.max_stable_step(net, costs, params, scen, "euler")
    rk4 = dyn.max_stable_step(net, costs, params, scen, "rk4")
    assert 1.38 < rk4 / euler < 1.40
    # beyond the limit the stiff mode grows until the flow nonlinearity
    # holds it in a spurious oscillation of several pu, with no blow-up
    for stepper, limit in ((dyn.euler_step, euler), (dyn.rk4_step, rk4)):
        ok = dyn.simulate(Scenario(p=p, T=300 * limit, h=0.98 * limit), net,
                          costs, params, stepper=stepper)
        bad = dyn.simulate(Scenario(p=p, T=300 * limit, h=1.05 * limit), net,
                           costs, params, stepper=stepper)
        assert np.max(np.abs(ok.omega)) < 0.05 < 1.0 < np.max(np.abs(bad.omega))


def _guarded_runs():
    """(name, net, costs, params, scenario, method) for the step sizes the
    acceptance tests and the benchmark integrate with; the CLI tests run
    the guard themselves."""
    net, costs, params, p = _case39_setup(0)
    yield "case39 rk4 5e-4", net, costs, params, Scenario(p=p, T=1.0, h=5e-4), "rk4"
    yield "case39 euler 5e-4", net, costs, params, Scenario(p=p, T=1.0, h=5e-4), "euler"
    yield ("case39 identity rk4 5e-4", net, costs, ctl.identity_params(net.n),
           Scenario(p=p, T=1.0, h=5e-4), "rk4")
    yield ("3-bus restoration rk4 2e-3", three_bus(), quad3(),
           ctl.identity_params(3), Scenario(p=np.array([-1.5, -0.5, 0.0]),
                                            T=40.0, h=2e-3), "rk4")
    yield ("9-bus restoration rk4 2e-3", nine_bus(),
           cm.quadratic_costs(np.random.default_rng(5).uniform(0.5, 2.0, 9)),
           ctl.identity_params(9), Scenario(p=np.r_[-0.8, -0.4, 0.2, np.zeros(6)],
                                            T=40.0, h=2e-3), "rk4")
    yield ("3-bus primary rk4 2e-3", three_bus_gens(), None, None,
           Scenario(p=np.array([-0.6, -0.3, 0.2]), T=40.0, h=2e-3,
                    mode="primary"), "rk4")
    yield ("3-bus certify rk4 2e-3", three_bus(), quad3(), ctl.identity_params(3),
           Scenario(p=np.array([-0.3, -0.15, 0.0]), T=5.0, h=2e-3), "rk4")


@pytest.mark.parametrize("run", list(_guarded_runs()), ids=lambda r: r[0])
def test_step_guard_accepts_the_step_sizes_in_use(run):
    _, net, costs, params, scen, method = run
    assert scen.h <= dyn.max_stable_step(net, costs, params, scen, method)


def test_step_guard_rejects_the_case39_rk4_run_at_2ms():
    net = case39()
    p = np.zeros(net.n)
    for bus in (13, 21, 27):
        p[net.index_of(bus)] = -3.0
    costs = cm.random_power_costs(net.n, np.random.default_rng(0), r=4)
    limit = dyn.max_stable_step(net, costs, ctl.identity_params(net.n),
                                Scenario(p=p, T=5.0, h=2e-3), "rk4")
    assert 5e-4 < limit < 2e-3


# stability functions of the steppers, written out: R(h lam) multiplies a mode
STABILITY = {"euler": lambda z: 1 + z,
             "rk4": lambda z: 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24}


def _difference_jacobians(net, costs, params, x0, p, mode="dai_general", eps=1e-7):
    """Right, central and left differences of `derivatives` at the (3, n)
    state x0, each coordinate of the flat (3n) state moved by eps (the
    steps as rounded), as (3n, 3n) Jacobians."""
    N, flat = x0.size, x0.ravel()
    x = flat + np.concatenate([np.eye(N), -np.eye(N)]) * eps
    up_step, down_step = (flat + eps) - flat, flat - (flat - eps)
    k = dyn.derivatives(net, costs, params, x.reshape(2 * N, 3, net.n).swapaxes(0, 1),
                        p, mode)[0]
    up, down = np.split(k.swapaxes(0, 1).reshape(2 * N, N), 2)
    mid = dyn.derivatives(net, costs, params, x0, p, mode)[0].ravel()
    return (((up - mid) / up_step[:, None]).T,
            ((up - down) / (up_step + down_step)[:, None]).T,
            ((mid - down) / down_step[:, None]).T)


def _modes_at(net, costs, params, x0, p):
    """Eigenvalues with a negative real part of the DAI loop linearized at
    the state x0 by central differences, and their left eigenvectors as
    rows."""
    lam, right = np.linalg.eig(_difference_jacobians(net, costs, params, x0, p)[1])
    keep = lam.real < -1e-9 * np.abs(lam).max()
    return lam[keep], np.linalg.inv(right)[keep]


# central differences at step 1e-7 carry roundoff of about 1e-9 of max|J|
# (1.3e-9 at worst over 300 random draws); at the origin, where the field
# vanishes and bends only at the kink, the one-sided ones carry about 1e-15
JACOBIAN_RTOL = 1e-7


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6), st.integers(2, 8), st.sampled_from(dyn.MODES))
def test_exact_jacobians_equal_differences_of_the_field(net_seed, buses, mode):
    # the step limit's one-sided Jacobians, with kinked policies, saturation
    # bounds and a deadband: at a state away from every kink both equal the
    # central differences; at the origin kink (from rest, no deadband) the
    # right and left ones equal the right and left differences
    net = random_connected_net(net_seed, buses=buses)
    rng = np.random.default_rng(net_seed)
    costs = cm.random_power_costs(net.n, rng, r=4)
    raw = ctl.init_raw_params(net.n, 3, rng)
    free = ctl.transform_params(raw)
    dz = rng.uniform(0.0, 0.1, net.n)
    edges = rng.uniform(0.3, 0.8, (2, net.n)) * np.array([[-1.0], [1.0]])
    u_lo, u_hi = ctl.eval_u(free, edges)        # saturated beyond the edges
    x0 = np.stack([rng.uniform(-0.3, 0.3, net.n), rng.uniform(-1.0, 1.0, net.n),
                   rng.uniform(-1.0, 1.0, net.n)])
    x0[0] -= x0[0].mean()
    p = rng.uniform(-0.3, 0.3, net.n)
    # kinks of u in its input: the deadband edges, and the breakpoints and
    # saturation edges of the unshifted policy moved out by dz
    bends = np.concatenate([free.b_plus, free.b_minus, edges.T], axis=1)
    kinks = np.concatenate([bends + np.sign(bends) * dz[:, None],
                            np.stack([dz, -dz], axis=1)], axis=1)
    inputs = x0[1 if mode == "primary" else 2]
    assume(np.abs(inputs[:, None] - kinks).min() > 1e-5)
    assume(np.abs(bends[bends != 0.0]).min() > 1e-5)

    params = ctl.transform_params(raw, u_lo, u_hi, dz)
    scen = Scenario(p=p, T=1.0, h=1e-3, mode=mode, initial=x0)
    right, left = dyn._jacobians(net, costs, params, scen)
    central = _difference_jacobians(net, costs, params, x0, p, mode)[1]
    assert np.array_equal(right, left)
    assert np.abs(right - central).max() <= JACOBIAN_RTOL * np.abs(right).max()

    params = ctl.transform_params(raw, u_lo, u_hi)
    scen = Scenario(p=np.zeros(net.n), T=1.0, h=1e-3, mode=mode)
    exact = list(dyn._jacobians(net, costs, params, scen))
    diffs = _difference_jacobians(net, costs, params, scen.x0, scen.p, mode)[::2]
    for J, fd in zip(exact, diffs):
        assert np.abs(J - fd).max() <= JACOBIAN_RTOL * np.abs(J).max()


@settings(max_examples=60)
@given(st.sampled_from(["linear", "kinked"]), st.integers(0, 10 ** 6),
       st.integers(2, 10), st.sampled_from(["euler", "rk4"]))
def test_step_limit_is_the_edge_of_stability_on_random_networks(policy, net_seed,
                                                                 buses, method):
    # near an equilibrium inside one linear piece of the policies, each step
    # multiplies a mode's amplitude by R(h lam): at 0.98 of the limit no mode
    # grows, and at 1.05 the limiting one grows by |R|^steps >= 1e3.  With
    # p = 0 the origin is such an equilibrium for linear policies.  Kinked
    # (init_raw_params) policies bend at the origin, where the loop switches
    # between the two one-sided linearizations and no one set of modes
    # describes it; they run about (0, 0, s*) with s* past every breakpoint
    # (at most 0.18 here), balanced by p = -u(s*) and by costs c = 1 / u(s*),
    # under which every marginal cost is 1.  A limit set by a weakly damped
    # mode grows too slowly to see (|R| < 1.01); those draws are counted as a
    # Hypothesis event (`--hypothesis-show-statistics`) and not checked
    net = random_connected_net(net_seed, buses=buses)
    rng = np.random.default_rng(net_seed)
    eq, p, size = np.zeros((3, net.n)), np.zeros(net.n), 1e-6
    if policy == "linear":
        costs = cm.quadratic_costs(rng.uniform(0.5, 2.0, net.n))
        params = ctl.scaled_identity_params(rng.uniform(0.5, 2.0, net.n))
    else:
        params = ctl.transform_params(ctl.init_raw_params(net.n, 3, rng))
        eq[2] = rng.uniform(0.25, 1.0, net.n)
        p = -ctl.eval_u(params, eq[2])
        costs = cm.quadratic_costs(-1.0 / p)
        size = 1e-5      # above the roundoff of the s* offsets
    x0 = eq + rng.uniform(-size, size, (3, net.n))
    x0[0] -= x0[0].mean()
    scen = Scenario(p=p, T=1.0, h=1e-3, initial=x0)
    limit = dyn.max_stable_step(net, costs, params, scen, method)
    lam, left = _modes_at(net, costs, params, eq, p)
    growth = np.abs(STABILITY[method](1.05 * limit * lam))
    worst = np.argmax(growth)
    if growth[worst] < 1.01:
        event(f"{policy}: skipped, |R(1.05 h lam)| < 1.01")
        return
    event(f"{policy}: checked")
    steps = int(np.ceil(np.log(1e3) / np.log(growth[worst])))
    for factor in (0.98, 1.05):
        h = factor * limit
        traj = dyn.simulate(Scenario(p=scen.p, T=steps * h, h=h, initial=scen.initial),
                            net, costs, params, stepper=dyn.STEPPERS[method])
        x = np.concatenate([traj.delta, traj.omega, traj.s], axis=1) - eq.ravel()
        amp = np.abs(x @ left.T)          # (steps + 1, modes)
        if factor < 1:
            assert np.all(amp <= amp[0] * (1 + 1e-6) + 1e-9 * amp[0].max())
        else:
            assert amp[-1, worst] >= 0.99e3 * amp[0, worst]


# --------------------------------------------------------------------------
# CSV I/O against frozen copies of the csv-module writer and reader
# --------------------------------------------------------------------------

def _oracle_write_csv(traj, path):
    n = traj.n
    header = (["t"] + [f"omega_{i}" for i in range(1, n + 1)]
              + [f"s_{i}" for i in range(1, n + 1)]
              + [f"u_{i}" for i in range(1, n + 1)]
              + [f"mc_{i}" for i in range(1, n + 1)] + ["W"])
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


def _oracle_read_rows(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(x) if x != "" else np.nan for x in row]
                     for row in rows[1:]])


SPECIAL = np.array([-0.0, 5e-324, 1.7976931348623157e308, np.nan, np.inf,
                    -np.inf, -5e-324, 2.2250738585072014e-308, 0.1, -1e22])


def _odd_trajectory(rows, n, with_w, seed=0):
    rng = np.random.default_rng(seed)
    cols = [rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-12, 12, (rows, n))
            for _ in range(4)]
    for c in cols:
        c.flat[:SPECIAL.size] = SPECIAL
    W = None
    if with_w:
        W = np.abs(rng.standard_normal(rows))
        W[:3] = [-0.0, np.nan, 5e-324]
    return dyn.Trajectory(mode="dai_general", t=np.arange(rows) * 5e-4,
                          delta=cols[0], omega=cols[0], s=cols[1], u=cols[2],
                          mc=cols[3], W=W)


@pytest.mark.parametrize("with_w", [False, True])
@pytest.mark.parametrize("rows, n, block", [(40, 3, 2048), (301, 39, 64),
                                            (7, 2, 3), (5, 2, 0)])
def test_write_csv_matches_the_csv_module_bytes(tmp_path, monkeypatch, with_w,
                                                rows, n, block):
    # a budget of `block` values per column writes `block` rows at a time:
    # one block, many, a short last block of 3-row blocks, and, below one
    # row's width, a row at a time
    monkeypatch.setattr(dyn, "CSV_BLOCK_VALUES", block * len(dyn.csv_header(n)))
    traj = _odd_trajectory(rows, n, with_w)
    dyn.write_csv(traj, tmp_path / "new.csv")
    _oracle_write_csv(traj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("with_w", [False, True])
def test_read_csv_returns_the_written_bits(tmp_path, with_w):
    traj = _odd_trajectory(120, 5, with_w, seed=3)
    path = tmp_path / "traj.csv"
    dyn.write_csv(traj, path)
    back = dyn.read_csv(path)
    old = _oracle_read_rows(path)
    for name, j in (("t", slice(0, 1)), ("omega", slice(1, 6)), ("s", slice(6, 11)),
                    ("u", slice(11, 16)), ("mc", slice(16, 21))):
        got = getattr(back, name)
        assert same_bits(got, getattr(traj, name)), name
        assert same_bits(got, old[:, j].reshape(got.shape)), name
    if with_w:
        assert same_bits(back.W, traj.W)
    else:
        assert back.W is None


@pytest.mark.parametrize("with_w", [False, True])
@pytest.mark.parametrize("n", [2, 5, 39])
def test_read_csv_columns_returns_read_csvs_bits(tmp_path, with_w, n):
    traj = _odd_trajectory(30, n, with_w, seed=n)
    path = tmp_path / "traj.csv"
    dyn.write_csv(traj, path)
    full = dyn.read_csv(path)
    W = np.full(30, np.nan) if full.W is None else full.W
    want = {"W": W}
    for name in ("omega", "s", "u", "mc"):
        want.update({f"{name}_{i + 1}": col for i, col in enumerate(getattr(full, name).T)})
    for keep in (lambda name: True, lambda name: name.startswith("omega_"),
                 lambda name: name in ("u_2", "mc_1", "W"), lambda name: False):
        t, cols = dyn.read_csv_columns(path, keep)
        assert same_bits(t, full.t)
        assert list(cols) == [name for name in dyn.csv_header(n)[1:] if keep(name)]
        for name, values in cols.items():
            assert same_bits(values, want[name]), name


@pytest.mark.parametrize("header, column", [
    (",".join(dyn.csv_header(5)[:-1]), "header column 6 is 'omega_5', expected 's_1'"),
    (",".join(dyn.csv_header(5)).replace("s_3", "x_3"),
     "header column 9 is 'x_3', expected 's_3'"),
    ("t,omega_1,x", "header column 2 is 'omega_1', expected 'W'"),
])
def test_csv_readers_name_the_first_wrong_header_column(tmp_path, header, column):
    path = tmp_path / "bad.csv"
    dyn.write_csv(_odd_trajectory(4, 5, True), path)
    body = path.read_text().split("\n", 1)[1]
    path.write_text(header + "\n" + body)
    for read in (dyn.read_csv, lambda p: dyn.read_csv_columns(p, lambda name: True)):
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value) == f"{path}: {column}"


@pytest.mark.parametrize("ragged, line, fields", [("cut", 7, 8), ("grown", 4, 23)])
def test_csv_readers_name_a_ragged_row(tmp_path, ragged, line, fields):
    # a write stopped mid-row after the last omega column, or a row with one
    # field too many: loadtxt with usecols alone would read either
    path = tmp_path / "ragged.csv"
    dyn.write_csv(_odd_trajectory(6, 5, True), path)
    lines = path.read_bytes().split(b"\r\n")       # header, 6 rows, b""
    if ragged == "cut":
        row = lines[6].split(b",")
        lines[6:] = [b",".join(row[:7]) + b"," + row[7][:3]]
    else:
        lines[3] += b",1.0"
    path.write_bytes(b"\r\n".join(lines))
    for read in (dyn.read_csv,
                 lambda p: dyn.read_csv_columns(p, lambda name: name.startswith("omega_"))):
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value) == f"{path}: line {line} has {fields} fields, expected 22"


def test_write_csv_traced_peak_stays_flat_in_the_row_count(tmp_path):
    # the writer formats CSV_BLOCK_VALUES values at a time, so its floats
    # and strings take the same room at 300 and at 3,000 rows
    peaks = []
    for rows in (300, 3000):
        traj = _odd_trajectory(rows, 39, True, seed=rows)
        tracemalloc.start()
        try:
            dyn.write_csv(traj, tmp_path / "traj.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1 << 20, peaks
    assert peaks[1] <= 1.1 * peaks[0], peaks


def random_loop(net_seed, buses, method="euler", steps=100):
    """A random network's closed loop under a small disturbance, and a
    scenario of `steps` steps at half of `method`'s stable step (1 ms at
    most)."""
    net = random_connected_net(net_seed, buses=buses)
    rng = np.random.default_rng(net_seed)
    costs = cm.random_power_costs(net.n, rng, r=4)
    params = ctl.transform_params(ctl.init_raw_params(net.n, 3, rng))
    p = rng.uniform(-0.3, 0.3, net.n)
    limit = dyn.max_stable_step(net, costs, params, Scenario(p=p, T=1.0, h=1e-3),
                                method)
    h = min(1e-3, 0.5 * limit)
    return net, costs, params, Scenario(p=p, T=steps * h, h=h)


def bits(record):
    """Every field of a result dataclass as bytes (arrays) or repr."""
    return {f: v.tobytes() if isinstance(v, np.ndarray) else repr(v)
            for f, v in vars(record).items()}


@settings(max_examples=20)
@given(st.integers(0, 10 ** 6), st.integers(2, 10), st.sampled_from(["euler", "rk4"]))
def test_simulate_reruns_bit_identical_on_random_networks(net_seed, buses, method):
    net, costs, params, scen = random_loop(net_seed, buses, method)
    first, again = (dyn.simulate(scen, net, costs, params,
                                 stepper=dyn.STEPPERS[method]) for _ in range(2))
    assert bits(first) == bits(again)
