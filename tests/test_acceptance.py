"""Acceptance suite: ten end-to-end guarantees at fixed tolerances.

Each test prints one `[criterion N] PASS/FAIL` line (bypassing output
capture, so the verdicts are always visible in the terminal) and then
asserts the same conditions so pytest records the result.  The expensive
restoration trajectories are shared between criteria 2 and 4 through a
module-scoped fixture.

Criteria:
 1. optimal steady state is exact: equal marginal prices, exact balance,
    bisection agrees with the closed form
 2. integral control restores frequency and equalizes marginal costs on
    3-bus and 9-bus systems
 3. the uncontrolled all-machine system settles at the analytic
    synchronous frequency
 4. the energy function certifies decrease along criterion-2 trajectories,
    analytic decrease rates match finite differences, and a deliberately
    non-monotone controller fails certification
 5. the consensus cross term is nonnegative for random monotone
    controllers and exactly zero under equalized marginal costs
 6. analytic training gradients match central finite differences
 7. training strictly reduces the loss, keeps the monotonicity constraints
    at every epoch, and yields a certifiable controller
 8. the all-machine energy certificate: positive-definite quadratic form,
    decay rate c with dV/dt <= -cV across sampled states
 9. the parameterization is monotone through the origin for random draws,
    and its approximation error shrinks with width
10. 39-bus end to end: short training yields controllers that restore
    frequency and near-equalize marginal costs after a 3 pu loss of
    generation at three buses
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

from gridfreq import controller, dynamics, lyapunov, network, training
from gridfreq import costs as costs_mod
from gridfreq import equilibrium as eq_mod

from conftest import (bisection_gamma, finite_difference_gradients, nine_bus,
                      three_bus, three_bus_gens)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------------------------
# shared expensive trajectories (criteria 2 and 4)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def restoration_cases():
    """Closed-loop 40 s runs on the 3-bus and 9-bus systems."""
    t0 = time.perf_counter()
    cases = {}

    net3 = three_bus()
    costs3 = costs_mod.quadratic_costs(np.array([1.0, 2.0, 1.5]))
    p3 = np.array([-1.5, -0.5, 0.0])
    par3 = controller.identity_params(3)
    eq3 = eq_mod.solve_equilibrium(net3, costs3, par3, p3)
    traj3 = dynamics.simulate(dynamics.Scenario(p=p3, T=40.0, h=2e-3),
                              net3, costs3, par3, stepper=dynamics.rk4_step)
    cases["3-bus"] = (net3, costs3, par3, p3, eq3, traj3)

    net9 = nine_bus()
    costs9 = costs_mod.quadratic_costs(
        np.random.default_rng(5).uniform(0.5, 2.0, 9))
    p9 = np.zeros(9)
    p9[:3] = [-0.8, -0.4, 0.2]
    par9 = controller.identity_params(9)
    eq9 = eq_mod.solve_equilibrium(net9, costs9, par9, p9)
    traj9 = dynamics.simulate(dynamics.Scenario(p=p9, T=40.0, h=2e-3),
                              net9, costs9, par9, stepper=dynamics.rk4_step)
    cases["9-bus"] = (net9, costs9, par9, p9, eq9, traj9)

    return cases, time.perf_counter() - t0


# --------------------------------------------------------------------------
# criterion 1: equilibrium exactness
# --------------------------------------------------------------------------

def test_criterion_01_equilibrium_exactness(capsys):
    t0 = time.perf_counter()
    costs = costs_mod.power_costs(4, np.array([1.0, 8.0, 1.0]))
    p = np.array([-1.0, -0.5, -0.5])

    gamma = eq_mod.solve_gamma(costs, p)
    u_star = costs.grad_inverse(gamma)
    price_err = float(np.max(np.abs(costs.grad(u_star) - gamma)))
    balance_err = abs(float(np.sum(u_star)) - 2.0)
    gamma_bis = bisection_gamma(costs, p)
    bisect_err = abs(gamma_bis - gamma)
    elapsed = time.perf_counter() - t0

    ok = (price_err < 1e-8 and balance_err < 1e-10 and bisect_err < 1e-10
          and elapsed < 1.0)
    report(capsys, 1, ok,
           f"price err {price_err:.1e} (<1e-8), balance err {balance_err:.1e} "
           f"(<1e-10), bisection err {bisect_err:.1e} (<1e-10), "
           f"{elapsed:.2f}s (<1s)")
    # closed form for this instance: gamma = (2 / 2.5)^3 = 0.512
    assert gamma == pytest.approx(0.512, abs=1e-12)
    assert np.allclose(u_star, [0.8, 0.4, 0.8], atol=1e-12)
    assert price_err < 1e-8
    assert balance_err < 1e-10
    assert bisect_err < 1e-10
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# criterion 2: frequency restoration and marginal-cost equalization
# --------------------------------------------------------------------------

def test_criterion_02_frequency_restoration(restoration_cases, capsys):
    cases, elapsed = restoration_cases
    worst_omega = 0.0
    worst_spread = 0.0
    for name, (net, costs, par, p, eq, traj) in cases.items():
        worst_omega = max(worst_omega, float(np.max(np.abs(traj.omega[-1]))))
        mc = traj.mc[-1]
        worst_spread = max(worst_spread, float(mc.max() - mc.min()))

    ok = worst_omega < 1e-4 and worst_spread < 1e-3 and elapsed < 30.0
    report(capsys, 2, ok,
           f"max|omega| {worst_omega:.1e} (<1e-4), mc spread "
           f"{worst_spread:.1e} (<1e-3), {elapsed:.1f}s (<30s)")
    assert worst_omega < 1e-4
    assert worst_spread < 1e-3
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# criterion 3: open-loop synchronous frequency
# --------------------------------------------------------------------------

def test_criterion_03_synchronous_frequency(capsys):
    t0 = time.perf_counter()
    net = three_bus_gens()
    p = np.array([-0.6, -0.3, 0.2])
    omega_syn = eq_mod.synchronous_frequency(net, p)
    assert omega_syn == pytest.approx(np.sum(p) / np.sum(net.alpha),
                                      abs=1e-15)
    traj = dynamics.simulate(
        dynamics.Scenario(p=p, T=40.0, h=2e-3, mode="primary"),
        net, stepper=dynamics.rk4_step)
    err = float(np.max(np.abs(traj.omega[-1] - omega_syn)))
    elapsed = time.perf_counter() - t0

    ok = err < 1e-5 and elapsed < 10.0
    report(capsys, 3, ok,
           f"|omega - sum(p)/sum(alpha)| {err:.1e} (<1e-5), "
           f"{elapsed:.1f}s (<10s)")
    assert err < 1e-5
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# criterion 4: energy decrease certification + negative control
# --------------------------------------------------------------------------

def test_criterion_04_energy_certification(restoration_cases, capsys):
    cases, _ = restoration_cases
    # the certificate's fixed per-step decrease slack: 1e-9 + 0.05 h |Wdot|
    assert (lyapunov.DECREASE_TOL_ABS, lyapunov.DECREASE_TOL_REL) == (1e-9, 0.05)

    reports = {}
    for name, (net, costs, par, p, eq, traj) in cases.items():
        reports[name] = lyapunov.certify_trajectory(traj, net, costs, par, eq)

    # analytic decrease rate vs centered differences at a 0.1 ms step
    fd_err = 0.0
    for name, (net, costs, par, p, eq, traj) in cases.items():
        short = dynamics.simulate(dynamics.Scenario(p=p, T=2.0, h=1e-4),
                                  net, costs, par,
                                  stepper=dynamics.rk4_step)
        rep = lyapunov.certify_trajectory(short, net, costs, par, eq,
                                          fd_rtol=1e-3)
        reports[name + "-fd"] = rep
        fd_err = max(fd_err, rep.fd_rel_err_max)

    all_passed = all(r.passed for r in reports.values())
    positivity = min(r.positivity_min for r in reports.values())

    # negative control: non-monotone slopes must break the certificate
    net, costs, _, _, _, _ = cases["3-bus"]
    bad = controller.NetParams(
        k_plus=np.tile([3.0, -5.0], (3, 1)),
        b_plus=np.tile([0.0, 0.3], (3, 1)),
        k_minus=np.tile([-3.0, 5.0], (3, 1)),
        b_minus=np.tile([0.0, -0.3], (3, 1)))
    assert not controller.validate_params(bad, warn=False)
    p_bad = np.array([-0.5, -0.3, -0.1])
    gamma = eq_mod.solve_gamma(costs, p_bad)
    u_star = costs.grad_inverse(gamma)
    delta_star = eq_mod.newton_power_flow(net, p_bad + u_star)
    eq_bad = eq_mod.Equilibrium(gamma=gamma, u_star=u_star,
                                delta_star=delta_star, s_star=u_star / 3.0,
                                omega_star=0.0)
    start = np.stack((delta_star, np.zeros(3), np.full(3, 1.0)))
    traj_bad = dynamics.simulate(
        dynamics.Scenario(p=p_bad, T=0.05, h=1e-3, initial=start),
        net, costs, bad, stepper=dynamics.rk4_step)
    rep_bad = lyapunov.certify_trajectory(traj_bad, net, costs, bad, eq_bad)

    ok = (all_passed and positivity > 0.0 and fd_err < 1e-3
          and not rep_bad.passed and "positivity" in rep_bad.failures)
    report(capsys, 4, ok,
           f"certified {sum(r.passed for r in reports.values())}/4 runs, "
           f"min W {positivity:.1e} (>0), FD rel err {fd_err:.1e} (<1e-3), "
           f"negative control failed as required: "
           f"{not rep_bad.passed and 'positivity' in rep_bad.failures}")
    assert all_passed
    assert positivity > 0.0
    assert fd_err < 1e-3
    assert not rep_bad.passed
    assert "positivity" in rep_bad.failures
    assert rep_bad.positivity_min < 0.0


# --------------------------------------------------------------------------
# criterion 5: consensus cross-term sign
# --------------------------------------------------------------------------

def test_criterion_05_cross_term_sign(capsys):
    net = three_bus()
    worst = np.inf
    for k in range(1000):
        rng = np.random.default_rng(k)
        params = controller.transform_params(
            controller.init_raw_params(3, 4, rng))
        costs = costs_mod.random_power_costs(3, rng, r=(2, 4, 6)[k % 3])
        s = rng.uniform(-2.0, 2.0, 3)
        value, _ = lyapunov.cross_term(net, costs, params, s)
        worst = min(worst, float(value))

    # equalized marginal costs by construction: identical controllers,
    # identical quadratic costs, identical states -> the consensus term
    # vanishes identically
    par = controller.identity_params(3)
    costs_eq = costs_mod.quadratic_costs(np.ones(3))
    value, flagged = lyapunov.cross_term(net, costs_eq, par, np.full(3, 0.7))
    equalized = float(value)

    ok = worst >= -1e-12 and equalized == 0.0 and bool(flagged)
    report(capsys, 5, ok,
           f"min cross term over 1000 draws {worst:.2e} (>=-1e-12), "
           f"equalized case {equalized!r} (== 0.0, detected: {bool(flagged)})")
    assert worst >= -1e-12
    assert equalized == 0.0
    assert bool(flagged)


# --------------------------------------------------------------------------
# criterion 6: gradient audit on tiny instances
# --------------------------------------------------------------------------

def _tiny_audit_instance(seed):
    rng = np.random.default_rng(seed)
    recs = [{"id": 1, "kind": "gen", "m": float(rng.uniform(2.0, 6.0)),
             "alpha": float(rng.uniform(0.5, 2.0)), "v": 1.0}]
    if rng.uniform() < 0.5:
        recs.append({"id": 2, "kind": "gen",
                     "m": float(rng.uniform(2.0, 6.0)),
                     "alpha": float(rng.uniform(0.5, 2.0)), "v": 1.0})
    else:
        recs.append({"id": 2, "kind": "load",
                     "alpha": float(rng.uniform(0.5, 2.0)), "v": 1.0})
    net = network.network_from_dict({
        "buses": recs,
        "lines": [{"i": 1, "j": 2, "B": float(rng.uniform(0.5, 2.0))}],
        "base": {"f0": 50.0}})
    costs = costs_mod.random_power_costs(2, rng, r=4)
    raw = controller.init_raw_params(2, 2, rng)
    steps = int(rng.integers(3, 11))
    cfg = training.TrainConfig(d=2, h=1e-3, T=steps * 1e-3, batch_size=2,
                               seed=seed)
    p = rng.uniform(-2.0, 2.0, size=(cfg.batch_size, 2))
    return net, costs, raw, p, cfg


def test_criterion_06_gradient_audit(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    clean_instances = 0
    for k in range(3):
        tape = None
        for attempt in range(10):
            net, costs, raw, p, cfg = _tiny_audit_instance(11 + 101 * k
                                                           + attempt)
            _, tape = training.rollout_loss(net, costs, raw, p, cfg)
            if not training.gradient_tie_risk(tape):
                break
        else:
            continue
        clean_instances += 1
        analytic = training.backprop(tape, net, costs)
        fd = finite_difference_gradients(net, costs, raw, p, cfg)
        num = den = 0.0
        for field in ("mu_plus", "mu_minus", "chi_plus", "chi_minus"):
            a = getattr(analytic, field)
            f = getattr(fd, field)
            num = max(num, float(np.max(np.abs(a - f))))
            den = max(den, float(np.max(np.abs(f))))
        worst = max(worst, num / max(den, 1e-12))
    elapsed = time.perf_counter() - t0

    ok = clean_instances >= 3 and worst < 1e-4 and elapsed < 10.0
    report(capsys, 6, ok,
           f"{clean_instances}/3 instances audited, worst rel err "
           f"{worst:.1e} (<1e-4), {elapsed:.1f}s (<10s)")
    assert clean_instances >= 3
    assert worst < 1e-4
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# criterion 7: training descent, per-epoch constraints, certifiability
# --------------------------------------------------------------------------

def test_criterion_07_training_descent(capsys):
    t0 = time.perf_counter()
    net = three_bus()
    costs = costs_mod.power_costs(4, np.array([1.0, 8.0, 1.0]))
    cfg = training.TrainConfig(d=10, h=1e-3, T=1.0, batch_size=8, epochs=20,
                               lr=0.1, p_lo=-2.0, p_hi=2.0, seed=0)
    result = training.train(net, costs, cfg)

    # independent replay of the same seeded loop, validating the
    # monotonicity chains after every single update
    rng = np.random.default_rng(cfg.seed)
    raw = controller.init_raw_params(net.n, cfg.d, rng)
    valid_every_epoch = True
    replay_losses = []
    for e in range(cfg.epochs):
        p = rng.uniform(cfg.p_lo, cfg.p_hi, size=(cfg.batch_size, net.n))
        loss, tape = training.rollout_loss(net, costs, raw, p, cfg)
        replay_losses.append(loss)
        grads = training.backprop(tape, net, costs)
        lr = cfg.lr * cfg.lr_decay ** e
        raw = controller.RawParams(
            mu_plus=raw.mu_plus - lr * grads.mu_plus,
            mu_minus=raw.mu_minus - lr * grads.mu_minus,
            chi_plus=raw.chi_plus - lr * grads.chi_plus,
            chi_minus=raw.chi_minus - lr * grads.chi_minus)
        params_e = controller.transform_params(raw, u_lo=cfg.u_lo,
                                               u_hi=cfg.u_hi, dz=cfg.dz)
        valid_every_epoch &= controller.validate_params(params_e, warn=False)
    assert np.array_equal(replay_losses, result.loss_history)

    descent = float(result.loss_history[-1]) < float(result.loss_history[0])

    # the trained controller must itself pass certification
    p_eval = np.array([-1.0, -0.3, 0.0])
    eq = eq_mod.solve_equilibrium(net, costs, result.params, p_eval)
    traj = dynamics.simulate(dynamics.Scenario(p=p_eval, T=40.0, h=2e-3),
                             net, costs, result.params,
                             stepper=dynamics.rk4_step)
    rep = lyapunov.certify_trajectory(traj, net, costs, result.params, eq)
    elapsed = time.perf_counter() - t0

    ok = (descent and valid_every_epoch and rep.passed and elapsed < 300.0)
    report(capsys, 7, ok,
           f"loss {result.loss_history[0]:.5f} -> "
           f"{result.loss_history[-1]:.5f} (strict descent: {descent}), "
           f"constraints held every epoch: {valid_every_epoch}, trained "
           f"controller certified: {rep.passed}, {elapsed:.1f}s (<300s)")
    assert descent
    assert valid_every_epoch
    assert rep.passed
    assert elapsed < 300.0


# --------------------------------------------------------------------------
# criterion 8: all-machine exponential certificate
# --------------------------------------------------------------------------

def test_criterion_08_exponential_certificate(capsys):
    t0 = time.perf_counter()
    net = network.network_from_dict({
        "buses": [
            {"id": 1, "kind": "gen", "m": 4.0, "alpha": 1.5, "v": 1.0},
            {"id": 2, "kind": "gen", "m": 3.0, "alpha": 1.0, "v": 1.0},
            {"id": 3, "kind": "gen", "m": 2.5, "alpha": 1.2, "v": 1.0},
        ],
        "lines": [{"i": 1, "j": 2, "B": 2.0}, {"i": 2, "j": 3, "B": 1.5}],
        "base": {"f0": 50.0},
    })
    p = np.array([-0.8, 0.3, -0.4])
    params = controller.identity_params(3)
    eq = eq_mod.solve_equilibrium(net, None, params, p, mode="primary")

    search = lyapunov.epsilon_and_c_search(net, eq, samples=200, seed=0)
    deltas, omegas, _ = lyapunov.sample_region_states(net, eq, 1000, seed=1)
    state = (deltas, omegas, None)
    v = lyapunov.lyap_V(net, state, eq, search.epsilon)
    v_dot = lyapunov.lyap_V_dot(net, params, state, eq, search.epsilon)
    elapsed = time.perf_counter() - t0

    positive = bool(np.all(v > 0.0))
    decreasing = bool(np.all(v_dot <= 0.0))
    exponential = bool(np.all(v_dot + search.c * v <= 1e-12))
    ok = (search.c > 0.0 and search.min_pivot > 0.0 and positive
          and decreasing and exponential and elapsed < 60.0)
    report(capsys, 8, ok,
           f"epsilon {search.epsilon:g}, c {search.c:.3e} (>0), V>0: "
           f"{positive}, dV/dt<=0: {decreasing}, dV/dt<=-cV: {exponential} "
           f"on 1000 samples, {elapsed:.1f}s (<60s)")
    assert search.c > 0.0
    assert search.min_pivot > 0.0
    assert positive
    assert decreasing
    assert exponential
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# criterion 9: monotone parameterization properties
# --------------------------------------------------------------------------

def test_criterion_09_monotone_construction(capsys):
    t0 = time.perf_counter()
    grid = np.linspace(-3.0, 3.0, 101)
    x = np.stack([grid, grid], axis=-1)
    worst_drop = np.inf
    origin_exact = True
    for k in range(1000):
        rng = np.random.default_rng(90_000 + k)
        params = controller.transform_params(
            controller.init_raw_params(2, 2 + k % 4, rng))
        u = controller.eval_u(params, x)
        worst_drop = min(worst_drop, float(np.min(np.diff(u, axis=0))))
        origin_exact &= bool(
            np.all(controller.eval_u(params, np.zeros(2)) == 0.0))

    dense = np.linspace(-3.0, 3.0, 2001)
    sup_err = {}
    for d in (5, 20):
        par = controller.construct_from_samples(np.tanh, d, (-3.0, 3.0))
        fit = controller.eval_u(par, dense[:, None])[:, 0]
        sup_err[d] = float(np.max(np.abs(fit - np.tanh(dense))))
    elapsed = time.perf_counter() - t0

    ok = (worst_drop >= -1e-12 and origin_exact
          and sup_err[20] < sup_err[5] and elapsed < 30.0)
    report(capsys, 9, ok,
           f"min increment over 1000 draws {worst_drop:.1e} (>=-1e-12), "
           f"u(0)=0 exact: {origin_exact}, tanh sup error d=5 "
           f"{sup_err[5]:.2e} -> d=20 {sup_err[20]:.2e} (decreasing), "
           f"{elapsed:.1f}s (<30s)")
    assert worst_drop >= -1e-12
    assert origin_exact
    assert sup_err[20] < sup_err[5]
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# criterion 10: 39-bus end-to-end
# --------------------------------------------------------------------------

def test_criterion_10_case39_end_to_end(capsys):
    t0 = time.perf_counter()
    doc = json.loads(
        (resources.files("gridfreq") / "data" / "case39.json").read_text())
    doc["comm"] = [{"i": ln["i"], "j": ln["j"], "Q": 50.0}
                   for ln in doc["lines"]]
    net = network.network_from_dict(doc)
    costs = costs_mod.random_power_costs(39, np.random.default_rng(4), r=4)

    cfg = training.TrainConfig(d=20, h=5e-4, T=2.5, batch_size=16, epochs=8,
                               lr=0.4, seed=1)
    result = training.train(net, costs, cfg)

    p = np.zeros(39)
    for bus in (13, 21, 27):
        p[net.index_of(bus)] = -3.0
    traj = dynamics.simulate(dynamics.Scenario(p=p, T=60.0, h=5e-4),
                             net, costs, result.params,
                             stepper=dynamics.rk4_step)
    final_omega = float(np.max(np.abs(traj.omega[-1])))
    mc = traj.mc[-1]
    spread = float(mc.max() - mc.min())
    elapsed = time.perf_counter() - t0

    ok = final_omega < 1e-3 and spread < 1e-2 and elapsed < 1800.0
    report(capsys, 10, ok,
           f"39-bus: max|omega| after 60s {final_omega:.1e} (<1e-3), "
           f"mc spread {spread:.1e} (<1e-2), {elapsed:.0f}s (<1800s)")
    assert final_omega < 1e-3
    assert spread < 1e-2
    assert elapsed < 1800.0
