import re
import tracemalloc
from dataclasses import replace
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gridfreq import controller as ctl
from gridfreq import costs as cm
from gridfreq import dynamics as dyn
from gridfreq import network
from gridfreq import training as trn
from gridfreq.controller import RawParams
from gridfreq.dynamics import DynamicsError
from gridfreq.training import TrainConfig

from conftest import (finite_difference_gradients, nine_bus, random_connected_net,
                      three_bus, two_bus)


@pytest.mark.parametrize("masks", [{}, dict(u_lo=-0.02, u_hi=0.03, dz=2e-3)],
                         ids=["unbounded", "saturation-deadband"])
def test_rollout_matches_simulate_bitwise(masks):
    # every batch row of the unrolled recursion must replay its own
    # dynamics.euler_step run exactly
    net = three_bus()
    costs = cm.power_costs(4, np.array([0.9, 1.3, 0.7]))
    rng = np.random.default_rng(12)
    raw = ctl.init_raw_params(3, 3, rng)
    cfg = TrainConfig(d=3, h=1e-3, T=0.5, batch_size=3, seed=0, **masks)
    p = np.array([[-0.5, -0.2, 0.1], [0.4, -0.3, 0.2], [0.1, 0.2, -0.6]])
    _, tape = trn.rollout_loss(net, costs, raw, p, cfg)

    params = ctl.transform_params(raw, u_lo=cfg.u_lo, u_hi=cfg.u_hi, dz=cfg.dz)
    for b in range(3):
        scen = dyn.Scenario(p=p[b], T=cfg.T, h=cfg.h)
        traj = dyn.simulate(scen, net, costs, params)
        assert np.array_equal(tape.theta[:, b, :], traj.delta)
        assert np.array_equal(tape.omega_g[:, b, :], traj.omega[:, net.gens])
        assert np.array_equal(tape.s[:, b, :], traj.s)
    if masks:
        # the case exercises both clamps and both sides of the deadband
        u = ctl.eval_u(params, tape.s)
        assert np.any(u == cfg.u_lo) and np.any(u == cfg.u_hi)
        inside = (np.abs(tape.s) < cfg.dz) & (tape.s != 0.0)
        assert np.any(inside) and np.any(np.abs(tape.s) > cfg.dz)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_train_config_names_a_bad_seed(seed):
    # NumPy's SeedSequence would refuse it later without naming the field
    with pytest.raises(ValueError, match=rf"^TrainConfig\.seed must be an integer "
                                         rf">= 0, got {seed}$"):
        TrainConfig(seed=seed)


@pytest.mark.parametrize("field", ["rho", "h", "T", "lr", "lr_decay", "p_lo", "p_hi"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "0.1", None])
def test_train_config_names_a_non_finite_setting(field, bad):
    # a NaN or infinite lr or rho used to train to a checkpoint of NaNs, a
    # NaN p_lo to end in NumPy's OverflowError, an infinite h to be blamed
    # on T, and a string lr from a --config file to fail mid-training
    with pytest.raises(ValueError, match=rf"^TrainConfig\.{field} must be a finite "
                                         rf"number, got {re.escape(repr(bad))}$"):
        TrainConfig(**{field: bad})


def test_train_config_names_an_empty_disturbance_range():
    with pytest.raises(ValueError, match=r"^TrainConfig\.p_lo = 5\.0 exceeds "
                                         r"TrainConfig\.p_hi = -5\.0$"):
        TrainConfig(p_lo=5.0, p_hi=-5.0)
    assert TrainConfig(p_lo=1.0, p_hi=1.0).p_lo == 1.0


@pytest.mark.parametrize("field, bad, rule", [
    ("u_lo", 1.0, "None or a number <= 0"),
    ("u_lo", np.inf, "None or a number <= 0"),
    ("u_lo", np.nan, "None or a number <= 0"),
    ("u_lo", "-1", "None or a number <= 0"),
    ("u_hi", -1.0, "None or a number >= 0"),
    ("u_hi", -np.inf, "None or a number >= 0"),
    ("u_hi", np.nan, "None or a number >= 0"),
    ("u_hi", [1.0], "None or a number >= 0"),
    ("dz", -1.0, "a finite number >= 0"),
    ("dz", np.inf, "a finite number >= 0"),
    ("dz", np.nan, "a finite number >= 0"),
    ("dz", None, "a finite number >= 0"),
])
def test_train_config_names_a_policy_range_that_misses_the_origin(field, bad, rule):
    # the policies pass through 0: a u_lo above it or a u_hi below it used
    # to train with exit 0 on policies that no longer did, and a negative
    # dz to drop the deadband without a word
    with pytest.raises(ValueError, match=rf"^TrainConfig\.{field} must be {rule}, "
                                         rf"got {re.escape(repr(bad))}$"):
        TrainConfig(**{field: bad})
    bounds = TrainConfig(u_lo=-np.inf, u_hi=0.0, dz=0.0)
    assert (bounds.u_lo, bounds.u_hi, bounds.dz) == (-np.inf, 0.0, 0.0)


def test_loss_is_batch_mean():
    net = two_bus()
    costs = cm.power_costs(4, np.array([1.1, 0.6]))
    rng = np.random.default_rng(3)
    raw = ctl.init_raw_params(2, 2, rng)
    cfg = TrainConfig(d=2, h=1e-3, T=0.05, batch_size=4, seed=0)
    p = rng.uniform(-1.0, 1.0, size=(4, 2))
    batch_loss, _ = trn.rollout_loss(net, costs, raw, p, cfg)
    singles = [trn.rollout_loss(net, costs, raw, p[k:k + 1],
                                replace(cfg, batch_size=1))[0]
               for k in range(4)]
    assert batch_loss == pytest.approx(np.mean(singles), abs=1e-12)


def test_loss_affine_in_rho():
    net = two_bus()
    costs = cm.power_costs(4, np.array([0.8, 1.4]))
    rng = np.random.default_rng(7)
    raw = ctl.init_raw_params(2, 2, rng)
    p = rng.uniform(-1.0, 1.0, size=(3, 2))
    base = TrainConfig(d=2, h=1e-3, T=0.05, batch_size=3, seed=0)
    l0, _ = trn.rollout_loss(net, costs, raw, p, replace(base, rho=0.0))
    l2, _ = trn.rollout_loss(net, costs, raw, p, replace(base, rho=0.02))
    l1, _ = trn.rollout_loss(net, costs, raw, p, replace(base, rho=0.01))
    assert l1 == pytest.approx(0.5 * (l0 + l2), abs=1e-12)
    assert l2 > l0  # the cost term is strictly positive off equilibrium


def test_nadir_term_is_peak_frequency_magnitude():
    net = two_bus()
    costs = cm.quadratic_costs(np.ones(2))
    rng = np.random.default_rng(11)
    raw = ctl.init_raw_params(2, 2, rng)
    cfg = TrainConfig(d=2, h=1e-3, T=0.1, batch_size=1, seed=0, rho=0.0)
    p = np.array([[-0.6, 0.2]])
    loss, tape = trn.rollout_loss(net, costs, raw, p, cfg)
    peak = np.max(np.abs(tape.omega_g[1:, 0, :]), axis=0)
    assert loss == pytest.approx(float(peak.sum()), abs=1e-14)


def test_rollout_peak_memory_is_about_one_tape():
    # the nadir search keeps a running per-bus maximum in the step loop, so
    # nothing the size of the omega_g track is made beside the tape
    net = nine_bus()
    costs = cm.power_costs(4, np.linspace(0.7, 1.5, net.n))
    raw = ctl.init_raw_params(net.n, 3, np.random.default_rng(2))
    cfg = TrainConfig(d=3, h=1e-3, T=0.5, batch_size=50, seed=0)
    p = np.random.default_rng(3).uniform(-0.5, 0.5, (cfg.batch_size, net.n))
    tracemalloc.start()
    try:
        _, tape = trn.rollout_loss(net, costs, raw, p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tape_bytes = tape.theta.nbytes + tape.omega_g.nbytes + tape.s.nbytes
    assert peak < 1.1 * tape_bytes, (peak, tape_bytes)


def test_backprop_matches_finite_differences():
    # unbounded policies over 4 ms, then saturation bounds and a deadband
    # over 16 ms: the integral states reach about 1e-3 by then, so bounds of
    # 2e-4 clamp many inputs early enough for the saturation gate on the
    # state adjoint to matter, and dz = 2e-4 leaves others in the deadband
    seen = dict(saturated=0, deadband=0, active=0)
    for masks in (dict(T=4e-3), dict(T=1.6e-2, u_lo=-2e-4, u_hi=2e-4, dz=2e-4)):
        checked = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            net = two_bus(b=float(rng.uniform(0.5, 2.0)))
            costs = cm.random_power_costs(2, rng)
            raw = ctl.init_raw_params(2, 2, rng)
            cfg = TrainConfig(d=2, h=1e-3, batch_size=2, seed=seed, **masks)
            p = rng.uniform(-2.0, 2.0, size=(2, 2))
            _, tape = trn.rollout_loss(net, costs, raw, p, cfg)
            if trn.gradient_tie_risk(tape):
                continue
            analytic = trn.backprop(tape, net, costs)
            fd = finite_difference_gradients(net, costs, raw, p, cfg)
            num = den = 0.0
            for name in ("mu_plus", "mu_minus", "chi_plus", "chi_minus"):
                a, f = getattr(analytic, name), getattr(fd, name)
                num = max(num, float(np.max(np.abs(a - f))))
                den = max(den, float(np.max(np.abs(f))))
            assert num / max(den, 1e-12) < 1e-4
            if cfg.dz > 0:
                x = tape.s[:-1]
                u = ctl.eval_u(tape.params, x)
                clamped = (u == cfg.u_lo) | (u == cfg.u_hi)
                seen["saturated"] += int(np.sum(clamped))
                seen["deadband"] += int(np.sum((np.abs(x) < cfg.dz) & (x != 0.0)))
                seen["active"] += int(np.sum((np.abs(x) > cfg.dz) & ~clamped))
            checked += 1
            if checked >= 4:
                break
        assert checked >= 4  # enough clean instances actually audited
    assert min(seen.values()) >= 1, seen


@settings(max_examples=15)
@given(seed=st.integers(0, 2 ** 16), masked=st.booleans())
def test_backprop_matches_finite_differences_on_random_networks(seed, masked):
    """Random networks and costs, d = 3 policies, rollouts from a random
    integral state spread over both sides' breakpoints (optionally with
    saturation and a deadband); instances the tie screen flags are skipped,
    the rest must match central finite differences."""
    rng = np.random.default_rng(seed)
    net = random_connected_net(seed, buses=4)
    costs = cm.random_power_costs(net.n, rng)
    raw = ctl.init_raw_params(net.n, 3, rng)
    cfg = TrainConfig(d=3, h=1e-3, T=6e-3, batch_size=2, seed=seed,
                      **(dict(u_lo=-0.3, u_hi=0.25, dz=0.05) if masked else {}))
    p = rng.uniform(-2.0, 2.0, (2, net.n))
    initial = np.zeros((3, 2, net.n))
    initial[2] = rng.uniform(-1.0, 1.0, (2, net.n))
    _, tape = trn.rollout_loss(net, costs, raw, p, cfg, initial)
    assume(not trn.gradient_tie_risk(tape))
    analytic = trn.backprop(tape, net, costs)
    fd = finite_difference_gradients(net, costs, raw, p, cfg, initial=initial)
    for name in ("mu_plus", "mu_minus", "chi_plus", "chi_minus"):
        a, f = getattr(analytic, name), getattr(fd, name)
        assert np.max(np.abs(a - f)) <= 1e-4 * max(np.max(np.abs(f)), 1e-8), name


def test_gradient_tie_risk_clean_case():
    net = two_bus()
    costs = cm.quadratic_costs(np.ones(2))
    raw = RawParams(mu_plus=np.full((2, 2), 0.3), mu_minus=np.full((2, 2), 0.3),
                    chi_plus=np.ones((2, 1)), chi_minus=np.ones((2, 1)))
    cfg = TrainConfig(d=2, h=1e-3, T=4e-3, batch_size=1, seed=0)
    p = np.array([[-0.5, 0.5]])
    _, tape = trn.rollout_loss(net, costs, raw, p, cfg)
    assert not trn.gradient_tie_risk(tape)


def test_gradient_tie_risk_flags_nadir_tie():
    # zero disturbance: every peak is tied at zero
    net = two_bus()
    costs = cm.quadratic_costs(np.ones(2))
    raw = RawParams(mu_plus=np.full((2, 2), 0.3), mu_minus=np.full((2, 2), 0.3),
                    chi_plus=np.ones((2, 1)), chi_minus=np.ones((2, 1)))
    cfg = TrainConfig(d=2, h=1e-3, T=4e-3, batch_size=1, seed=0)
    _, tape = trn.rollout_loss(net, costs, raw, np.zeros((1, 2)), cfg)
    assert trn.gradient_tie_risk(tape)


def test_gradient_tie_risk_flags_breakpoint_hit():
    # place a movable breakpoint exactly where the load-bus integral state
    # lands after one step (that value is parameter-independent)
    net = three_bus()
    cfg = TrainConfig(d=2, h=1e-3, T=2e-3, batch_size=1, seed=0)
    p = np.array([[0.0, 0.0, -0.3]])
    s1_load = cfg.h * 2.0 * np.pi * net.f0 * (0.3 / net.alpha[net.loads[0]])
    chi = np.ones((3, 1))
    chi[2, 0] = np.sqrt(s1_load)
    raw = RawParams(mu_plus=np.full((3, 2), 0.3), mu_minus=np.full((3, 2), 0.3),
                    chi_plus=chi, chi_minus=np.ones((3, 1)))
    costs = cm.quadratic_costs(np.ones(3))
    _, tape = trn.rollout_loss(net, costs, raw, p, cfg)
    assert tape.s[1, 0, 2] == pytest.approx(s1_load, abs=1e-15)
    assert trn.gradient_tie_risk(tape)


def test_rollout_blow_up_message():
    net = two_bus()
    costs = cm.power_costs(4, np.array([1.0, 1.0]))
    rng = np.random.default_rng(0)
    raw = ctl.init_raw_params(2, 2, rng)
    cfg = TrainConfig(d=2, h=0.5, T=5.0, batch_size=2, seed=0)
    p = np.array([[5.0, -4.0], [-5.0, 3.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DynamicsError,
                           match=r"integration blow-up at step \d+"):
            trn.rollout_loss(net, costs, raw, p, cfg)


def test_rollout_gauges_the_initial_angles_before_step_0():
    # as simulate: initial angles off the gauge by 1e-2 raise before step 0,
    # naming the initial state; by 1e-6 they are projected, and the tape's
    # theta[0] holds them in the gauge of theta[1:]
    net = three_bus()
    costs = cm.power_costs(4, np.array([0.9, 1.3, 0.7]))
    raw = ctl.init_raw_params(3, 3, np.random.default_rng(0))
    cfg = TrainConfig(d=3, h=1e-3, T=0.01, batch_size=2, seed=0)
    p = np.array([[-0.5, 0.2, 0.1], [0.3, -0.1, 0.0]])
    far, near = np.zeros((2, 3, 2, 3))
    far[0], near[0] = 1e-2, 1e-6
    with pytest.raises(DynamicsError, match="initial state: angle gauge drift"):
        trn.rollout_loss(net, costs, raw, p, cfg, far)
    _, tape = trn.rollout_loss(net, costs, raw, p, cfg, near)
    assert np.all(tape.theta[0].mean(axis=-1) == 0.0)
    assert np.all(np.abs(tape.theta.mean(axis=-1)) < 1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_rollout_names_a_non_finite_initial_state(bad):
    # as simulate: refused before step 0, naming the row, bus and scenario
    net = three_bus()
    costs = cm.power_costs(4, np.array([0.9, 1.3, 0.7]))
    raw = ctl.init_raw_params(3, 3, np.random.default_rng(0))
    cfg = TrainConfig(d=3, h=1e-3, T=0.01, batch_size=2, seed=0)
    p = np.zeros((2, 3))
    for row, b, bus, where in ((2, 1, 2, "s at bus 3 of scenario 1"),
                               (1, 0, 1, "omega at bus 2 of scenario 0")):
        initial = np.zeros((3, 2, 3))
        initial[row, b, bus] = bad
        with pytest.raises(DynamicsError, match=f"^initial state: non-finite {where}$"):
            trn.rollout_loss(net, costs, raw, p, cfg, initial)


@pytest.mark.parametrize("p, message", [
    (np.zeros((2, 5)), "disturbance p has shape (2, 5), expected (B, 3) for the 3-bus network"),
    (np.zeros(3), "disturbance p has shape (3,), expected (B, 3) for the 3-bus network"),
], ids=["2x5", "3"])
def test_rollout_names_a_wrong_shape_disturbance(p, message, monkeypatch):
    # these used to fail in NumPy broadcasting or indexing; now they are
    # refused by name before any field evaluation
    def no_derivatives(*args, **kwargs):
        raise AssertionError("derivatives evaluated")
    monkeypatch.setattr(trn, "derivatives", no_derivatives)
    monkeypatch.setattr(dyn, "derivatives", no_derivatives)
    raw = ctl.init_raw_params(3, 3, np.random.default_rng(0))
    cfg = TrainConfig(d=3, h=1e-3, T=0.01, batch_size=2, seed=0)
    with pytest.raises(DynamicsError, match=re.escape(message)):
        trn.rollout_loss(three_bus(), cm.quadratic_costs(np.array([1.0, 2.0, 1.5])),
                         raw, p, cfg)


def test_rollout_names_a_wrong_disturbance_before_a_batch_shaped_state():
    # the (3, 2, 3) state fits a batch of two; the (3,) p is what is wrong,
    # so p is named, not the state whose expected shape p would set
    raw = ctl.init_raw_params(3, 3, np.random.default_rng(0))
    cfg = TrainConfig(d=3, h=1e-3, T=0.01, batch_size=2, seed=0)
    message = "disturbance p has shape (3,), expected (B, 3) for the 3-bus network"
    with pytest.raises(DynamicsError, match=re.escape(message)):
        trn.rollout_loss(three_bus(), cm.quadratic_costs(np.array([1.0, 2.0, 1.5])),
                         raw, np.zeros(3), cfg, np.zeros((3, 2, 3)))


def test_rollout_leaves_the_callers_initial_state_alone():
    # the angles are off the gauge by 1e-6, so gauge_initial rewrites them,
    # in a copy; the load-bus omega entries are ignored, so a rollout with
    # them drawn at random gives the bits of one with them at zero
    net = three_bus()
    rng = np.random.default_rng(4)
    costs = cm.power_costs(4, np.array([0.9, 1.3, 0.7]))
    raw = ctl.init_raw_params(3, 3, rng)
    cfg = TrainConfig(d=3, h=1e-3, T=0.02, batch_size=2, seed=0)
    p = rng.uniform(-1.0, 1.0, (2, 3))
    initial = rng.uniform(-0.5, 0.5, (3, 2, 3))
    initial[0] += 1e-6 - initial[0].mean(axis=-1, keepdims=True)
    kept = initial.copy()
    loss, tape = trn.rollout_loss(net, costs, raw, p, cfg, initial)
    assert initial.tobytes() == kept.tobytes()
    assert np.all(np.abs(tape.theta[0].mean(axis=-1)) < 1e-15)
    assert tape.omega_g[0].tobytes() == initial[1][:, net.gens].tobytes()
    initial[1][:, net.loads] = 0.0
    loss_zero, tape_zero = trn.rollout_loss(net, costs, raw, p, cfg, initial)
    assert loss_zero == loss
    for name in ("theta", "omega_g", "s", "count"):
        assert getattr(tape_zero, name).tobytes() == getattr(tape, name).tobytes()


def test_rollout_blow_up_past_limit_while_finite():
    # the rollout stops at the first step whose state passes the simulator's
    # blow-up limit, not at the first non-finite one
    net = three_bus()
    costs = cm.power_costs(4, np.array([0.9, 1.3, 0.7]))
    raw = ctl.init_raw_params(3, 3, np.random.default_rng(12))
    params = ctl.transform_params(raw)
    cfg = TrainConfig(d=3, h=0.05, T=2.0, batch_size=2, seed=0)
    p = np.array([[-0.5, -0.2, 0.1], [0.4, -0.3, 0.2]])

    # unchecked Euler recursion on the same inputs
    x = np.zeros((3, 2, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(cfg.steps):
            k, omega = dyn.derivatives(net, costs, params, x, p)[:2]
            x = x + cfg.h * k
            x[1] = omega + cfg.h * k[1]
            if not np.abs(x).max() <= dyn.BLOWUP_LIMIT:
                break
    assert np.abs(x).max() > dyn.BLOWUP_LIMIT and np.isfinite(x).all()
    row, b, bus = np.unravel_index(np.argmax(np.abs(x)), x.shape)
    where = f"{('delta', 'omega', 's')[row]} at bus {net.ids[bus]} of scenario {b}"
    with pytest.raises(DynamicsError,
                       match=rf"integration blow-up at step {first} in {where}$"):
        trn.rollout_loss(net, costs, raw, p, cfg)


def test_train_blow_up_reports_epoch_and_seed():
    net = two_bus()
    costs = cm.power_costs(4, np.array([1.0, 1.0]))
    cfg = TrainConfig(d=2, h=0.5, T=2.5, batch_size=2, epochs=2, lr=0.1,
                      p_lo=-5.0, p_hi=5.0, seed=9)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DynamicsError, match=r"integration blow-up at step \d+ in "
                                                r"(delta|omega|s) at bus [12] of "
                                                r"scenario [01] \(epoch \d+, seed 9\)$"):
            trn.train(net, costs, cfg)


def test_train_stops_on_a_step_past_the_floats():
    # a finite lr of 1e300 squares mu past the floats, so the next policy
    # has NaN slopes; validate_params used to pass them and train finished
    net = two_bus()
    costs = cm.power_costs(4, np.array([1.0, 1.0]))
    cfg = TrainConfig(d=2, h=1e-3, T=0.01, batch_size=2, epochs=1, lr=1e300, seed=0)
    with pytest.raises(ValueError, match=r"^training epoch 0 \(seed 0, lr 1e\+300\): "
                                         r"the gradient step broke the policies' "
                                         r"monotonicity chains$"):
        trn.train(net, costs, cfg)


def test_train_deterministic():
    net = two_bus()
    costs = cm.power_costs(4, np.array([0.9, 1.2]))
    cfg = TrainConfig(d=2, h=1e-3, T=0.1, batch_size=4, epochs=3, lr=0.1,
                      p_lo=-1.0, p_hi=1.0, seed=2)
    a = trn.train(net, costs, cfg)
    b = trn.train(net, costs, cfg)
    assert np.array_equal(a.loss_history, b.loss_history)
    assert np.array_equal(a.raw.mu_plus, b.raw.mu_plus)
    assert np.array_equal(a.raw.chi_minus, b.raw.chi_minus)
    assert a.seed == 2


@pytest.mark.parametrize("masks", [{}, dict(u_lo=-0.3, u_hi=0.25, dz=0.05)],
                         ids=["unbounded", "saturation-deadband"])
def test_tape_counts_are_the_merged_ranks(masks):
    # at every step, the rank #(x' > b_plus) - #(x' < b_minus) + d of the
    # input s[l] among the merged thresholds, counted here per side;
    # at most one of the two counts is nonzero
    rng = np.random.default_rng(21)
    net = random_connected_net(21, buses=5)
    costs = cm.random_power_costs(net.n, rng)
    raw = ctl.init_raw_params(net.n, 6, rng)
    raw.chi_plus[:, 2] = 0.0
    cfg = TrainConfig(d=6, h=1e-3, T=0.05, batch_size=4, seed=0, **masks)
    p = rng.uniform(-2.0, 2.0, (4, net.n))
    initial = np.zeros((3, 4, net.n))
    initial[2] = rng.uniform(-1.5, 1.5, (4, net.n))
    _, tape = trn.rollout_loss(net, costs, raw, p, cfg, initial)
    params = tape.params
    s = tape.s[:-1]
    xe = (np.sign(s) * np.maximum(np.abs(s) - params.dz, 0.0))[..., None]
    above = np.sum(xe > params.b_plus, axis=-1)
    below = np.sum(xe < params.b_minus, axis=-1)
    assert not np.any((above > 0) & (below > 0))
    assert above.any() and below.any()
    assert tape.count.dtype == np.uint8
    assert tape.count.shape == (cfg.steps, 4, net.n)
    assert np.array_equal(tape.count, above - below + cfg.d)


def test_reruns_are_bit_identical_on_random_networks():
    # loss, gradient and table counts of two runs on the same inputs
    for seed in range(4):
        rng = np.random.default_rng(seed)
        net = random_connected_net(seed, buses=6)
        costs = cm.random_power_costs(net.n, rng)
        raw = ctl.init_raw_params(net.n, 5, rng)
        cfg = TrainConfig(d=5, h=1e-3, T=0.05, batch_size=5, seed=seed,
                          u_lo=-0.5, u_hi=0.5, dz=0.01)
        p = rng.uniform(-2.0, 2.0, (5, net.n))
        runs = []
        for _ in range(2):
            loss, tape = trn.rollout_loss(net, costs, raw, p, cfg)
            runs.append((np.array([loss]), tape.count,
                         *vars(trn.backprop(tape, net, costs)).values()))
        for a, b in zip(*runs):
            assert a.dtype == b.dtype
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def test_train_result_params_are_valid_and_consistent():
    net = two_bus()
    costs = cm.power_costs(4, np.array([0.9, 1.2]))
    cfg = TrainConfig(d=3, h=1e-3, T=0.1, batch_size=4, epochs=2, lr=0.1,
                      p_lo=-1.0, p_hi=1.0, seed=1)
    out = trn.train(net, costs, cfg)
    assert ctl.validate_params(out.params, warn=False)
    rebuilt = ctl.transform_params(out.raw, u_lo=cfg.u_lo, u_hi=cfg.u_hi,
                                   dz=cfg.dz)
    assert np.array_equal(out.params.k_plus, rebuilt.k_plus)
    assert len(out.loss_history) == 2
    assert np.all(np.isfinite(out.loss_history))


def test_train_respects_saturation_bounds():
    net = two_bus()
    costs = cm.power_costs(4, np.array([0.9, 1.2]))
    cfg = TrainConfig(d=2, h=1e-3, T=0.05, batch_size=2, epochs=1, lr=0.05,
                      p_lo=-1.0, p_hi=1.0, seed=0, u_lo=-0.4, u_hi=0.4)
    out = trn.train(net, costs, cfg)
    grid = np.linspace(-10, 10, 401)[:, None]
    u = ctl.eval_u(out.params, np.broadcast_to(grid, (401, 2)))
    assert np.all(u <= 0.4 + 1e-12)
    assert np.all(u >= -0.4 - 1e-12)


def test_train_frees_the_previous_tape_before_the_next_rollout():
    # a 42 MB tape against a block of the backward sweep of about 4 MB;
    # with two tapes alive at once the peak would pass two tapes
    net = nine_bus()
    costs = cm.power_costs(4, np.linspace(0.7, 1.5, net.n))
    cfg = TrainConfig(d=3, h=1e-3, T=1.0, batch_size=250, epochs=2, lr=0.05,
                      p_lo=-0.5, p_hi=0.5, seed=0)
    tape_bytes = (cfg.steps + 1) * cfg.batch_size * (2 * net.n + net.n_gen) * 8
    tracemalloc.start()
    try:
        trn.train(net, costs, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * tape_bytes, (peak, tape_bytes)


def per_step_backprop(tape, net, costs):
    """training.backprop as a plain per-step sweep, every state-only term
    recomputed at its step (the sweep before it was blocked), with the
    parameter adjoints binned by per-side counts into one-sided histograms
    (the binning before the merged rank).  The per-side counts, and the
    slope's weak count x' >= b_plus, are counted again from the states, so
    the tape's ranks and the merged tables' positions and slopes are
    checked, not reused."""
    cfg, params, raw = tape.cfg, tape.params, tape.raw
    B, n = tape.p.shape
    d = params.d
    g, ll = net.gens, net.loads
    L, h = cfg.steps, cfg.h
    two_pi_f0 = 2.0 * np.pi * net.f0
    inv_alpha_l, inv_m = 1.0 / net.alpha[ll], 1.0 / net.m
    t = params._tables
    order_p = np.argsort(params.b_plus, axis=-1, kind="stable")
    order_m = np.argsort(-params.b_minus, axis=-1, kind="stable")
    sorted_p = np.take_along_axis(params.b_plus, order_p, -1)
    sorted_m = np.take_along_axis(params.b_minus, order_m, -1)
    k_p = np.take_along_axis(params.k_plus, order_p, -1)
    k_m = np.take_along_axis(params.k_minus, order_m, -1)
    K_p = np.concatenate([np.zeros((n, 1)), np.cumsum(k_p, -1)], -1).ravel()
    K_m = np.concatenate([np.zeros((n, 1)), np.cumsum(k_m, -1)], -1).ravel()
    off = np.arange(n) * (d + 1)
    rows = n * (d + 1)
    g_theta, g_w, g_s = np.zeros((B, n)), np.zeros((B, len(g))), np.zeros((B, n))
    hist = np.zeros((4, rows))
    for l in range(L - 1, -1, -1):
        g_w = g_w + np.where(tape.nadir_step == l, tape.nadir_sign, 0.0)
        sl = tape.s[l]
        xe = t.shift(sl)
        ip = off + np.sum(xe[..., None] > sorted_p, axis=-1)
        im = off + np.sum(xe[..., None] < sorted_m, axis=-1)
        g_unc = t.value(xe, t.index(xe))
        u = t.clamp(g_unc)
        unsat = t.unsaturated(g_unc)
        mc = costs.grad(u)
        pg = g_theta - g_theta.mean(axis=-1, keepdims=True)
        a_omega = two_pi_f0 * h * pg - two_pi_f0 * h * g_s
        a_u, a_flows = np.zeros((B, n)), np.zeros((B, n))
        a_u[:, g] += h * inv_m * g_w
        a_flows[:, g] -= h * inv_m * g_w
        a_wl = a_omega[:, ll] * inv_alpha_l
        a_u[:, ll] += a_wl
        a_flows[:, ll] -= a_wl
        a_u += costs.curvature(u) * (-h * network.comm_laplacian_apply(
            net, costs.zeta * g_s))
        a_u += (cfg.rho / L) * mc
        a_eff = a_u * unsat
        a_x = a_eff * xe
        for k, (row, w) in enumerate(((ip, a_eff), (ip, a_x), (im, a_eff), (im, a_x))):
            hist[k] += np.bincount(row.ravel(), w.ravel(), rows)
        jp = off + np.sum(xe[..., None] >= sorted_p, axis=-1)
        slope = K_p.take(jp) - K_m.take(im)
        if t.shifted:
            slope = slope * ((sl >= t.dz) | (sl < -t.dz))
        slope = np.where(unsat, slope, 0.0)
        g_s = g_s + slope * a_u
        g_w = (1.0 - h * net.alpha[g] * inv_m) * g_w + a_omega[:, g]
        g_theta = g_theta + network.flow_jacobian_apply(net, tape.theta[l], a_flows)
    s0p, s1p, s0m, s1m = np.cumsum(
        hist.reshape(4, n, -1)[..., :0:-1], axis=-1)[..., ::-1] / B

    def unsort(a, order):
        out = np.empty_like(a)
        np.put_along_axis(out, order, a, axis=-1)
        return out

    gk_p = unsort(s1p - sorted_p * s0p, order_p)
    gb_p = unsort(-k_p * s0p, order_p)
    gk_m = unsort(sorted_m * s0m - s1m, order_m)
    gb_m = unsort(k_m * s0m, order_m)
    pad = np.zeros((n, 1))
    tail_p = np.cumsum(gb_p[:, ::-1], axis=1)[:, ::-1]
    tail_m = np.cumsum(gb_m[:, ::-1], axis=1)[:, ::-1]
    return RawParams(
        mu_plus=2.0 * raw.mu_plus * (gk_p - np.concatenate([gk_p[:, 1:], pad], axis=1)),
        mu_minus=-2.0 * raw.mu_minus * (gk_m - np.concatenate([gk_m[:, 1:], pad], axis=1)),
        chi_plus=2.0 * raw.chi_plus * tail_p[:, 1:],
        chi_minus=-2.0 * raw.chi_minus * tail_m[:, 1:])


def assert_blocks_bit_identical(tape, net, costs):
    """backprop in blocks of 1 step, of a size that does not divide L, and
    of at least L steps gives the per-step sweep's gradient bit for bit."""
    B, n = tape.p.shape
    L = tape.cfg.steps
    ref = per_step_backprop(tape, net, costs)
    sizes = (1, next(k for k in range(3, L) if L % k), L + 5)
    for steps in sizes:
        with mock.patch.object(trn, "BLOCK_ELEMENTS", steps * B * n):
            got = trn.backprop(tape, net, costs)
        for f in ("mu_plus", "mu_minus", "chi_plus", "chi_minus"):
            a, b = getattr(got, f), getattr(ref, f)
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (steps, f)


def test_backprop_blocks_bit_identical_at_the_benchmark_shape():
    # the packaged 39-bus case at B = 64 and d = 20, over 100 steps
    net = network.load_network(str(resources.files("gridfreq") / "data" / "case39.json"))
    rng = np.random.default_rng(4)
    costs = cm.random_power_costs(net.n, rng, r=4)
    cfg = TrainConfig(d=20, h=5e-4, T=0.05, batch_size=64, seed=4)
    raw = ctl.init_raw_params(net.n, cfg.d, rng)
    p = rng.uniform(cfg.p_lo, cfg.p_hi, (cfg.batch_size, net.n))
    _, tape = trn.rollout_loss(net, costs, raw, p, cfg)
    assert cfg.steps == 100
    assert_blocks_bit_identical(tape, net, costs)


@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 16), masked=st.booleans(), permuted=st.booleans())
def test_backprop_blocks_bit_identical(seed, masked, permuted):
    """Small random rollouts from a random integral state (some chi zero,
    so breakpoints repeat), optionally with saturation and a deadband, and
    optionally with each bus's (k, b) pairs shuffled on the tape."""
    rng = np.random.default_rng(seed)
    net = random_connected_net(seed, buses=4)
    costs = cm.random_power_costs(net.n, rng)
    raw = ctl.init_raw_params(net.n, 4, rng)
    raw.chi_plus[:, 1] = 0.0
    cfg = TrainConfig(d=4, h=1e-3, T=0.02, batch_size=3, seed=seed,
                      **(dict(u_lo=-0.3, u_hi=0.25, dz=0.05) if masked else {}))
    p = rng.uniform(-2.0, 2.0, (3, net.n))
    initial = np.zeros((3, 3, net.n))
    initial[2] = rng.uniform(-1.0, 1.0, (3, net.n))
    _, tape = trn.rollout_loss(net, costs, raw, p, cfg, initial)
    if permuted:
        prm = tape.params
        perm = np.argsort(rng.random(prm.k_plus.shape), axis=-1)
        perm_m = np.argsort(rng.random(prm.k_plus.shape), axis=-1)
        tape = replace(tape, params=replace(
            prm, k_plus=np.take_along_axis(prm.k_plus, perm, -1),
            b_plus=np.take_along_axis(prm.b_plus, perm, -1),
            k_minus=np.take_along_axis(prm.k_minus, perm_m, -1),
            b_minus=np.take_along_axis(prm.b_minus, perm_m, -1)))
    assert_blocks_bit_identical(tape, net, costs)
