import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfreq import controller as ctl
from gridfreq import costs as cm
from gridfreq import training as trn
from gridfreq.controller import NetParams, RawParams
from gridfreq.training import TrainConfig

from conftest import eval_slope, random_connected_net


def test_identity_is_slope_one():
    params = ctl.identity_params(n=3)
    x = np.array([-2.0, 0.5, 1.7])
    assert np.allclose(ctl.eval_u(params, x), x, atol=1e-15)
    assert np.allclose(eval_slope(params, x), 1.0, atol=1e-15)
    assert np.allclose(ctl.lipschitz_constant(params), 1.0, atol=1e-15)


def test_two_segment_piecewise_values():
    # k_plus = (1, 1), breakpoints (0, 1): u(2) = 2 + (2-1) = 3, slope there 2
    params = NetParams(
        k_plus=np.array([[1.0, 1.0]]), b_plus=np.array([[0.0, 1.0]]),
        k_minus=np.array([[-1.0, 0.0]]), b_minus=np.array([[0.0, -1.0]]),
    )
    assert ctl.eval_u(params, np.array([2.0]))[0] == pytest.approx(3.0)
    assert ctl.eval_u(params, np.array([0.5]))[0] == pytest.approx(0.5)
    assert eval_slope(params, np.array([2.0]))[0] == pytest.approx(2.0)
    assert eval_slope(params, np.array([0.5]))[0] == pytest.approx(1.0)


def test_lipschitz_is_max_partial_sum():
    params = NetParams(
        k_plus=np.array([[1.0, 3.0]]), b_plus=np.array([[0.0, 0.5]]),
        k_minus=np.array([[-2.0, 1.0]]), b_minus=np.array([[0.0, -0.3]]),
    )
    assert ctl.lipschitz_constant(params)[0] == pytest.approx(4.0)


def test_transform_guarantees_monotone_for_random_raw():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        raw = RawParams(
            mu_plus=rng.normal(size=(n, d)),
            mu_minus=rng.normal(size=(n, d)),
            chi_plus=rng.normal(size=(n, d - 1)),
            chi_minus=rng.normal(size=(n, d - 1)),
        )
        params = ctl.transform_params(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert ctl.validate_params(params)
        x = np.sort(rng.uniform(-4.0, 4.0, size=(64, 1)), axis=0)
        u = ctl.eval_u(params, np.broadcast_to(x, (64, n)))
        assert np.all(np.diff(u, axis=0) >= -1e-12)


def test_transform_passes_through_origin():
    for seed in range(20):
        rng = np.random.default_rng(seed + 5)
        raw = ctl.init_raw_params(3, 4, rng)
        params = ctl.transform_params(raw)
        assert np.allclose(ctl.eval_u(params, np.zeros(3)), 0.0, atol=1e-15)


def test_validate_rejects_negative_partial_sum():
    params = NetParams(
        k_plus=np.array([[3.0, -5.0]]), b_plus=np.array([[0.0, 0.3]]),
        k_minus=np.array([[-1.0, 0.0]]), b_minus=np.array([[0.0, -0.5]]),
    )
    assert not ctl.validate_params(params, warn=False)


def test_validate_rejects_disordered_breakpoints():
    params = NetParams(
        k_plus=np.array([[1.0, 1.0]]), b_plus=np.array([[0.0, -0.2]]),
        k_minus=np.array([[-1.0, 0.0]]), b_minus=np.array([[0.0, -0.5]]),
    )
    assert not ctl.validate_params(params, warn=False)


@pytest.mark.parametrize("field", ["k_plus", "b_plus", "k_minus", "b_minus"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_rejects_non_finite_parameters(field, bad):
    # every chain comparison is False on NaN, so a NaN used to validate
    arrays = dict(k_plus=np.array([[1.0, 1.0]]), b_plus=np.array([[0.0, 0.2]]),
                  k_minus=np.array([[-1.0, -1.0]]), b_minus=np.array([[0.0, -0.2]]))
    assert ctl.validate_params(NetParams(**arrays), warn=False)
    arrays[field][0, 1] = bad
    assert not ctl.validate_params(NetParams(**arrays), warn=False)


def test_validate_warns_on_vanishing_slope():
    raw = RawParams(mu_plus=np.zeros((1, 1)), mu_minus=np.zeros((1, 1)),
                    chi_plus=np.zeros((1, 0)), chi_minus=np.zeros((1, 0)))
    params = ctl.transform_params(raw)
    with pytest.warns(UserWarning, match="slope partial sum"):
        assert ctl.validate_params(params)


def test_saturation_clamps_and_zeroes_slope():
    params = ctl.identity_params(n=1, u_lo=-0.5, u_hi=0.5)
    x = np.array([[-2.0], [-0.2], [0.3], [2.0]])
    u = ctl.eval_u(params, x)
    assert np.allclose(u.ravel(), [-0.5, -0.2, 0.3, 0.5])
    slopes = eval_slope(params, x).ravel()
    assert slopes[0] == 0.0 and slopes[3] == 0.0
    assert slopes[1] == 1.0 and slopes[2] == 1.0


def test_deadband_shifts_input():
    params = ctl.identity_params(n=1, dz=0.3)
    x = np.array([[-1.0], [-0.2], [0.0], [0.2], [1.0]])
    u = ctl.eval_u(params, x).ravel()
    assert np.allclose(u, [-0.7, 0.0, 0.0, 0.0, 0.7], atol=1e-15)
    slopes = eval_slope(params, x).ravel()
    assert np.allclose(slopes, [1.0, 0.0, 0.0, 0.0, 1.0])


def test_slope_matches_finite_difference_off_breakpoints():
    eps = 1e-7
    for seed in range(15):
        rng = np.random.default_rng(seed + 31)
        raw = ctl.init_raw_params(2, 3, rng)
        params = ctl.transform_params(raw)
        x = rng.uniform(-2.0, 2.0, size=(20, 2))
        fd = (ctl.eval_u(params, x + eps) - ctl.eval_u(params, x - eps)) / (2 * eps)
        slope = eval_slope(params, x)
        near_break = np.zeros_like(x, dtype=bool)
        for b in np.concatenate([params.b_plus, params.b_minus], axis=-1).T:
            near_break |= np.abs(x - b) < 10 * eps
        keep = ~near_break
        assert np.allclose(slope[keep], fd[keep], rtol=1e-6, atol=1e-6)


def test_scaled_identity_gains():
    params = ctl.scaled_identity_params([2.0, 0.0, 0.5])
    x = np.array([1.5, 1.5, 1.5])
    assert np.allclose(ctl.eval_u(params, x), [3.0, 0.0, 0.75], atol=1e-15)
    with pytest.raises(ValueError, match="nonnegative"):
        ctl.scaled_identity_params([1.0, -0.1])


def test_construct_from_samples_converges_on_tanh():
    coarse = ctl.construct_from_samples(np.tanh, 5, (-3.0, 3.0))
    fine = ctl.construct_from_samples(np.tanh, 40, (-3.0, 3.0))
    grid = np.linspace(-3.0, 3.0, 2001)[:, None]
    err_coarse = np.max(np.abs(ctl.eval_u(coarse, grid).ravel() - np.tanh(grid).ravel()))
    err_fine = np.max(np.abs(ctl.eval_u(fine, grid).ravel() - np.tanh(grid).ravel()))
    assert err_fine < err_coarse / 10


def test_construct_from_samples_interpolates_nodes():
    d = 7
    params = ctl.construct_from_samples(np.tanh, d, (-2.0, 4.0))
    for node in np.linspace(0.0, 4.0, d + 1):
        assert ctl.eval_u(params, np.array([node]))[0] == pytest.approx(
            np.tanh(node), abs=1e-12)
    for node in np.linspace(-2.0, 0.0, d + 1):
        assert ctl.eval_u(params, np.array([node]))[0] == pytest.approx(
            np.tanh(node), abs=1e-12)


@pytest.mark.parametrize("target, domain, message", [
    (np.tanh, (1.0, 3.0), "straddle the origin"),
    (lambda x: x + 1.0, (-1.0, 1.0), "pass through the origin"),
    (lambda x: -x, (-1.0, 1.0), "target not monotone"),
])
def test_construct_from_samples_rejects(target, domain, message):
    with pytest.raises(ValueError, match=message):
        ctl.construct_from_samples(target, 5, domain)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    raw = ctl.init_raw_params(3, 4, rng)
    path = tmp_path / "ctrl.json"
    ctl.save_checkpoint(path, raw, u_lo=[-1.0, -np.inf, -2.0],
                        u_hi=[1.0, np.inf, 2.0], dz=[0.0, 0.1, 0.0],
                        seed=17, meta={"epochs": 3})
    raw2, params2, doc = ctl.load_checkpoint(path)
    assert np.array_equal(raw2.mu_plus, raw.mu_plus)
    assert np.array_equal(raw2.chi_minus, raw.chi_minus)
    assert doc["seed"] == 17
    assert doc["meta"]["epochs"] == 3
    assert np.isneginf(params2.u_lo[1]) and np.isposinf(params2.u_hi[1])
    x = rng.uniform(-1, 1, 3)
    direct = ctl.transform_params(raw, u_lo=[-1.0, -np.inf, -2.0],
                                  u_hi=[1.0, np.inf, 2.0], dz=[0.0, 0.1, 0.0])
    assert np.array_equal(ctl.eval_u(params2, x), ctl.eval_u(direct, x))


def test_checkpoint_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a controller checkpoint"):
        ctl.load_checkpoint(path)


# --------------------------------------------------------------------------
# table evaluation against the stacked-ReLU oracle
# --------------------------------------------------------------------------

def relu_oracle(params, x):
    """The stacked-ReLU evaluation the tables replaced.

    Returns (u, slope, unsat, g, scale): the clamped output, the gated
    right-limit slope, the strict saturation mask, the unclamped value and
    the size of its terms, sum_j |k_j| (|x'| + |b_j|) over both sides.
    """
    x = np.asarray(x, dtype=float)
    xe = np.sign(x) * np.maximum(np.abs(x) - params.dz, 0.0)
    xcol = xe[..., None]
    relu_p = np.maximum(xcol - params.b_plus, 0.0)
    relu_m = np.maximum(params.b_minus - xcol, 0.0)
    g = (np.sum(params.k_plus * relu_p, axis=-1)
         + np.sum(params.k_minus * relu_m, axis=-1))
    slope = (np.sum(params.k_plus * (xcol >= params.b_plus), axis=-1)
             + np.sum(-params.k_minus * (xcol < params.b_minus), axis=-1))
    if np.any(params.dz > 0):
        slope = slope * ((x >= params.dz) | (x < -params.dz))
    unsat = (g < params.u_hi) & (g > params.u_lo)
    scale = (np.sum(np.abs(params.k_plus) * (np.abs(xcol) + np.abs(params.b_plus)), axis=-1)
             + np.sum(np.abs(params.k_minus) * (np.abs(xcol) + np.abs(params.b_minus)), axis=-1))
    return (np.clip(g, params.u_lo, params.u_hi), np.where(unsat, slope, 0.0),
            unsat, g, scale)


@st.composite
def policies_and_inputs(draw, dyadic):
    """A directly built NetParams (unsorted, duplicated breakpoints, finite
    or infinite saturation bounds, optional deadband) and a (B, n) input
    batch placed on breakpoints shifted by the deadband, on +-dz, at zero
    and in between.

    dyadic draws every number as a small multiple of 1/16, so that every
    sum and product is exact in any order; otherwise numbers are floats in
    [-4, 4].
    """
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 6))
    if dyadic:
        number = st.integers(-64, 64).map(lambda i: i / 16.0)
    else:
        number = st.floats(-4.0, 4.0, allow_nan=False)
    pool = draw(st.lists(number, min_size=1, max_size=2 * d))   # shared: duplicates

    def grid(shape, elements):
        return np.array(draw(st.lists(elements, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))).reshape(shape)

    b_plus = grid((n, d), st.sampled_from(pool))
    b_minus = grid((n, d), st.sampled_from(pool))
    k_plus = grid((n, d), number)
    k_minus = grid((n, d), number)
    dz = np.abs(grid((n,), st.one_of(st.just(0.0), number)))
    lo = grid((n,), st.one_of(st.just(-np.inf), number))
    hi = grid((n,), st.one_of(st.just(np.inf), number))
    params = NetParams(k_plus=k_plus, b_plus=b_plus, k_minus=k_minus,
                       b_minus=b_minus, u_lo=np.minimum(lo, hi),
                       u_hi=np.maximum(lo, hi), dz=dz)
    B = draw(st.integers(1, 5))
    x = np.empty((B, n))
    for i in range(n):
        bps = np.concatenate([b_plus[i], b_minus[i]])
        on_breakpoints = list(bps + dz[i]) + list(bps - dz[i]) + [dz[i], -dz[i], 0.0]
        x[:, i] = draw(st.lists(st.one_of(st.sampled_from(on_breakpoints), number),
                                min_size=B, max_size=B))
    return params, x


@given(policies_and_inputs(dyadic=True))
def test_tables_equal_relu_oracle_exactly_on_dyadic_inputs(case):
    params, x = case
    u, slope, unsat, _, _ = relu_oracle(params, x)
    assert np.array_equal(ctl.eval_u(params, x), u)
    assert np.array_equal(eval_slope(params, x), slope)
    t = params._tables
    assert np.array_equal(t.unsaturated(t.unclamped(x)), unsat)


@given(policies_and_inputs(dyadic=False))
def test_tables_match_relu_oracle(case):
    # the tables sum k in sorted prefix order and the oracle in its own
    # order, so values and slopes agree to rounding; the masks agree
    # exactly wherever rounding cannot move g across a bound
    params, x = case
    u, slope, unsat, g, scale = relu_oracle(params, x)
    t = params._tables
    g_tab = t.unclamped(x)
    assert np.all(np.abs(g_tab - g) <= 1e-14 * scale)
    assert np.all(np.abs(ctl.eval_u(params, x) - u) <= 1e-14 * scale)
    ksum = np.sum(np.abs(params.k_plus) + np.abs(params.k_minus), axis=-1)
    clear = ((np.abs(g - params.u_lo) > 1e-14 * scale)
             & (np.abs(g - params.u_hi) > 1e-14 * scale))
    assert np.array_equal(t.unsaturated(g_tab)[clear], unsat[clear])
    assert np.all(np.abs(eval_slope(params, x) - slope)[clear]
                  <= 1e-14 * np.broadcast_to(ksum, x.shape)[clear])


def test_tables_count_past_255_breakpoints():
    # counts are summed as uint8 up to d = 255 and in a wider type above
    rng = np.random.default_rng(5)
    params = ctl.transform_params(ctl.init_raw_params(2, 300, rng))
    x = rng.uniform(-20.0, 20.0, (50, 2))
    u, slope, _, _, scale = relu_oracle(params, x)
    assert np.all(np.abs(ctl.eval_u(params, x) - u) <= 1e-14 * scale)
    assert np.allclose(eval_slope(params, x), slope, rtol=1e-13, atol=0.0)


def test_counts_in_chunks_past_the_tile_budget(monkeypatch):
    # with room for 7 rows of tiled thresholds, 1000 rows are ranked in
    # chunks (the last one short) and give the ranks of each row alone, and
    # so do the slopes read at them; inputs broadcast against the bus axis
    # rank as their broadcast
    rng = np.random.default_rng(8)
    params = ctl.transform_params(ctl.init_raw_params(4, 5, rng), dz=0.05)
    monkeypatch.setattr(ctl, "TILE_ELEMENTS", 7 * 2 * 5 * 4)
    t = params._tables
    x = rng.uniform(-1.0, 1.0, (1000, 4))
    x[::3, 1] = params.b_plus[1, 2]
    rows = [t.index(row) for row in x]
    r = t.index(x)
    assert np.array_equal(r, rows)
    assert np.array_equal(t.slope(x, x, r), [t.slope(a, a, ra) for a, ra in zip(x, rows)])
    assert t.tiled.shape == (2 * 5, 7 * 4)
    col = x[:, :1]
    assert np.array_equal(t.index(col), t.index(np.repeat(col, 4, axis=1)))


def test_tiled_breakpoints_stay_within_the_budget():
    # a long trajectory (lyap_W evaluates every row at once) must not tile
    # the thresholds along all of its rows
    rng = np.random.default_rng(9)
    params = ctl.transform_params(ctl.init_raw_params(39, 20, rng))
    x = rng.uniform(-1.0, 1.0, (5000, 39))
    assert np.array_equal(ctl.eval_u(params, x),
                          np.array([ctl.eval_u(params, row) for row in x]))
    assert params._tables.tiled.size <= ctl.TILE_ELEMENTS


def one_sided_tables(params, x):
    """Rank, value, antiderivative and right-limit slope at x (no deadband)
    from per-side counts and one-sided prefix tables, the evaluation the
    merged tables replaced: c_plus = #(x > b_plus), c_minus = #(x < b_minus),
    the weak #(x >= b_plus) for the slope, each side's breakpoints sorted
    (ties in the caller's order) before its prefix sums."""
    n, d = params.k_plus.shape
    xcol = x[..., None]
    cp = np.sum(xcol > params.b_plus, axis=-1)
    cm = np.sum(xcol < params.b_minus, axis=-1)
    wp = np.sum(xcol >= params.b_plus, axis=-1)
    rank = cp + np.sum(xcol >= params.b_minus, axis=-1)

    def prefix(a, order):
        a = np.take_along_axis(a, order, -1)
        return np.concatenate([np.zeros((n, 1)), np.cumsum(a, -1)], -1)

    op = np.argsort(params.b_plus, axis=-1, kind="stable")
    om = np.argsort(-params.b_minus, axis=-1, kind="stable")
    K_p, K_m = prefix(params.k_plus, op), prefix(params.k_minus, om)
    C_p = prefix(params.k_plus * params.b_plus, op)
    C_m = prefix(params.k_minus * params.b_minus, om)
    E_p = 0.5 * prefix(params.k_plus * params.b_plus ** 2, op)
    E_m = -0.5 * prefix(params.k_minus * params.b_minus ** 2, om)
    bus = np.arange(n)
    k = K_p[bus, cp] + -K_m[bus, cm]
    c = -C_p[bus, cp] + C_m[bus, cm]
    kx = k * x
    big_g = (0.5 * kx + c) * x + E_p[bus, cp] + E_m[bus, cm]
    return rank, cp - cm + d, kx + c, big_g, K_p[bus, wp] - K_m[bus, cm]


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 16), d=st.sampled_from([1, 2, 3, 5, 8, 130]),
       sided=st.booleans(), repeat=st.floats(0.0, 1.0), permuted=st.booleans())
def test_merged_rank_matches_per_side_counts(seed, d, sided, repeat, permuted):
    """The rank among the merged thresholds is #(x > b_plus) + #(x >=
    b_minus), which is c_plus - c_minus + d but for NaN (rank 0), and the
    value, antiderivative and right-limit slope read at its table row equal
    the one-sided tables' at the per-side counts, bit for bit.  Breakpoints
    from transform_params with runs of repeats (chi = 0 on a random share),
    or drawn from a small pool of both signs and +-0 on either side; in the
    caller's order or shuffled.  Inputs on the breakpoints, one float to
    either side of them, +-0, +-inf, NaN and in between.  d = 130 ranks
    past 255 in a wider dtype."""
    rng = np.random.default_rng(seed)
    n = 3
    raw = ctl.init_raw_params(n, d, rng)
    for chi in (raw.chi_plus, raw.chi_minus):
        chi[rng.random(chi.shape) < repeat] = 0.0
    params = ctl.transform_params(raw)
    if not sided:
        pool = np.array([-1.5, -0.25, -0.0, 0.0, 0.25, 0.75, 2.0])
        params = replace(params, b_plus=rng.choice(pool, (n, d)),
                         b_minus=rng.choice(pool, (n, d)),
                         k_minus=rng.uniform(-1.0, 1.0, (n, d)))
    if permuted:
        perm = np.argsort(rng.random((n, d)), axis=-1)
        params = replace(params, b_plus=np.take_along_axis(params.b_plus, perm, -1),
                         b_minus=np.take_along_axis(params.b_minus, perm, -1))
    bps = np.concatenate([params.b_plus, params.b_minus], axis=1)
    pick = bps[np.arange(n), rng.integers(0, 2 * d, (60, n))]
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    x = np.where(rng.random((60, n)) < 0.5, pick, rng.uniform(-4.0, 4.0, (60, n)))
    x = np.concatenate([x, np.nextafter(pick, np.inf), np.nextafter(pick, -np.inf),
                        np.broadcast_to(special[:, None], (5, n))])
    t = params._tables
    rank, signed, g, big_g, slope = one_sided_tables(params, x)
    r = t.rank(x)
    assert r.dtype == (np.uint8 if d <= 127 else np.uint16)
    assert np.array_equal(r, rank)
    finite = ~np.isnan(x)
    assert np.array_equal(r[finite], signed[finite])
    assert np.all(r[-3] == 2 * d) and np.all(r[-2] == 0) and np.all(r[-1] == 0)
    rows = t.off + r
    got_g, got_big_g = t.antiderivative(x, rows)
    for a, b in ((t.value(x, rows), g), (got_g, g), (got_big_g, big_g)):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert np.isnan(g[-1]).all()
    assert np.array_equal(t.slope(x, x, rows)[finite].view(np.uint64),
                          slope[finite].view(np.uint64))


def oracle_backprop(tape, net, costs):
    """training.backprop with per-step stacked-ReLU products for the
    parameter adjoints, as before the histogram form."""
    cfg, params, raw = tape.cfg, tape.params, tape.raw
    B, n = tape.p.shape
    g, ll = net.gens, net.loads
    L, h = cfg.steps, cfg.h
    two_pi_f0 = 2.0 * np.pi * net.f0
    inv_m = 1.0 / net.m
    g_theta, g_w, g_s = np.zeros((B, n)), np.zeros((B, len(g))), np.zeros((B, n))
    gk_p, gb_p = np.zeros_like(params.k_plus), np.zeros_like(params.b_plus)
    gk_m, gb_m = np.zeros_like(params.k_minus), np.zeros_like(params.b_minus)
    for l in range(L - 1, -1, -1):
        g_w = g_w + np.where(tape.nadir_step == l, tape.nadir_sign, 0.0)
        sl = tape.s[l]
        u, slope, unsat, _, _ = relu_oracle(params, sl)
        xcol = (np.sign(sl) * np.maximum(np.abs(sl) - params.dz, 0.0))[..., None]
        relu_p = np.maximum(xcol - params.b_plus, 0.0)
        relu_m = np.maximum(params.b_minus - xcol, 0.0)
        pg = g_theta - g_theta.mean(axis=-1, keepdims=True)
        a_omega = two_pi_f0 * h * pg - two_pi_f0 * h * g_s
        a_u, a_flows = np.zeros((B, n)), np.zeros((B, n))
        a_u[:, g] += h * inv_m * g_w
        a_flows[:, g] -= h * inv_m * g_w
        a_wl = a_omega[:, ll] / net.alpha[ll]
        a_u[:, ll] += a_wl
        a_flows[:, ll] -= a_wl
        a_u += costs.curvature(u) * (-h * trn.comm_laplacian_apply(net, costs.zeta * g_s))
        a_u += (cfg.rho / L) * costs.grad(u)
        a_eff = (a_u * unsat)[..., None]
        gk_p += np.sum(a_eff * relu_p, axis=0)
        gb_p += np.sum(a_eff * (-params.k_plus) * (relu_p > 0), axis=0)
        gk_m += np.sum(a_eff * relu_m, axis=0)
        gb_m += np.sum(a_eff * params.k_minus * (relu_m > 0), axis=0)
        g_s = g_s + slope * a_u
        g_w = (1.0 - h * net.alpha[g] * inv_m) * g_w + a_omega[:, g]
        g_theta = g_theta + trn.flow_jacobian_apply(net, tape.theta[l], a_flows)
    gk_p, gb_p, gk_m, gb_m = gk_p / B, gb_p / B, gk_m / B, gb_m / B

    def shifted(a):
        return a - np.concatenate([a[:, 1:], np.zeros((n, 1))], axis=1)

    def tail(a):
        return np.cumsum(a[:, ::-1], axis=1)[:, ::-1][:, 1:]

    return RawParams(mu_plus=2.0 * raw.mu_plus * shifted(gk_p),
                     mu_minus=-2.0 * raw.mu_minus * shifted(gk_m),
                     chi_plus=2.0 * raw.chi_plus * tail(gb_p),
                     chi_minus=-2.0 * raw.chi_minus * tail(gb_m))


@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 16), masked=st.booleans(), permuted=st.booleans())
def test_histogram_adjoint_matches_per_step_products(seed, masked, permuted):
    """A small random rollout from a random integral state (inputs across
    the breakpoints, some chi zero so breakpoints repeat), optionally with
    saturation and a deadband, and optionally with each bus's (k, b) pairs
    shuffled on the tape: the same policies with unsorted breakpoints, so
    the histograms have to be mapped back to the caller's order."""
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
    assert_matches_oracle_backprop(tape, net, costs)


def assert_matches_oracle_backprop(tape, net, costs):
    new, old = trn.backprop(tape, net, costs), oracle_backprop(tape, net, costs)
    for f in ("mu_plus", "mu_minus", "chi_plus", "chi_minus"):
        a, b = getattr(new, f), getattr(old, f)
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * max(np.max(np.abs(b), initial=0.0), 1e-300), f


def test_histogram_adjoint_matches_per_step_products_past_127_breakpoints():
    # at d = 130 the tape stores its ranks r = c_plus - c_minus + d as
    # uint16; integral states spread over the breakpoints reach counts above
    # 127 on both sides, so ranks past 255
    rng = np.random.default_rng(130)
    net = random_connected_net(130, buses=3)
    costs = cm.random_power_costs(net.n, rng)
    raw = ctl.init_raw_params(net.n, 130, rng)
    cfg = TrainConfig(d=130, h=1e-3, T=0.01, batch_size=6, seed=0)
    p = rng.uniform(-2.0, 2.0, (6, net.n))
    initial = np.zeros((3, 6, net.n))
    initial[2] = rng.uniform(-8.0, 8.0, (6, net.n))
    _, tape = trn.rollout_loss(net, costs, raw, p, cfg, initial)
    assert tape.count.dtype == np.uint16
    assert tape.count.max() > 130 + 127 and tape.count.min() < 130 - 127
    assert_matches_oracle_backprop(tape, net, costs)
