import numpy as np
import pytest

from gridfreq import costs as cm
from gridfreq.costs import CostError

from conftest import bisect_increasing


def test_power_family_values_and_derivatives():
    model = cm.power_costs(4, np.array([2.0, 0.5]), b=np.array([0.1, 0.0]))
    u = np.array([1.5, -2.0])
    assert np.allclose(model.values(u), [(2.0 / 4) * 1.5**4 + 0.1,
                                         (0.5 / 4) * 16.0], atol=1e-14)
    assert np.allclose(model.grad(u), [2.0 * 1.5**3, 0.5 * (-2.0) ** 3],
                       atol=1e-14)
    assert np.allclose(model.curvature(u), [2.0 * 3 * 1.5**2, 0.5 * 3 * 4.0],
                       atol=1e-14)


def test_quadratic_is_power_r2():
    model = cm.quadratic_costs(np.array([3.0, 1.0]))
    assert model.family == "quadratic"
    assert model.r == 2
    u = np.array([0.7, -0.4])
    assert np.allclose(model.grad(u), model.c * u, atol=1e-15)
    assert np.allclose(model.curvature(u), model.c, atol=1e-15)


def test_shifted_common_has_unit_zeta():
    model = cm.shifted_common_costs(6, 4, b=np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(model.zeta, 1.0)
    assert np.allclose(model.values(np.zeros(4)), [1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("family, r, c, message", [
    ("cubic", 2, [1.0], "unknown cost family"),
    ("power", 3, [1.0], "even integer"),
    ("power", 0, [1.0], "even integer"),
    ("quadratic", 4, [1.0], "quadratic family requires r = 2"),
    ("power", 4, [1.0, 0.0], "strictly positive"),
    ("power", 4, [-1.0], "strictly positive"),
    ("shifted_common", 4, [1.0, 1.1], "requires c = 1"),
    ("power", 4, [1.0, np.nan], "strictly positive"),
])
def test_invalid_models_rejected(family, r, c, message):
    with pytest.raises(CostError, match=message):
        cm.CostModel(family=family, r=r, c=np.asarray(c, dtype=float),
                     b=np.zeros(len(c)))


def test_zeta_links_bus_marginal_to_common_marginal():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        r = int(rng.choice([2, 4, 6]))
        model = cm.power_costs(r, rng.uniform(0.2, 3.0, 5))
        u = rng.uniform(-2.0, 2.0, 5)
        assert np.allclose(model.grad(u), model.common_grad(model.zeta * u),
                           rtol=1e-12, atol=1e-12)


def test_grad_matches_finite_difference_of_values():
    eps = 1e-6
    for seed in range(10):
        rng = np.random.default_rng(seed + 50)
        model = cm.power_costs(4, rng.uniform(0.3, 2.0, 3),
                               b=rng.uniform(0.0, 1.0, 3))
        u = rng.uniform(-1.5, 1.5, 3)
        fd = (model.values(u + eps) - model.values(u - eps)) / (2 * eps)
        assert np.allclose(model.grad(u), fd, rtol=1e-7, atol=1e-7)


def test_curvature_matches_finite_difference_of_grad():
    eps = 1e-6
    for seed in range(10):
        rng = np.random.default_rng(seed + 80)
        model = cm.power_costs(6, rng.uniform(0.3, 2.0, 3))
        u = rng.uniform(-1.5, 1.5, 3)
        fd = (model.grad(u + eps) - model.grad(u - eps)) / (2 * eps)
        assert np.allclose(model.curvature(u), fd, rtol=1e-6, atol=1e-6)


def test_grad_inverse_roundtrip():
    for seed in range(20):
        rng = np.random.default_rng(seed + 7)
        r = int(rng.choice([2, 4, 6]))
        model = cm.power_costs(r, rng.uniform(0.2, 3.0, 4))
        u = rng.uniform(-2.0, 2.0, 4)
        assert np.allclose(model.grad_inverse(model.grad(u)), u,
                           rtol=1e-10, atol=1e-10)


def test_common_grad_inverse_bisection_matches_analytic():
    model = cm.power_costs(4, np.array([1.0]))
    for seed in range(15):
        rng = np.random.default_rng(seed)
        y = rng.uniform(-5.0, 5.0)
        analytic = model.common_grad_inverse(y)
        bisected = bisect_increasing(model.common_grad, y)
        assert bisected == pytest.approx(analytic, abs=1e-9)


def test_common_grad_inverse_bisection_array():
    model = cm.power_costs(6, np.ones(3))
    y = np.array([-2.0, 0.5, 8.0])
    assert np.allclose(bisect_increasing(model.common_grad, y),
                       model.common_grad_inverse(y), atol=1e-9)


def test_bisection_bracket_exhaustion():
    with pytest.raises(CostError, match="gradient range exhausted"):
        bisect_increasing(np.tanh, 2.0)


def test_common_grad_is_odd_and_increasing():
    model = cm.power_costs(4, np.ones(1))
    y = np.linspace(-3.0, 3.0, 41)
    g = model.common_grad(y)
    assert np.allclose(g, -model.common_grad(-y), atol=1e-14)
    assert np.all(np.diff(g) > 0)


def test_random_power_costs_deterministic_and_valid():
    a = cm.random_power_costs(8, np.random.default_rng(4))
    b = cm.random_power_costs(8, np.random.default_rng(4))
    assert np.array_equal(a.c, b.c)
    assert np.array_equal(a.b, b.b)
    assert a.r == 4
    assert np.all(a.c > 0)
    assert np.all((a.b >= 0) & (a.b <= 1e-3))


def test_batched_evaluation_broadcasts():
    model = cm.power_costs(4, np.array([1.0, 2.0, 0.5]))
    u = np.random.default_rng(3).uniform(-1, 1, size=(6, 3))
    vals = model.values(u)
    assert vals.shape == (6, 3)
    for k in range(6):
        assert np.allclose(vals[k], model.values(u[k]), atol=1e-15)


@pytest.mark.parametrize("r", [2, 4, 6, 8])
def test_power_kernels_match_pow_forms(r):
    # grad, values and curvature multiply u by itself instead of calling pow;
    # they agree with the ** forms to 4 ulp of each entry, over eight decades
    rng = np.random.default_rng(r)
    model = cm.power_costs(r, rng.uniform(0.1, 3.0, 7), b=rng.uniform(0.0, 1e-3, 7))
    u = rng.uniform(-3.0, 3.0, (2000, 7)) * 10.0 ** rng.uniform(-4.0, 4.0, (2000, 7))
    for new, ref in ((model.grad(u), model.c * u ** (r - 1)),
                     (model.values(u), (model.c / r) * u ** r + model.b),
                     (model.curvature(u), model.c * (r - 1) * u ** (r - 2))):
        assert new.shape == u.shape
        assert np.all(np.abs(new - ref) <= 4 * np.spacing(np.abs(ref)))
    assert np.allclose(model.grad_inverse(model.grad(u)), u, rtol=1e-12, atol=0.0)
