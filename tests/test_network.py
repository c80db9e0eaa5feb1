import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridfreq import network
from gridfreq.network import NetworkError

from conftest import (dense_comm_laplacian, two_bus, three_bus, nine_bus,
                      random_connected_net)


def test_bus_bookkeeping():
    net = three_bus()
    assert net.n == 3
    assert net.n_gen == 2
    assert net.ids == (1, 2, 3)
    assert list(net.gens) == [0, 1]
    assert list(net.loads) == [2]
    assert net.index_of(3) == 2
    with pytest.raises(NetworkError, match="unknown bus id"):
        net.index_of(99)


def test_ids_sorted_regardless_of_input_order():
    net = network.network_from_dict({
        "buses": [
            {"id": 7, "kind": "load", "alpha": 1.0},
            {"id": 2, "kind": "gen", "m": 3.0, "alpha": 1.0},
        ],
        "lines": [{"i": 7, "j": 2, "B": 1.0}],
    })
    assert net.ids == (2, 7)
    assert list(net.gens) == [0]


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("lines"), "'buses' and 'lines'"),
    (lambda d: d["buses"].append({"id": 1, "kind": "load", "alpha": 1.0}),
     "duplicate bus id"),
    (lambda d: d["buses"][0].update(kind="slack"), "kind must be"),
    (lambda d: d["buses"][0].update(alpha=0.0), "alpha must be positive"),
    (lambda d: d["buses"][0].pop("m"), "missing inertia"),
    (lambda d: d["buses"][2].update(m=1.0), "inertia m not allowed"),
    (lambda d: d["lines"].append({"i": 2, "j": 2, "B": 1.0}), "to itself"),
    (lambda d: d["lines"].append({"i": 3, "j": 1, "B": -1.0}),
     "negative susceptance"),
    (lambda d: d["lines"].__setitem__(0, {"i": 1, "j": 2, "B": 0.0}),
     "zero-weight"),
    (lambda d: d.update(base={"f0": 0.0}), "f0 must be positive"),
])
def test_validation_errors(mutate, message):
    doc = {
        "buses": [
            {"id": 1, "kind": "gen", "m": 4.0, "alpha": 1.2},
            {"id": 2, "kind": "gen", "m": 3.0, "alpha": 0.8},
            {"id": 3, "kind": "load", "alpha": 1.5},
        ],
        "lines": [{"i": 1, "j": 2, "B": 2.0}, {"i": 2, "j": 3, "B": 1.5}],
    }
    mutate(doc)
    with pytest.raises(NetworkError, match=message):
        network.network_from_dict(doc)


@pytest.mark.parametrize("section, field", [("lines", "i"), ("comm", "j")])
def test_an_edge_naming_an_unknown_bus_is_refused_naming_the_id_and_field(
        section, field):
    edge = {"i": 1, "j": 2, "B" if section == "lines" else "Q": 1.0}
    edge[field] = 9999
    doc = {
        "buses": [
            {"id": 1, "kind": "gen", "m": 4.0, "alpha": 1.2},
            {"id": 2, "kind": "load", "alpha": 1.5},
        ],
        "lines": [{"i": 1, "j": 2, "B": 2.0}],
    }
    doc.setdefault(section, []).append(edge)
    with pytest.raises(NetworkError, match=f"unknown bus id 9999 in field '{field}'"):
        network.network_from_dict(doc)


def test_asymmetric_duplicate_line_rejected():
    doc = {
        "buses": [
            {"id": 1, "kind": "gen", "m": 4.0, "alpha": 1.2},
            {"id": 2, "kind": "gen", "m": 3.0, "alpha": 0.8},
        ],
        "lines": [{"i": 1, "j": 2, "B": 2.0}, {"i": 2, "j": 1, "B": 3.0}],
    }
    with pytest.raises(NetworkError, match="asymmetric"):
        network.network_from_dict(doc)


def test_disconnected_graph_rejected():
    doc = {
        "buses": [
            {"id": 1, "kind": "gen", "m": 4.0, "alpha": 1.2},
            {"id": 2, "kind": "gen", "m": 3.0, "alpha": 0.8},
            {"id": 3, "kind": "load", "alpha": 1.5},
            {"id": 4, "kind": "load", "alpha": 1.5},
        ],
        "lines": [{"i": 1, "j": 2, "B": 2.0}, {"i": 3, "j": 4, "B": 1.0}],
    }
    with pytest.raises(NetworkError, match="physical graph is disconnected: "
                       "bus 3 cannot be reached from bus 1"):
        network.network_from_dict(doc)


def test_disconnected_graphs_name_the_lowest_unreachable_bus():
    # buses listed out of id order; 5 and 7 form an island, and so does 9
    # on the communication graph (its only comm edge has weight zero)
    doc = {
        "buses": [
            {"id": 9, "kind": "load", "alpha": 1.5},
            {"id": 7, "kind": "load", "alpha": 1.5},
            {"id": 5, "kind": "gen", "m": 3.0, "alpha": 0.8},
            {"id": 2, "kind": "gen", "m": 4.0, "alpha": 1.2},
        ],
        "lines": [{"i": 7, "j": 5, "B": 1.0}, {"i": 9, "j": 2, "B": 2.0}],
    }
    with pytest.raises(NetworkError, match="physical graph is disconnected: "
                       "bus 5 cannot be reached from bus 2"):
        network.network_from_dict(doc)
    doc["lines"].append({"i": 5, "j": 9, "B": 1.0})
    doc["comm"] = [{"i": 2, "j": 5, "Q": 1.0}, {"i": 5, "j": 7, "Q": 1.0},
                   {"i": 9, "j": 2, "Q": 0.0}]
    with pytest.raises(NetworkError, match="communication graph is disconnected: "
                       "bus 9 cannot be reached from bus 2"):
        network.network_from_dict(doc)


def test_all_load_network_rejected():
    doc = {
        "buses": [
            {"id": 1, "kind": "load", "alpha": 1.0},
            {"id": 2, "kind": "load", "alpha": 1.0},
        ],
        "lines": [{"i": 1, "j": 2, "B": 1.0}],
    }
    with pytest.raises(NetworkError, match="at least one generator"):
        network.network_from_dict(doc)


def test_comm_graph_must_connect_on_positive_weights():
    doc = {
        "buses": [
            {"id": 1, "kind": "gen", "m": 4.0, "alpha": 1.2},
            {"id": 2, "kind": "gen", "m": 3.0, "alpha": 0.8},
            {"id": 3, "kind": "load", "alpha": 1.5},
        ],
        "lines": [{"i": 1, "j": 2, "B": 2.0}, {"i": 2, "j": 3, "B": 1.5}],
        "comm": [{"i": 1, "j": 2, "Q": 1.0}, {"i": 2, "j": 3, "Q": 0.0}],
    }
    with pytest.raises(NetworkError, match="communication graph is disconnected: "
                       "bus 3 cannot be reached from bus 1"):
        network.network_from_dict(doc)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "buses": [\n  {"id": 1,, "kind": "gen"}\n ]\n}\n')
    with pytest.raises(NetworkError, match="parse error at line 3"):
        network.load_network(path)


def test_default_comm_is_physical_with_unit_weights():
    net = three_bus()
    lap = dense_comm_laplacian(net)
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.allclose(lap, expected, atol=1e-15)


def test_two_bus_flow_closed_form():
    net = two_bus(b=1.0)
    for angle in (-0.7, -0.2, 0.0, 0.3, 1.1):
        delta = np.array([angle / 2, -angle / 2])
        flows = network.power_flows(net, delta)
        assert flows[0] == pytest.approx(np.sin(angle), abs=1e-15)
        assert flows[1] == pytest.approx(-np.sin(angle), abs=1e-15)


def test_flows_sum_to_zero():
    for seed in range(20):
        net = random_connected_net(seed, buses=3 + seed % 5)
        rng = np.random.default_rng(seed + 100)
        delta = network.to_center_of_inertia(rng.uniform(-0.5, 0.5, net.n))
        flows = network.power_flows(net, delta)
        assert abs(flows.sum()) < 1e-12


@given(st.integers(0, 10 ** 6), st.integers(2, 12), st.floats(0.01, 3.0),
       st.floats(-10.0, 10.0))
def test_flows_sum_to_zero_and_ignore_a_uniform_shift_on_random_networks(
        net_seed, buses, spread, shift):
    net = random_connected_net(net_seed, buses=buses)
    delta = np.random.default_rng(net_seed).uniform(-spread, spread, net.n)
    flows = network.power_flows(net, delta)
    # every line's flow leaves one end and enters the other, and the shift
    # cancels in each angle difference up to the rounding of delta + shift
    total = np.abs(net.line_w).sum()
    assert abs(flows.sum()) <= 8 * np.finfo(float).eps * total
    moved = network.power_flows(net, delta + shift)
    tol = 8 * np.finfo(float).eps * (spread + abs(shift)) * total
    assert np.all(np.abs(moved - flows) <= tol)


def test_power_flows_batched():
    net = nine_bus()
    rng = np.random.default_rng(0)
    delta = rng.uniform(-0.3, 0.3, size=(7, net.n))
    batched = network.power_flows(net, delta)
    assert batched.shape == (7, net.n)
    for k in range(7):
        assert np.allclose(batched[k], network.power_flows(net, delta[k]),
                           atol=1e-15)


def test_flows_are_potential_gradient():
    eps = 1e-6
    for seed in range(10):
        net = random_connected_net(seed, buses=4)
        rng = np.random.default_rng(seed)
        delta = rng.uniform(-0.4, 0.4, net.n)
        flows = network.power_flows(net, delta)
        for i in range(net.n):
            bump = np.zeros(net.n)
            bump[i] = eps
            fd = (network.potential_energy(net, delta + bump)
                  - network.potential_energy(net, delta - bump)) / (2 * eps)
            assert fd == pytest.approx(flows[i], abs=5e-9)


def test_flow_jacobian_matches_finite_differences():
    eps = 1e-6
    for seed in range(6):
        net = random_connected_net(seed, buses=4)
        rng = np.random.default_rng(seed + 7)
        delta = rng.uniform(-0.3, 0.3, net.n)
        jac = network.flow_jacobian(net, delta)
        assert np.allclose(jac, jac.T, atol=1e-14)
        for i in range(net.n):
            bump = np.zeros(net.n)
            bump[i] = eps
            col = (network.power_flows(net, delta + bump)
                   - network.power_flows(net, delta - bump)) / (2 * eps)
            assert np.allclose(jac[:, i], col, atol=5e-9)


def test_flow_jacobian_apply_matches_dense():
    for seed in range(8):
        net = random_connected_net(seed, buses=5)
        rng = np.random.default_rng(seed + 3)
        delta = rng.uniform(-0.3, 0.3, net.n)
        x = rng.normal(size=net.n)
        dense = network.flow_jacobian(net, delta) @ x
        assert np.allclose(network.flow_jacobian_apply(net, delta, x), dense,
                           atol=1e-13)


def test_flow_jacobian_psd_inside_security_region():
    for seed in range(6):
        net = random_connected_net(seed, buses=4)
        rng = np.random.default_rng(seed + 11)
        delta = network.to_center_of_inertia(rng.uniform(-0.35, 0.35, net.n))
        assert network.edge_angle_spread(net, delta) < np.pi / 2
        eig = np.linalg.eigvalsh(network.flow_jacobian(net, delta))
        assert eig.min() > -1e-12
        assert eig[0] == pytest.approx(0.0, abs=1e-12)  # gauge null direction


def test_gauge_projection():
    drifted = network.to_center_of_inertia(np.array([0.3, -0.1, 0.2])) + 1e-6
    out = network.project_gauge(drifted)
    assert abs(out.mean()) < 1e-15
    clean = network.to_center_of_inertia(np.array([0.3, -0.1, 0.2]))
    assert np.allclose(network.project_gauge(clean), clean, atol=0)


def test_gauge_drift_error():
    delta = np.array([0.3, 0.4, 0.5]) + 0.01
    with pytest.raises(NetworkError, match="angle gauge drift"):
        network.project_gauge(delta)


def test_center_of_inertia_removes_mean():
    rng = np.random.default_rng(1)
    for _ in range(5):
        theta = rng.normal(size=6)
        out = network.to_center_of_inertia(theta)
        assert abs(out.mean()) < 1e-15
        assert np.allclose(np.diff(out), np.diff(theta), atol=1e-15)


def test_scaled_laplacian_bilinear_matches_dense():
    for seed in range(10):
        net = random_connected_net(seed, buses=5)
        rng = np.random.default_rng(seed + 23)
        zeta = rng.uniform(0.5, 2.0, net.n)
        x = rng.normal(size=net.n)
        y = rng.normal(size=net.n)
        dense = (zeta * x) @ dense_comm_laplacian(net) @ y
        assert network.scaled_laplacian_bilinear(net, zeta, x, y) == pytest.approx(
            dense, abs=1e-10)


def test_comm_laplacian_apply_matches_dense():
    for seed in range(6):
        net = random_connected_net(seed, buses=5)
        rng = np.random.default_rng(seed)
        y = rng.normal(size=net.n)
        assert np.allclose(network.comm_laplacian_apply(net, y),
                           dense_comm_laplacian(net) @ y, atol=1e-13)


@given(st.integers(0, 10 ** 6), st.integers(2, 12),
       st.sampled_from([(), (1,), (7,), (64,)]))
def test_incidence_kernels_match_the_transposed_views_bit_for_bit(
        net_seed, buses, batch):
    # the kernels take edge differences against cached C-contiguous copies
    # of the incidence transposes; the .T views give the same bits
    net = random_connected_net(net_seed, buses=buses)
    for inc, inc_t in ((net._line_inc, net._line_inc_t),
                       (net._comm_inc, net._comm_inc_t)):
        assert inc_t.flags.c_contiguous and np.array_equal(inc_t, inc.T)
    delta, x, y = np.random.default_rng(net_seed).uniform(
        -1.0, 1.0, (3,) + batch + (net.n,))
    line_t, comm_t = net._line_inc.T, net._comm_inc.T
    w = net.line_w * np.cos(delta @ line_t)
    pairs = [
        (network.power_flows(net, delta),
         (net.line_w * np.sin(delta @ line_t)) @ net._line_inc),
        (network.line_weights(net, delta), w),
        (network.flow_jacobian_apply(net, delta, x),
         (w * (x @ line_t)) @ net._line_inc),
        (network.comm_laplacian_apply(net, y),
         (net.comm_q * (y @ comm_t)) @ net._comm_inc),
    ]
    for got, want in pairs:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_replace_recomputes_the_derived_arrays():
    # dataclasses.replace builds a new network through __post_init__, so its
    # line weights, inertia and incidences are those of the new fields: the
    # flows at doubled B equal a freshly loaded network's with that B
    path = resources.files("gridfreq") / "data" / "case39.json"
    doc = json.loads(path.read_text())
    net = network.network_from_dict(doc)
    for line in doc["lines"]:
        line["B"] *= 2.0
    fresh = network.network_from_dict(doc)
    doubled = replace(net, line_b=2.0 * net.line_b)
    delta = network.to_center_of_inertia(
        np.random.default_rng(3).uniform(-0.3, 0.3, (4, net.n)))
    assert doubled.line_w.tobytes() == fresh.line_w.tobytes()
    assert (network.power_flows(doubled, delta).tobytes()
            == network.power_flows(fresh, delta).tobytes())
    assert not np.allclose(network.power_flows(net, delta),
                           network.power_flows(fresh, delta))
    heavier = replace(net, m=3.0 * net.m)
    assert np.array_equal(heavier.inertia[net.gens], 3.0 * net.m)
    assert np.array_equal(heavier.inertia[net.loads], net.inertia[net.loads])


def test_edge_angle_spread():
    net = three_bus()
    delta = np.array([0.2, -0.1, 0.05])
    spread = network.edge_angle_spread(net, delta)
    assert spread == pytest.approx(0.3, abs=1e-15)


def test_packaged_case39_loads():
    import importlib.resources as resources
    path = resources.files("gridfreq") / "data" / "case39.json"
    net = network.load_network(str(path))
    assert net.n == 39
    assert net.n_gen == 10
    assert len(net.line_i) == 46
    assert net.alpha.sum() == pytest.approx(4400.0)
    gen_ids = {net.ids[i] for i in net.gens}
    assert gen_ids == set(range(30, 40))
    # inertia stores m = 2H per generator; the big equivalent sits at bus 39
    gen_pos = list(net.gens).index(net.index_of(39))
    assert net.m[gen_pos] == pytest.approx(1000.0)
