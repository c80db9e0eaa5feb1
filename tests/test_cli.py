"""Command-line interface: exit codes, manifests, file outputs, plotting.

Everything runs `gridfreq.cli.main(argv)` in-process so exit codes are the
function's return value; one test drives the module through a real
subprocess to pin down the installed entry point's returncode behaviour.
"""

import argparse
import dataclasses
import json
from importlib import resources
import hashlib
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gridfreq import (cli, controller, costs as costs_mod, dynamics, equilibrium,
                      lyapunov, network, training)
from gridfreq.cli import main

from conftest import three_bus, two_bus

TWO_BUS = {
    "buses": [
        {"id": 1, "kind": "gen", "m": 3.0, "alpha": 1.0, "v": 1.0},
        {"id": 2, "kind": "gen", "m": 2.0, "alpha": 1.5, "v": 1.0},
    ],
    "lines": [{"i": 1, "j": 2, "B": 1.0}],
    "base": {"f0": 50.0},
}

THREE_BUS = {
    "buses": [
        {"id": 1, "kind": "gen", "m": 4.0, "alpha": 1.2, "v": 1.0},
        {"id": 2, "kind": "gen", "m": 3.0, "alpha": 0.8, "v": 1.0},
        {"id": 3, "kind": "load", "alpha": 1.5, "v": 1.0},
    ],
    "lines": [{"i": 1, "j": 2, "B": 2.0}, {"i": 2, "j": 3, "B": 1.5}],
    "base": {"f0": 50.0},
}


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture
def net2_file(tmp_path):
    return write_json(tmp_path / "two_bus.json", TWO_BUS)


@pytest.fixture
def net3_file(tmp_path):
    return write_json(tmp_path / "three_bus.json", THREE_BUS)


@pytest.fixture
def quartic_costs_file(tmp_path):
    return write_json(tmp_path / "costs3.json",
                      {"family": "power", "r": 4, "c": [1.0, 8.0, 1.0]})


@pytest.fixture
def quad2_costs_file(tmp_path):
    return write_json(tmp_path / "costs2.json",
                      {"family": "quadratic", "r": 2, "c": [1.0, 1.0]})


# --------------------------------------------------------------------------
# exit codes and argument parsing
# --------------------------------------------------------------------------

def test_help_returns_zero(capsys):
    assert main(["--help"]) == 0
    assert "equilibrium" in capsys.readouterr().out


def test_no_arguments_returns_two(capsys):
    assert main([]) == 2


def test_unknown_subcommand_returns_two(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_argument_returns_two(capsys):
    assert main(["plot"]) == 2


@pytest.mark.parametrize("sub", ["equilibrium", "simulate", "certify"])
def test_mode_dai_linear_is_rejected_by_the_parser(sub, tmp_path, net2_file,
                                                    capsys):
    # no flag supplies dai_linear's per-bus gains, so the CLI does not offer it
    code = main([sub, "--net", net2_file, "--p", "[0.4, -0.4]",
                 "--mode", "dai_linear", "--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    # the quoting of the choices differs between Python versions
    assert "invalid choice" in err and "dai_linear" in err
    assert "choose from" in err and "dai_general" in err and "primary" in err
    assert not (tmp_path / "manifest.json").exists()


def test_domain_error_returns_one(tmp_path, net2_file, capsys):
    # the single line (B = 1) cannot carry a 1.5 pu transfer
    code = main(["equilibrium", "--net", net2_file, "--p", "[1.5, -1.5]",
                 "--outdir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_shifted_common_costs_with_unequal_c_return_one(tmp_path, net2_file,
                                                       capsys):
    # the family's zeta is all ones, so c != 1 would spread the marginals
    costs = write_json(tmp_path / "costs.json",
                       {"family": "shifted_common", "r": 4, "c": [1.0, 1.1]})
    code = main(["equilibrium", "--net", net2_file, "--costs", costs,
                 "--p", "[0.2, -0.4]", "--outdir", str(tmp_path)])
    assert code == 1
    assert "requires c = 1" in capsys.readouterr().err


def test_missing_network_file_returns_one(tmp_path, capsys):
    code = main(["equilibrium", "--net", str(tmp_path / "nope.json"),
                 "--p", "[0.0]", "--outdir", str(tmp_path)])
    assert code == 1


def test_subprocess_returncodes(tmp_path, net2_file):
    base = [sys.executable, "-m", "gridfreq.cli"]
    ok = subprocess.run(base + ["equilibrium", "--net", net2_file,
                                "--p", "[0.4, -0.4]",
                                "--outdir", str(tmp_path)],
                        capture_output=True, text=True)
    assert ok.returncode == 0
    assert "gamma" in ok.stdout
    bad = subprocess.run(base + ["frobnicate"], capture_output=True, text=True)
    assert bad.returncode == 2


# --------------------------------------------------------------------------
# disturbance argument parsing
# --------------------------------------------------------------------------

def test_disturbance_inline_dense_list():
    net = three_bus()
    p = cli._load_disturbance(net, "[0.1, -0.2, 0.3]")
    assert np.array_equal(p, [0.1, -0.2, 0.3])


def test_disturbance_inline_sparse_dict():
    net = three_bus()
    p = cli._load_disturbance(net, '{"2": -0.5}')
    assert np.array_equal(p, [0.0, -0.5, 0.0])


def test_disturbance_inline_wrapped():
    net = three_bus()
    p = cli._load_disturbance(net, '{"p": {"1": 1.0, "3": -1.0}}')
    assert np.array_equal(p, [1.0, 0.0, -1.0])


def test_disturbance_from_file(tmp_path):
    net = three_bus()
    path = write_json(tmp_path / "dist.json", {"p": [0.0, 0.25, -0.25]})
    p = cli._load_disturbance(net, path)
    assert np.array_equal(p, [0.0, 0.25, -0.25])


def test_disturbance_rejects_garbage():
    net = three_bus()
    with pytest.raises(ValueError, match="neither a file nor valid JSON"):
        cli._load_disturbance(net, "not json at all")


def test_disturbance_rejects_wrong_length():
    net = three_bus()
    with pytest.raises(ValueError, match="expected 3 values"):
        cli._load_disturbance(net, "[1.0]")


@pytest.mark.parametrize("p, message", [
    ('{"2": "x"}', "--p: bus 2: could not convert string to float: 'x'"),
    ('{"9999": -1.0}', "--p: bus 9999: unknown bus id 9999"),
    ('[0.1, "x", 0.0]', "--p: could not convert string to float: 'x'"),
    ('{"3": 0.5, "2": NaN}', "--p: bus 2: must be finite, got nan"),
    ('{"p": {"1": -Infinity}}', "--p: bus 1: must be finite, got -inf"),
    ('[0.1, Infinity, NaN]', "--p: bus 2: must be finite, got inf"),
], ids=["non-numeric-value", "unknown-bus", "non-numeric-list-entry",
        "nan-value", "infinite-value", "non-finite-list-entry"])
def test_a_bad_disturbance_entry_is_refused_naming_p_and_the_bus(
        tmp_path, net3_file, quad3_costs_file, capsys, p, message):
    code = main(["equilibrium", "--net", net3_file, "--costs", quad3_costs_file,
                 "--p", p, "--outdir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "manifest.json").exists()


# --------------------------------------------------------------------------
# equilibrium subcommand
# --------------------------------------------------------------------------

def test_equilibrium_prints_known_solution(tmp_path, net3_file,
                                           quartic_costs_file, capsys):
    code = main(["equilibrium", "--net", net3_file,
                 "--costs", quartic_costs_file,
                 "--p", "[-1.0, -0.5, -0.5]",
                 "--outdir", str(tmp_path), "--csv", "eq.csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.512" in out                      # marginal price
    assert "residuals" in out
    rows = (tmp_path / "eq.csv").read_text().strip().splitlines()
    assert rows[0] == "bus,u_star,delta_star,s_star"
    assert len(rows) == 4
    u_star = [float(r.split(",")[1]) for r in rows[1:]]
    assert np.allclose(u_star, [0.8, 0.4, 0.8], atol=1e-9)


def test_equilibrium_csv_roundtrips_exact_floats(tmp_path, net3_file,
                                                 quartic_costs_file, capsys):
    main(["equilibrium", "--net", net3_file, "--costs", quartic_costs_file,
          "--p", "[-1.0, -0.5, -0.5]", "--outdir", str(tmp_path),
          "--csv", "eq.csv"])
    rows = (tmp_path / "eq.csv").read_text().strip().splitlines()[1:]
    total = sum(float(r.split(",")[1]) for r in rows)
    assert total == pytest.approx(2.0, abs=1e-10)


# --------------------------------------------------------------------------
# simulate subcommand
# --------------------------------------------------------------------------

def test_simulate_writes_golden_header_and_manifest(tmp_path, net2_file,
                                                    quad2_costs_file, capsys):
    code = main(["simulate", "--net", net2_file, "--costs", quad2_costs_file,
                 "--p", "[-0.2, 0.1]", "--T", "0.01", "--h", "1e-3",
                 "--outdir", str(tmp_path), "--out", "traj.csv"])
    assert code == 0
    header = (tmp_path / "traj.csv").read_text().splitlines()[0]
    assert header == "t,omega_1,omega_2,s_1,s_2,u_1,u_2,mc_1,mc_2,W"
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["subcommand"] == "simulate"
    assert any(path.endswith("traj.csv") for path in doc["outputs"])
    assert "terminal max|omega|" in capsys.readouterr().out


def test_simulate_lyapunov_flag_fills_w_column(tmp_path, net2_file,
                                               quad2_costs_file, capsys):
    code = main(["simulate", "--net", net2_file, "--costs", quad2_costs_file,
                 "--p", "[-0.2, 0.1]", "--T", "0.05", "--h", "1e-3",
                 "--lyapunov", "--outdir", str(tmp_path), "--out", "wtraj.csv"])
    assert code == 0
    traj = dynamics.read_csv(str(tmp_path / "wtraj.csv"))
    assert traj.W is not None
    assert traj.W.shape == traj.t.shape
    assert np.all(traj.W >= 0.0)


@pytest.mark.parametrize("mode", dynamics.MODES)
def test_simulate_lyapunov_column_is_certifys_energy(tmp_path, net3_file,
                                                    quad3_costs_file, capsys, mode):
    # simulate --lyapunov and certify choose and evaluate the energy through
    # one function, so on one trajectory their W agree bit for bit
    p = np.array([-0.3, -0.15, 0.0])
    assert main(["simulate", "--lyapunov", "--net", net3_file,
                 "--costs", quad3_costs_file, "--p", json.dumps(p.tolist()),
                 "--mode", mode, "--T", "0.05", "--h", "1e-3",
                 "--outdir", str(tmp_path)]) == 0
    net = network.load_network(net3_file)
    costs = None if mode == "primary" else costs_mod.CostModel(
        family="quadratic", r=2, c=np.array([1.0, 2.0, 1.5]), b=np.zeros(3))
    params = controller.identity_params(net.n)
    traj = dynamics.simulate(dynamics.Scenario(p=p, T=0.05, h=1e-3, mode=mode),
                             net, costs, params)
    eq = equilibrium.solve_equilibrium(net, costs, params, p, mode=mode)
    report = lyapunov.certify_trajectory(traj, net, costs, params, eq)
    W = dynamics.read_csv(str(tmp_path / "trajectory.csv")).W
    assert W.tobytes() == report.W.tobytes()


def test_simulate_rejects_a_step_beyond_the_stability_limit(tmp_path, capsys):
    # RK4 at h = 2 ms leaves its stability region on the 39-bus case and
    # would settle into a spurious oscillation of several pu
    net = str(resources.files("gridfreq") / "data" / "case39.json")
    code = main(["simulate", "--net", net, "--p", '{"13":-3,"21":-3,"27":-3}',
                 "--T", "5", "--h", "2e-3", "--integrator", "rk4",
                 "--outdir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--h 0.002 exceeds the rk4 stability limit h <= 0.000859 s" in err
    assert not (tmp_path / "trajectory.csv").exists()


def test_certify_rejects_a_step_beyond_the_stability_limit(tmp_path, capsys):
    # without the guard this run reports a failed energy-decrease check at
    # step 0 instead of naming the step size
    net = str(resources.files("gridfreq") / "data" / "case39.json")
    code = main(["certify", "--net", net, "--p", '{"13":-3,"21":-3,"27":-3}',
                 "--T", "0.01", "--h", "2e-3", "--outdir", str(tmp_path),
                 "--out", "certify.txt"])
    assert code == 1
    out, err = capsys.readouterr()
    assert "--h 0.002 exceeds the rk4 stability limit h <= 0.000859 s" in err
    assert "certification" not in out
    assert not (tmp_path / "certify.txt").exists()


def test_simulate_rk4_integrator_flag(tmp_path, net2_file, quad2_costs_file,
                                      capsys):
    code = main(["simulate", "--net", net2_file, "--costs", quad2_costs_file,
                 "--p", "[-0.2, 0.1]", "--T", "0.01", "--h", "1e-3",
                 "--integrator", "rk4", "--outdir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["config"]["integrator"] == "rk4"


# --------------------------------------------------------------------------
# output directory resolution
# --------------------------------------------------------------------------

def test_outdir_env_variable_used_when_flag_absent(tmp_path, net2_file,
                                                   quad2_costs_file,
                                                   monkeypatch, capsys):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("GRIDFREQ_OUTDIR", str(env_dir))
    code = main(["simulate", "--net", net2_file, "--costs", quad2_costs_file,
                 "--p", "[-0.2, 0.1]", "--T", "0.005", "--h", "1e-3",
                 "--out", "a.csv"])
    assert code == 0
    assert (env_dir / "a.csv").exists()
    assert (env_dir / "manifest.json").exists()


def test_outdir_flag_overrides_env_variable(tmp_path, net2_file,
                                            quad2_costs_file, monkeypatch,
                                            capsys):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv("GRIDFREQ_OUTDIR", str(env_dir))
    code = main(["simulate", "--net", net2_file, "--costs", quad2_costs_file,
                 "--p", "[-0.2, 0.1]", "--T", "0.005", "--h", "1e-3",
                 "--outdir", str(flag_dir), "--out", "b.csv"])
    assert code == 0
    assert (flag_dir / "b.csv").exists()
    assert not (env_dir / "b.csv").exists()


# --------------------------------------------------------------------------
# manifests
# --------------------------------------------------------------------------

def run_equilibrium(outdir, net_file, costs_file, p="[-1.0, -0.5, -0.5]"):
    assert main(["equilibrium", "--net", net_file, "--costs", costs_file,
                 "--p", p, "--outdir", str(outdir)]) == 0
    return json.loads((outdir / "manifest.json").read_text())


def test_manifest_structure_and_hash(tmp_path, net3_file, quartic_costs_file,
                                     capsys):
    doc = run_equilibrium(tmp_path / "a", net3_file, quartic_costs_file)
    assert set(doc) == {"subcommand", "config", "config_hash", "seeds",
                        "outputs"}
    blob = json.dumps(doc["config"], sort_keys=True,
                      separators=(",", ":")).encode()
    assert doc["config_hash"] == hashlib.sha256(blob).hexdigest()[:16]


def test_manifest_hash_stable_across_reruns(tmp_path, net3_file,
                                            quartic_costs_file, capsys):
    doc_a = run_equilibrium(tmp_path / "a", net3_file, quartic_costs_file)
    doc_b = run_equilibrium(tmp_path / "b", net3_file, quartic_costs_file)
    assert doc_a["config_hash"] == doc_b["config_hash"]
    assert doc_a["config"] == doc_b["config"]


def test_manifest_hash_tracks_configuration(tmp_path, net3_file,
                                            quartic_costs_file, capsys):
    doc_a = run_equilibrium(tmp_path / "a", net3_file, quartic_costs_file)
    doc_b = run_equilibrium(tmp_path / "b", net3_file, quartic_costs_file,
                            p="[-0.5, -0.25, -0.25]")
    assert doc_a["config_hash"] != doc_b["config_hash"]


def test_manifest_hash_tracks_the_checkpoint(tmp_path, net3_file,
                                            quartic_costs_file, capsys):
    # two checkpoints give two equilibria, so two configs and two hashes
    docs, omegas = [], []
    for seed in (1, 2):
        path = str(tmp_path / f"ck{seed}.json")
        controller.save_checkpoint(path, controller.init_raw_params(
            3, 2, np.random.default_rng(seed)))
        outdir = tmp_path / f"eq{seed}"
        assert main(["equilibrium", "--net", net3_file, "--costs", quartic_costs_file,
                     "--p", "[-1.0, -0.5, -0.5]", "--mode", "primary",
                     "--checkpoint", path, "--outdir", str(outdir)]) == 0
        omegas.append([line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("omega*")])
        docs.append(json.loads((outdir / "manifest.json").read_text()))
        assert docs[-1]["config"]["checkpoint"] == path
    assert omegas[0] != omegas[1]
    assert docs[0]["config_hash"] != docs[1]["config_hash"]


@pytest.mark.parametrize("argv, extra", [
    (["equilibrium"], {}),
    (["simulate", "--T", "0.05", "--h", "1e-3"],
     {"T": 0.05, "h": 1e-3, "integrator": "euler", "lyapunov": False}),
    (["certify", "--T", "0.05", "--h", "1e-3"],
     {"T": 0.05, "h": 1e-3, "integrator": "rk4", "fd_rtol": None, "epsilon": None}),
], ids=["equilibrium", "simulate", "certify"])
def test_run_manifests_record_the_shared_keys_and_each_commands_flags(
        tmp_path, net3_file, quad3_costs_file, capsys, argv, extra):
    p = "[-0.3, -0.15, 0.0]"
    assert main(argv + ["--net", net3_file, "--costs", quad3_costs_file, "--p", p,
                        "--outdir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "manifest.json").read_text())
    config = {"net": net3_file, "p": p, "mode": "dai_general", "checkpoint": None,
              "costs": {"file": quad3_costs_file}, **extra}
    assert doc["config"] == config
    assert doc["config_hash"] == cli._config_hash(config)
    assert doc["subcommand"] == argv[0] and doc["seeds"] == {"cost_seed": 0}


@pytest.mark.parametrize("mode", ["primary", "dai_general"])
def test_cost_seed_counts_in_a_run_only_outside_primary_mode(tmp_path, capsys,
                                                             mode):
    # primary mode has no cost model: --cost-seed changes neither its stdout
    # nor its config_hash, and its manifest records no costs and no seed
    net = str(resources.files("gridfreq") / "data" / "case39.json")
    runs = []
    for seed in ("0", "1"):
        outdir = tmp_path / seed
        assert main(["equilibrium", "--net", net, "--mode", mode,
                     "--p", '{"13":-3,"21":-3,"27":-3}', "--cost-seed", seed,
                     "--outdir", str(outdir)]) == 0
        runs.append((capsys.readouterr().out,
                     json.loads((outdir / "manifest.json").read_text())))
    (out_a, doc_a), (out_b, doc_b) = runs
    same = mode == "primary"
    assert (out_a == out_b) is same
    assert (doc_a["config_hash"] == doc_b["config_hash"]) is same
    if same:
        assert doc_a["config"]["costs"] is None and doc_a["seeds"] == {}


@pytest.mark.parametrize("doc, field", [
    ({"family": "quadratic", "r": 2}, "missing field 'c'"),
    ({"family": "quadratic", "r": 2, "c": [1.0, 2.0]}, "field 'c' has shape (2,)"),
    ({"family": "quadratic", "r": 2, "c": [1.0, 2.0, 1.5], "b": [0.0, 0.0]},
     "field 'b' has shape (2,)"),
    ({"family": "power", "r": 2.7, "c": [1.0, 2.0, 1.5]},
     "field 'r' must be an integer, got 2.7"),
    ({"family": "quadratic", "r": 2, "c": [1.0, float("nan"), 1.5]},
     "cost coefficients must be strictly positive"),
    ({"family": "quadratic", "r": 2, "c": [1.0, 2.0, 1.5],
      "b": [0.0, float("inf"), 0.0]}, "cost offsets b must be finite"),
], ids=["no-c", "short-c", "short-b", "fractional-r", "nan-c", "inf-b"])
def test_a_bad_costs_file_is_refused_naming_the_file_and_field(
        tmp_path, net3_file, capsys, doc, field):
    costs = write_json(tmp_path / "bad_costs.json", doc)
    code = main(["equilibrium", "--net", net3_file, "--costs", costs,
                 "--p", "[-0.3, -0.15, 0.0]", "--outdir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --costs {costs}: {field}")
    assert err.count("\n") == 1
    assert not (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["simulate", "train"])
def test_a_non_finite_horizon_is_refused_by_name(tmp_path, net2_file,
                                                 quad2_costs_file, capsys,
                                                 command, value):
    argv = [command, "--net", net2_file, "--costs", quad2_costs_file,
            "--T", value, "--outdir", str(tmp_path)]
    assert main(argv + (["--p", "[0.2, -0.2]"] if command == "simulate"
                        else ["--epochs", "1"])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("TrainConfig.T" if command == "train" else "horizon T") in err
    assert not (tmp_path / "manifest.json").exists()


def _first_bus(kind, field, value):
    """Set `field` on case39's first bus of `kind`: bus 30 for "gen", bus 1
    for "load"."""
    return lambda doc: next(b for b in doc["buses"] if b["kind"] == kind).update(
        {field: value})


NAN, NOT_JSON = float("nan"), "{not json"

# flag: (the change to its valid file, or the file's JSON value or raw text;
# the words stderr must hold besides the file's path)
BAD_INPUTS = {
    "net-nan-alpha": ("--net", _first_bus("gen", "alpha", NAN), ["bus 30", "alpha"]),
    "net-nan-m": ("--net", _first_bus("gen", "m", NAN), ["bus 30", "m must"]),
    "net-nan-f0": ("--net", lambda d: d["base"].update(f0=NAN), ["f0"]),
    "net-nan-B": ("--net", lambda d: d["lines"][0].update(B=NAN), ["line (1, 2)", "B must"]),
    "net-inf-v": ("--net", _first_bus("load", "v", float("inf")), ["bus 1", "v must"]),
    "net-buses-5": ("--net", lambda d: d.update(buses=5), ["'buses'"]),
    "net-string-line": ("--net", lambda d: d["lines"].append("1-2"), ["lines entry"]),
    "net-string-alpha": ("--net", _first_bus("gen", "alpha", "x"), ["bus 30", "alpha"]),
    "ckpt-no-mu_plus": ("--checkpoint", lambda d: d.pop("mu_plus"), ["'mu_plus'"]),
    "ckpt-short-mu_plus": ("--checkpoint", lambda d: d["mu_plus"].pop(), ["'mu_plus'"]),
    "ckpt-short-chi_plus": ("--checkpoint", lambda d: d["chi_plus"].pop(), ["'chi_plus'"]),
    "ckpt-wrong-n": ("--checkpoint", lambda d: d.update(n=38), ["(38, 3) array", "n = 38"]),
    "ckpt-nan-mu": ("--checkpoint", lambda d: d["mu_minus"][4].__setitem__(0, NAN),
                    ["'mu_minus'"]),
    "ckpt-negative-dz": ("--checkpoint", lambda d: d["dz"].__setitem__(0, -1.0),
                         ["'dz' entry 0", "got -1.0"]),
    "ckpt-u_lo-above-0": ("--checkpoint", lambda d: d["u_lo"].__setitem__(0, 1.0),
                          ["'u_lo' entry 0", "got 1.0"]),
    "p-not-json": ("--p", NOT_JSON, ["--p", "not valid JSON"]),
    "costs-not-json": ("--costs", NOT_JSON, ["--costs", "not valid JSON"]),
    "costs-list": ("--costs", [1.0] * 39, ["--costs", "JSON object, got list"]),
    "ckpt-not-json": ("--checkpoint", NOT_JSON, ["--checkpoint", "not valid JSON"]),
    "config-not-json": ("--config", NOT_JSON, ["--config", "not valid JSON"]),
    "config-list": ("--config", [1, 2], ["--config", "JSON object, got list"]),
    "config-unknown-key": ("--config", {"bogus": 1}, ["--config", "unknown field 'bogus'"]),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_a_bad_input_file_exits_one_naming_the_file_and_field(tmp_path, capsys, name):
    # each of these once ended in a traceback, in a message that named
    # neither the file nor the field, or in a run that exited 0
    flag, content, words = BAD_INPUTS[name]
    case39 = json.loads((resources.files("gridfreq") / "data" / "case39.json").read_text())
    files = {"--net": write_json(tmp_path / "net.json", case39),
             "--p": write_json(tmp_path / "p.json", {"p": {"30": -1.0}}),
             "--checkpoint": str(tmp_path / "checkpoint.json")}
    controller.save_checkpoint(files["--checkpoint"], controller.init_raw_params(
        39, 3, np.random.default_rng(0)), u_lo=np.full(39, -1.0))
    bad = tmp_path / f"bad_{flag[2:]}.json"
    if callable(content):
        with open(files[flag]) as fh:
            doc = json.load(fh)
        content(doc)
        write_json(bad, doc)
    elif isinstance(content, str):
        bad.write_text(content)
    else:
        write_json(bad, content)
    files[flag] = str(bad)
    if flag == "--config":
        argv = ["train", "--net", files["--net"], "--config", files["--config"]]
    else:
        argv = ["equilibrium"] + [a for item in files.items() for a in item]
    assert main(argv + ["--outdir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    for word in [str(bad)] + words:
        assert word in err
    assert not (tmp_path / "run" / "manifest.json").exists()


# --------------------------------------------------------------------------
# certify subcommand
# --------------------------------------------------------------------------

def certify_args(net_file, costs_file, outdir, **over):
    args = {"--net": net_file, "--costs": costs_file,
            "--p": "[-0.3, -0.15, 0.0]", "--T": "5.0", "--h": "2e-3",
            "--outdir": str(outdir), "--out": "certify.txt"}
    args.update(over)
    return ["certify"] + [tok for kv in args.items() for tok in kv]


@pytest.fixture
def quad3_costs_file(tmp_path):
    return write_json(tmp_path / "costs_q3.json",
                      {"family": "quadratic", "r": 2, "c": [1.0, 2.0, 1.5]})


def test_certify_pass_returns_zero(tmp_path, net3_file, quad3_costs_file,
                                   capsys):
    code = main(certify_args(net3_file, quad3_costs_file, tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "certification PASS" in out
    assert "certification PASS" in (tmp_path / "certify.txt").read_text()


def test_certify_failure_returns_one(tmp_path, net3_file, quad3_costs_file,
                                     capsys):
    # an impossible finite-difference agreement requirement must fail closed
    code = main(certify_args(net3_file, quad3_costs_file, tmp_path,
                             **{"--fd-rtol": "1e-15", "--T": "1.0"}))
    assert code == 1
    assert "certification FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("over, passed", [({}, True),
                                          ({"--fd-rtol": "1e-15", "--T": "1.0"}, False)])
def test_certify_writes_json_report_outside_the_hashed_config(
        tmp_path, net3_file, quad3_costs_file, capsys, over, passed):
    code = main(certify_args(net3_file, quad3_costs_file, tmp_path, **over))
    assert code == (0 if passed else 1)
    text = (tmp_path / "certify.txt").read_text()
    report = json.loads((tmp_path / "certify.json").read_text())
    assert set(report) == {"passed", "decrease_margin_min", "cross_min",
                           "positivity_min", "fd_rel_err_max", "epsilon",
                           "first_violation", "failures", "decay_c"}
    assert report["passed"] is passed and report["epsilon"] is None
    assert report["decay_c"] is None
    # the text report prints the same numbers to four digits
    for key, label in (("positivity_min", "min W along trajectory"),
                       ("decrease_margin_min", "min decrease margin"),
                       ("cross_min", "min cross term"),
                       ("fd_rel_err_max", "max |Wdot - FD| rel error")):
        assert f"{label:<28}: {report[key]:.3e}" in text
    if passed:
        assert report["failures"] == [] and report["first_violation"] is None
    else:
        assert report["failures"] == ["fd-mismatch"]
        assert "failed checks               : fd-mismatch" in text
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["outputs"] == sorted([str(tmp_path / "certify.txt"),
                                     str(tmp_path / "certify.json")])
    # the JSON report adds no config field, so it leaves config_hash alone
    assert set(doc["config"]) == {"net", "p", "mode", "T", "h", "integrator",
                                  "fd_rtol", "epsilon", "checkpoint", "costs"}
    assert doc["config_hash"] == cli._config_hash(doc["config"])


def _no_simulate(*args, **kwargs):
    raise AssertionError("simulate called")


@pytest.mark.parametrize("flag, value, rule", [
    ("--fd-rtol", "nan", ">= 0"), ("--fd-rtol", "inf", ">= 0"), ("--fd-rtol", "-1", ">= 0"),
    ("--epsilon", "nan", "> 0"), ("--epsilon", "inf", "> 0"), ("--epsilon", "-1", "> 0"),
    ("--epsilon", "0", "> 0")])
def test_certify_refuses_a_bad_gate_flag_before_integrating(
        tmp_path, net3_file, quad3_costs_file, capsys, monkeypatch, flag, value, rule):
    # a NaN --fd-rtol used to switch its gate off, and a bad --epsilon to run
    # the whole simulation before failing the certificate
    monkeypatch.setattr(dynamics, "simulate", _no_simulate)
    assert main(certify_args(net3_file, quad3_costs_file, tmp_path, **{flag: value})) == 1
    err = capsys.readouterr().err
    assert err == f"error: {flag} must be finite and {rule}, got {float(value)!r}\n"
    assert not (tmp_path / "manifest.json").exists()


def test_simulate_names_an_infinite_step(tmp_path, net2_file, quad2_costs_file, capsys):
    # it used to be blamed on the horizon T
    assert main(["simulate", "--net", net2_file, "--costs", quad2_costs_file,
                 "--p", "[0.2, -0.2]", "--h", "inf", "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: step h must be positive and finite, got inf\n"
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
def test_certify_has_no_decrease_slack_flags(tmp_path, net3_file,
                                             quad3_costs_file, capsys, flag):
    # the decrease slack is fixed in lyapunov; a flag could only loosen it
    argv = certify_args(net3_file, quad3_costs_file, tmp_path) + [flag, "1e9"]
    assert main(argv) == 2
    assert not (tmp_path / "manifest.json").exists()


def test_certify_primary_json_reports_the_searched_decay_constant(
        tmp_path, net3_file, quad3_costs_file, capsys):
    code = main(certify_args(net3_file, quad3_costs_file, tmp_path,
                             **{"--mode": "primary", "--T": "1.0"}))
    assert code == 0
    report = json.loads((tmp_path / "certify.json").read_text())
    net = network.load_network(net3_file)
    eq = equilibrium.solve_equilibrium(
        net, None, controller.identity_params(net.n),
        np.array([-0.3, -0.15, 0.0]), mode="primary")
    search = lyapunov.epsilon_and_c_search(net, eq)
    assert report["epsilon"] == search.epsilon
    assert report["decay_c"] == search.c > 0.0
    assert (f"decay constant c            : {search.c:.3e}"
            in (tmp_path / "certify.txt").read_text())


# --------------------------------------------------------------------------
# train subcommand
# --------------------------------------------------------------------------

TRAIN_FLAGS = ["--d", "2", "--h", "1e-3", "--T", "0.02", "--batch-size", "2",
               "--epochs", "2", "--lr", "0.1", "--p-lo", "-1.0",
               "--p-hi", "1.0", "--seed", "3"]


def test_train_writes_checkpoint_history_manifest(tmp_path, net2_file,
                                                  quad2_costs_file, capsys):
    code = main(["train", "--net", net2_file, "--costs", quad2_costs_file,
                 "--outdir", str(tmp_path), "--out", "ck.json",
                 "--history", "hist.csv"] + TRAIN_FLAGS)
    assert code == 0
    raw, params, meta = controller.load_checkpoint(str(tmp_path / "ck.json"))
    assert params.n == 2 and params.d == 2
    assert controller.validate_params(params, warn=False)
    assert meta["seed"] == 3
    hist = (tmp_path / "hist.csv").read_text().strip().splitlines()
    assert hist[0] == "epoch,loss"
    losses = [float(r.split(",")[1]) for r in hist[1:]]
    assert len(losses) >= 2 and all(np.isfinite(losses))
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["seeds"] == {"seed": 3}
    assert doc["config"]["train"]["epochs"] == 2


@pytest.mark.parametrize("flag, value, field", [
    ("--epochs", "0", "epochs"), ("--epochs", "-2", "epochs"),
    ("--batch-size", "0", "batch_size"), ("--d", "0", "d"),
    ("--h", "0", "TrainConfig.h"), ("--T", "1e-4", "TrainConfig.T"),
])
def test_train_rejects_nonpositive_sizes_before_training(tmp_path, net2_file,
                                                         quad2_costs_file,
                                                         capsys, flag, value,
                                                         field):
    flags = list(TRAIN_FLAGS)
    flags[flags.index(flag) + 1] = value
    code = main(["train", "--net", net2_file, "--costs", quad2_costs_file,
                 "--outdir", str(tmp_path), "--out", "ck.json"] + flags)
    assert code == 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "ck.json").exists()
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "nan", "TrainConfig.lr must be a finite number, got nan"),
    ("--lr", "inf", "TrainConfig.lr must be a finite number, got inf"),
    ("--rho", "nan", "TrainConfig.rho must be a finite number, got nan"),
    ("--lr-decay", "inf", "TrainConfig.lr_decay must be a finite number, got inf"),
    ("--p-lo", "nan", "TrainConfig.p_lo must be a finite number, got nan"),
    ("--p-hi", "inf", "TrainConfig.p_hi must be a finite number, got inf"),
    ("--h", "inf", "TrainConfig.h must be a finite number, got inf"),
    ("--p-lo", "5", "TrainConfig.p_lo = 5.0 exceeds TrainConfig.p_hi = 1.0"),
])
def test_train_refuses_a_non_finite_setting_by_name(tmp_path, net2_file,
                                                    quad2_costs_file, capsys,
                                                    flag, value, message):
    # a NaN or infinite --lr or --rho used to exit 0 with a checkpoint of
    # NaNs, a NaN --p-lo to end in an OverflowError traceback, and an empty
    # disturbance range in NumPy's "high - low < 0"
    code = main(["train", "--net", net2_file, "--costs", quad2_costs_file,
                 "--outdir", str(tmp_path), "--out", "ck.json"]
                + TRAIN_FLAGS + [flag, value])      # the last one counts
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "ck.json").exists()
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("command", ["train", "grad-check"])
def test_a_negative_seed_is_refused_by_name(tmp_path, net2_file, quad2_costs_file,
                                            capsys, command):
    # NumPy's own message ("expected non-negative integer") names neither
    # the flag nor the value; the seed is refused before the output
    # directory is made
    outdir = tmp_path / "run"
    argv = ([command, "--seed", "-5", "--outdir", str(outdir)]
            + (["--net", net2_file, "--costs", quad2_costs_file]
               if command == "train" else ["--instances", "1"]))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "seed" in err and "-5" in err and "Traceback" not in err
    assert not outdir.exists()


def test_train_rejects_a_step_beyond_the_stability_limit(tmp_path, capsys):
    # Euler at h = 1 ms leaves its stability region on the 39-bus case; the
    # limit is taken at the origin with the first epoch's policies
    net = str(resources.files("gridfreq") / "data" / "case39.json")
    code = main(["train", "--net", net, "--h", "1e-3", "--T", "1",
                 "--epochs", "2", "--batch-size", "8",
                 "--outdir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--h 0.001 exceeds the euler stability limit h <= 0.000617 s" in err
    assert not any(tmp_path.iterdir())


def test_train_names_the_epoch_whose_step_breaks_the_policies(tmp_path, capsys):
    # a finite lr of 1e300 squares mu past the floats; this used to end in
    # an AssertionError traceback after NumPy's overflow warnings
    net = str(resources.files("gridfreq") / "data" / "case39.json")
    code = main(["train", "--net", net, "--epochs", "1", "--batch-size", "2",
                 "--T", "0.01", "--lr", "1e300", "--outdir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: training epoch 0 (seed 0, lr 1e+300): the gradient step broke "
        "the policies' monotonicity chains\n")
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("config, message", [
    ({"u_lo": 1.0, "u_hi": -1.0}, "TrainConfig.u_lo must be None or a number <= 0, got 1.0"),
    ({"dz": -1.0}, "TrainConfig.dz must be a finite number >= 0, got -1.0"),
], ids=["bounds-miss-the-origin", "negative-deadband"])
def test_train_refuses_a_config_policy_range_by_name(tmp_path, net2_file,
                                                     quad2_costs_file, capsys,
                                                     config, message):
    path = write_json(tmp_path / "cfg.json", config)
    code = main(["train", "--net", net2_file, "--costs", quad2_costs_file,
                 "--config", path, "--outdir", str(tmp_path / "run")]
                + TRAIN_FLAGS)
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_trained_checkpoint_drives_simulation(tmp_path, net2_file,
                                              quad2_costs_file, capsys):
    main(["train", "--net", net2_file, "--costs", quad2_costs_file,
          "--outdir", str(tmp_path), "--out", "ck.json"] + TRAIN_FLAGS)
    code = main(["simulate", "--net", net2_file, "--costs", quad2_costs_file,
                 "--p", "[-0.2, 0.1]", "--T", "0.01", "--h", "1e-3",
                 "--checkpoint", str(tmp_path / "ck.json"),
                 "--outdir", str(tmp_path), "--out", "ckrun.csv"])
    assert code == 0
    assert (tmp_path / "ckrun.csv").exists()


def test_checkpoint_bus_count_mismatch_returns_one(tmp_path, net2_file,
                                                   net3_file,
                                                   quad2_costs_file, capsys):
    main(["train", "--net", net2_file, "--costs", quad2_costs_file,
          "--outdir", str(tmp_path), "--out", "ck.json"] + TRAIN_FLAGS)
    code = main(["simulate", "--net", net3_file, "--p", "[0.0, 0.0, 0.0]",
                 "--T", "0.01", "--h", "1e-3",
                 "--checkpoint", str(tmp_path / "ck.json"),
                 "--outdir", str(tmp_path)])
    assert code == 1
    assert "bus count" in capsys.readouterr().err


def test_train_config_file_with_flag_override(tmp_path, net2_file,
                                              quad2_costs_file, capsys):
    cfg_file = write_json(tmp_path / "train.json",
                          {"d": 2, "h": 1e-3, "T": 0.02, "batch_size": 2,
                           "epochs": 5, "lr": 0.1, "p_lo": -1.0, "p_hi": 1.0,
                           "seed": 3})
    code = main(["train", "--net", net2_file, "--costs", quad2_costs_file,
                 "--config", cfg_file, "--epochs", "1",
                 "--outdir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["config"]["train"]["epochs"] == 1       # flag wins
    assert doc["config"]["train"]["d"] == 2            # file fills the rest


def test_train_flags_are_typed_as_their_config_defaults(tmp_path):
    flags = {"--rho": float, "--d": int, "--h": float, "--T": float,
             "--batch-size": int, "--epochs": int, "--lr": float, "--lr-decay": float,
             "--p-lo": float, "--p-hi": float, "--seed": int}
    train = next(a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices["train"]
    fields = {f.name for f in dataclasses.fields(training.TrainConfig)}
    assert {a.option_strings[0]: a.type for a in train._actions
            if a.dest in fields} == flags
    # every flag reaches its TrainConfig field with its type
    args = train.parse_args(["--net", "x"] + [tok for flag in flags
                                              for tok in (flag, "3")])
    cfg = cli._train_config_from_args(args)
    for flag, typ in flags.items():
        value = getattr(cfg, flag[2:].replace("-", "_"))
        assert type(value) is typ and value == 3


# --------------------------------------------------------------------------
# grad-check subcommand
# --------------------------------------------------------------------------

def test_grad_check_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)     # the manifest lands in the working directory
    code = main(["grad-check", "--seed", "0", "--instances", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("gradient audit passed on the 2-bus network") == 2
    assert "FAILED" not in out


@pytest.fixture
def doubled_backprop(monkeypatch):
    """training.backprop returning twice the exact gradient."""
    exact = training.backprop

    def doubled(*args):
        g = exact(*args)
        return controller.RawParams(2 * g.mu_plus, 2 * g.mu_minus,
                                    2 * g.chi_plus, 2 * g.chi_minus)

    monkeypatch.setattr(training, "backprop", doubled)


def test_grad_check_failure_exits_one(tmp_path, capsys, doubled_backprop):
    assert main(["grad-check", "--instances", "2", "--outdir", str(tmp_path)]) == 1
    assert "gradient audit FAILED on the 2-bus network" in capsys.readouterr().out


@pytest.mark.parametrize("instances", ["0", "-2"])
def test_grad_check_refuses_no_instances(tmp_path, capsys, instances):
    outdir = tmp_path / "audit"
    assert main(["grad-check", "--instances", instances, "--outdir", str(outdir)]) == 1
    assert "--instances" in capsys.readouterr().err
    assert not outdir.exists()


def test_grad_check_writes_manifest_into_fresh_outdir(tmp_path):
    outdir = tmp_path / "fresh" / "audit"
    assert main(["grad-check", "--seed", "3", "--instances", "1",
                 "--outdir", str(outdir)]) == 0
    doc = json.loads((outdir / "manifest.json").read_text())
    assert doc["subcommand"] == "grad-check"
    assert doc["config"] == {"seed": 3, "instances": 1}
    assert doc["seeds"] == {"seed": 3}
    assert doc["outputs"] == []


def _train_argv(tmp_path, net_file, costs_file):
    return ["train", "--net", net_file, "--costs", costs_file, "--grad-check",
            "--d", "3", "--epochs", "1", "--T", "0.01", "--batch-size", "2",
            "--outdir", str(tmp_path)]


def test_train_grad_check_audits_the_loaded_network(tmp_path, net3_file,
                                                    quartic_costs_file, capsys):
    assert main(_train_argv(tmp_path, net3_file, quartic_costs_file)) == 0
    out = capsys.readouterr().out
    assert "gradient audit passed on the 3-bus network (d = 3, batch 2" in out
    assert (tmp_path / "checkpoint.json").exists()


def test_train_grad_check_failure_exits_one(tmp_path, net3_file,
                                            quartic_costs_file, capsys,
                                            doubled_backprop):
    assert main(_train_argv(tmp_path, net3_file, quartic_costs_file)) == 1
    captured = capsys.readouterr()
    assert "gradient audit FAILED on the 3-bus network" in captured.out
    assert "gradient audit failed" in captured.err
    assert "threshold 1e-4" in captured.err
    assert not (tmp_path / "checkpoint.json").exists()


# --------------------------------------------------------------------------
# plot subcommand
# --------------------------------------------------------------------------

def make_trajectory_csv(tmp_path, net2_file, quad2_costs_file, lyapunov=True):
    argv = ["simulate", "--net", net2_file, "--costs", quad2_costs_file,
            "--p", "[-0.2, 0.1]", "--T", "0.05", "--h", "1e-3",
            "--outdir", str(tmp_path), "--out", "traj.csv"]
    if lyapunov:
        argv.insert(1, "--lyapunov")
    assert main(argv) == 0
    return str(tmp_path / "traj.csv")


def test_plot_emits_wellformed_svg(tmp_path, net2_file, quad2_costs_file,
                                   capsys):
    traj = make_trajectory_csv(tmp_path, net2_file, quad2_costs_file)
    code = main(["plot", "--traj", traj, "--cols", "omega,W",
                 "--outdir", str(tmp_path), "--out", "chart.svg"])
    assert code == 0
    root = ET.parse(str(tmp_path / "chart.svg")).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 3                        # omega_1, omega_2, W
    for poly in polylines:
        assert len(poly.get("points").split()) == 51  # one point per sample


def test_plot_selects_columns_by_prefix(tmp_path, net2_file, quad2_costs_file,
                                        capsys):
    traj = make_trajectory_csv(tmp_path, net2_file, quad2_costs_file,
                               lyapunov=False)
    code = main(["plot", "--traj", traj, "--cols", "u",
                 "--outdir", str(tmp_path), "--out", "u.svg"])
    assert code == 0
    root = ET.parse(str(tmp_path / "u.svg")).getroot()
    texts = [el.text for el in
             root.findall(".//{http://www.w3.org/2000/svg}text")]
    assert "u_1" in texts and "u_2" in texts
    assert "omega_1" not in texts


def test_plot_unknown_columns_return_one(tmp_path, net2_file,
                                         quad2_costs_file, capsys):
    traj = make_trajectory_csv(tmp_path, net2_file, quad2_costs_file,
                               lyapunov=False)
    code = main(["plot", "--traj", traj, "--cols", "zzz",
                 "--outdir", str(tmp_path)])
    assert code == 1
    assert "no columns match" in capsys.readouterr().err


def full_read_series(path, cols):
    """--cols resolved on a full read_csv by the rule plot has always used:
    a name matches a prefix w when it is w or starts with w + "_", in
    header order, and an empty W column is left out."""
    traj = dynamics.read_csv(path)
    wanted = [c.strip() for c in cols.split(",")]
    series = {}
    for col, name in enumerate(dynamics.csv_header(traj.n)[1:]):
        if any(name == w or name.startswith(w + "_") for w in wanted):
            block, rem = divmod(col, traj.n)
            vals = traj.W if name == "W" else (traj.omega, traj.s, traj.u, traj.mc)[block][:, rem]
            if vals is not None:
                series[name] = vals
    return traj.t, series


@pytest.mark.parametrize("lyapunov", [True, False])
@pytest.mark.parametrize("cols", ["omega", "omega,W", "u_1", "s,mc"])
def test_plot_svg_matches_a_chart_from_the_full_read(tmp_path, net2_file,
                                                     quad2_costs_file, capsys,
                                                     lyapunov, cols):
    traj = make_trajectory_csv(tmp_path, net2_file, quad2_costs_file, lyapunov)
    assert main(["plot", "--traj", traj, "--cols", cols,
                 "--outdir", str(tmp_path), "--out", "chart.svg"]) == 0
    t, series = full_read_series(traj, cols)
    want = cli.svg_line_chart(t, series, title="traj.csv", ylabel=cols) + "\n"
    assert (tmp_path / "chart.svg").read_bytes() == want.encode()


def test_plot_bad_header_returns_one(tmp_path, net2_file, quad2_costs_file,
                                     capsys):
    traj = make_trajectory_csv(tmp_path, net2_file, quad2_costs_file)
    with open(traj) as fh:
        header, body = fh.read().split("\n", 1)
    with open(traj, "w") as fh:
        fh.write(header.replace("s_2", "z_2") + "\n" + body)
    code = main(["plot", "--traj", traj, "--outdir", str(tmp_path)])
    assert code == 1
    assert f"{traj}: header column 5 is 'z_2', expected 's_2'" in capsys.readouterr().err
    assert not (tmp_path / "plot.svg").exists()


@pytest.mark.parametrize("ragged", ["cut", "grown"])
def test_plot_ragged_row_returns_one(tmp_path, net2_file, quad2_costs_file,
                                     capsys, ragged):
    # a row cut short after the omega columns that --cols omega reads, or
    # one with a field too many, names the file and line
    traj = make_trajectory_csv(tmp_path, net2_file, quad2_costs_file)
    with open(traj, newline="") as fh:
        lines = fh.read().split("\r\n")               # header, 51 rows, ""
    if ragged == "cut":
        row = lines[51].split(",")
        lines[51:] = [",".join(row[:3]) + "," + row[3][:3]]
        line, fields = 52, 4
    else:
        lines[10] += ",0.5"
        line, fields = 11, 11
    with open(traj, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
    code = main(["plot", "--traj", traj, "--cols", "omega", "--outdir", str(tmp_path)])
    assert code == 1
    assert f"{traj}: line {line} has {fields} fields, expected 10" in capsys.readouterr().err
    assert not (tmp_path / "plot.svg").exists()
