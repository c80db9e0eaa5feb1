"""Tests of the benchmark itself.

Run with:  python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run as bench_run  # noqa: E402
from layers import PER_LAYER, LayerStats  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MODULES, WORKLOADS, Round  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args,
         "--out", str(tmp_path / "result.json")],
        stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_end_to_end(tmp_path, workload):
    out = _run(tmp_path, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    saved = json.loads((tmp_path / "result.json").read_text())
    assert {"nproc", "cpu_model", "python", "numpy", "blas", "thread_env",
            "git_commit"} <= set(saved["machine"])


def test_tiny_traced_run_reports_every_layer_metric(tmp_path):
    out = _run(tmp_path, "--workload", "sim39", "--seed", "0", "--seconds", "1",
               "--trace", "1")
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_spec_lists_the_metrics_the_code_reports():
    assert [(n, u, b) for n, u, b, _ in PER_LAYER] == \
        [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert list(bench_run.END_TO_END) == \
        [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert sorted(bench_run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def _namespaces():
    """Every module and gridfreq class namespace, as {id: dict copy}."""
    spaces = {}
    for mod in MODULES:
        spaces[id(mod)] = dict(vars(mod))
        for val in vars(mod).values():
            if isinstance(val, type) and val.__module__.startswith("gridfreq"):
                spaces[id(val)] = dict(vars(val))
    return spaces


def test_uninstall_puts_back_every_wrapped_name():
    before = _namespaces()
    tracer = Tracer(MODULES)
    targets = list(tracer.targets())
    assert len(targets) > 50
    with tracer:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn, _ in targets)
        from gridfreq import controller, dynamics, training
        assert training.eval_u is not controller.eval_u
        assert dynamics.eval_u is not controller.eval_u
    assert all(getattr(owner, attr) is fn for owner, attr, fn, _ in targets)
    after = _namespaces()
    assert before.keys() == after.keys()
    for key in before:
        assert before[key].keys() == after[key].keys()
        assert all(before[key][a] is after[key][a] for a in before[key])


def _traced_sim_rounds(tmp_path, rounds):
    wl = WORKLOADS["sim39"](0, 1, str(tmp_path))
    wl.setup()
    tracer = Tracer(MODULES)
    marks = []
    for _ in range(rounds):
        lo = len(tracer)
        with tracer:
            out = wl.job(Round())
        marks.append((lo, len(tracer)))
        assert wl.check(out) == []
    return wl, tracer, marks, out


def test_spans_nest_and_self_time_fits_duration(tmp_path):
    _, tracer, _, _ = _traced_sim_rounds(tmp_path, 1)
    sp = tracer.spans()
    assert len(sp["start"]) > 1000
    child = sp["parent"] >= 0
    par = sp["parent"][child]
    assert np.all(sp["start"][par] <= sp["start"][child])
    assert np.all(sp["end"][child] <= sp["end"][par])
    assert np.all(sp["start"] <= sp["end"])
    assert np.all(sp["self"] >= -1e-12)
    assert np.all(sp["self"] <= sp["duration"] + 1e-12)
    roots = sp["name"][sp["parent"] < 0]
    assert "dynamics.simulate" in set(roots) and "cli.main" in set(roots)


def test_per_step_counts_repeat_exactly(tmp_path):
    wl, tracer, marks, out = _traced_sim_rounds(tmp_path, 2)
    names = ("network.power_flows.calls_per_step", "controller.eval_u.calls_per_step",
             "dynamics.derivatives.calls_per_step")
    fns = {n: fn for n, _, _, fn in PER_LAYER if n in names}
    seen = []
    for lo, hi in marks:
        stats = LayerStats(tracer.spans(lo, hi), tracer.spans(0, 0), 1,
                           wl.counts(out), 0.0)
        seen.append({n: fns[n](stats) for n in names})
    assert seen[0] == seen[1]
    assert all(v > 0 for v in seen[0].values())


def test_compare_flags_regressions_beyond_the_bound(tmp_path, capsys):
    def result(value):
        return {"runs": [{"workload": "sim39", "metrics": {
            "work_per_s": {"value": value * f, "unit": "1/s"}}} for f in (0.99, 1.0, 1.01)]}

    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["work_per_s"]
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(result(100.0)))
    b.write_text(json.dumps(result(100.0 * (1 - bound / 2))))
    c.write_text(json.dumps(result(100.0 * (1 - 2 * bound))))
    assert bench_run.compare(str(a), str(b)) == []
    assert bench_run.compare(str(a), str(c)) == [("sim39", "work_per_s")]
    assert "REGRESSION" in capsys.readouterr().out


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".tmp", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim39", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
