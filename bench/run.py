"""Benchmark of gridfreq's three jobs on the 39-bus case.

One run (the form BENCHMARK.json names):

    python3 bench/run.py --workload sim39 --seed 0 --seconds 30 --trace 0

prints a summary and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each run also
writes a result file under bench/results/.

Every workload, several seeds, one result file:

    python3 bench/run.py --suite --seeds 0-9 --traces 0,1 --out bench/results/ref.json

Two result files side by side, flagging end-to-end regressions beyond the
bounds in BENCHMARK.json:

    python3 bench/run.py --compare bench/results/a.json bench/results/b.json

Each workload runs in a child process of its own (bench/worker.py) with the
NumPy/BLAS thread variables set to 1 for that child only.  Set-up time is
measured from the moment a child is started to the moment its inputs are
ready, SETUP_REPEATS times per untraced run, each scaled by the start-up of
a bare NumPy child timed just before and after it (``_start_seconds``), and
reported as the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = {
    "sim39": "trajectory steps per second of the whole job (sim_steps_per_s)",
    "train39": "epochs x B x unrolled steps per second of training.train "
               "(train_steps_per_s)",
    "cert39": "search samples per second of the whole certification job "
              "(cert_samples_per_s)",
}
END_TO_END = (("work_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 11
START_NOMINAL = 0.12    # seconds the set-up times are scaled to, see _start_seconds
TIME_LIMIT = 170.0      # seconds for one run, children included


class BenchError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# machine record
# --------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_info():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    env = _child_env()
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "thread_env": {k: env.get(k) for k in THREAD_VARS},
            "git_commit": _git_commit()}


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start_seconds():
    """Wall time of a child that starts Python, imports NumPy and exits.

    This is about half of a workload's set-up and slows with it when the
    machine does, so set-up times are scaled by START_NOMINAL over it, as
    round times are scaled by the loops of reference.py.
    """
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], env=_child_env(), check=True)
    return time.monotonic() - t0


def _child(args, deadline):
    """Run the worker to completion; return the JSON of its last line."""
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, env=_child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_once(workload, seed, seconds, trace, trace_file=None):
    """One run of one workload; returns its record (metrics and details)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "gridfreq", "__init__.py")):
        raise BenchError(f"no gridfreq package under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + TIME_LIMIT
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setup, raw_setup = [], []

    def start(args):
        ref_before = _start_seconds()
        t0 = time.monotonic()
        res = _child(args, deadline)
        raw_setup.append(res.pop("ready") - t0)
        ref = 0.5 * (ref_before + _start_seconds())
        setup.append(raw_setup[-1] * START_NOMINAL / ref)
        return res

    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            start(common + ["--setup-only"])
    extra = ["--trace", str(trace)]
    if trace_file:
        extra += ["--trace-file", trace_file]
    res = start(common + extra)
    if "work_per_s" not in res:
        raise BenchError(f"{workload}: no round completed\n{res.get('error')}")
    if trace:
        metrics = res.pop("per_layer")
    else:
        res["setup_s"], res["raw_setup_s"] = setup, raw_setup
        values = dict(res, setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "correct": res.pop("correct"), "attempted": res.pop("attempted"),
            "failed": res.pop("failed"), "metrics": metrics, "detail": res}


def _print_run(run):
    print(f"{run['workload']} seed={run['seed']} seconds={run['seconds']} "
          f"trace={run['trace']}: correct={run['correct']} "
          f"attempted={run['attempted']} failed={run['failed']}")
    for problem in run["detail"]["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if run["detail"].get("error"):
        print("  first failed call:\n" + run["detail"]["error"])
    for name, m in run["metrics"].items():
        note = f"  ({WORKLOADS[run['workload']]})" if name == "work_per_s" else ""
        print(f"  {name:46s} {m['value']:14.6g} {m['unit']}{note}")


def write_results(path, runs):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"machine": machine_info(), "runs": runs}, fh, indent=1)


# --------------------------------------------------------------------------
# suite and compare
# --------------------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _groups(runs):
    """{(workload, metric): [values]} over the given runs."""
    out = {}
    for run in runs:
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def summarize(runs):
    print(f"\n{'workload':8s} {'metric':46s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} runs failed/attempted")
    failed = {}
    for run in runs:
        f = failed.setdefault(run["workload"], [0, 0])
        f[0] += run["failed"]
        f[1] += run["attempted"]
    for (wl, name), vals in sorted(_groups(runs).items()):
        q1, med, q3 = _quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{wl:8s} {name:46s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.2%} {len(vals):4d} {failed[wl][0]}/{failed[wl][1]}")


def compare(path_a, path_b):
    """Print each side's median and quartiles; return the regressions found."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: (m["better"], m.get("bound"))
              for m in spec["end_to_end"] + spec["per_layer"]}
    sides = []
    for path in (path_a, path_b):
        with open(path) as fh:
            sides.append(_groups(json.load(fh)["runs"]))
    print(f"{'workload':8s} {'metric':46s} {'A median [q1, q3]':>36s} "
          f"{'B median [q1, q3]':>36s} {'B/A':>7s}")
    regressions = []
    for key in sorted(set(sides[0]) | set(sides[1])):
        cols = []
        for side in sides:
            if key in side:
                q1, med, q3 = _quartiles(side[key])
                cols.append((med, f"{med:.6g} [{q1:.6g}, {q3:.6g}]"))
            else:
                cols.append((None, "-"))
        (ma, ta), (mb, tb) = cols
        ratio = mb / ma if ma and mb is not None else None
        flag = ""
        direction, bound = better.get(key[1], ("lower", None))
        if ratio is not None and bound is not None:
            worse = ratio - 1 if direction == "lower" else 1 - ratio
            if worse > bound:
                flag = f"  REGRESSION ({worse:.1%} worse, bound {bound:.0%})"
                regressions.append(key)
        rtxt = f"{ratio:7.3f}" if ratio is not None else "      -"
        print(f"{key[0]:8s} {key[1]:46s} {ta:>36s} {tb:>36s} {rtxt}{flag}")
    return regressions


def _seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", action="store_true",
                    help="run every workload over --seeds and --traces")
    ap.add_argument("--seeds", default="0", help="e.g. 0-9 or 1,5,7")
    ap.add_argument("--traces", default="0")
    ap.add_argument("--out", default=None, help="result file to write")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)

    if args.compare:
        return 1 if compare(*args.compare) else 0

    try:
        if args.suite:
            runs = []
            for trace in (int(t) for t in args.traces.split(",")):
                for wl in WORKLOADS:
                    for seed in _seed_list(args.seeds):
                        runs.append(run_once(wl, seed, args.seconds, trace))
                        _print_run(runs[-1])
            out = args.out or os.path.join(RESULTS, f"suite-{time.strftime('%Y%m%d-%H%M%S')}.json")
            write_results(out, runs)
            summarize(runs)
            print(f"\nwrote {out}")
            return 0 if all(r["correct"] for r in runs) else 1
        if not args.workload:
            ap.error("give --workload, --suite or --compare")
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        trace_file = os.path.join(RESULTS, f"trace-{stem}.npz") if args.trace else None
        if trace_file:
            os.makedirs(RESULTS, exist_ok=True)
        run = run_once(args.workload, args.seed, args.seconds, args.trace, trace_file)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_results(args.out or os.path.join(RESULTS, f"{stem}.json"), [run])
    _print_run(run)
    print(json.dumps({k: run[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
