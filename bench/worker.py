"""One workload in one process: set up, run whole rounds, check, report.

Started by run.py with the NumPy/BLAS thread variables set to 1 and
``src`` on PYTHONPATH; not meant to be run by hand.  With ``--setup-only``
it stops once the inputs are ready.  Otherwise it runs rounds of the job
until ``--seconds`` have passed (at least MIN_ROUNDS), checks every round's
outputs, and prints one JSON object as its last line of output.

Each round is bracketed by timings of the workload's reference loop
(reference.py) and its time is scaled to the loop's nominal speed; the
scaled round times are summarised by their median.  The raw times and loop timings are kept in
the result.

With ``--trace 1`` rounds alternate between untraced and traced; the
per-layer metrics come from the traced rounds, and the ratio of the two
median scaled round times gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LayerStats, per_layer_metrics  # noqa: E402
from reference import loop_seconds, scale  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MODULES, WORKLOADS, Round  # noqa: E402

MIN_ROUNDS = 3          # untraced; a traced run needs two of each kind


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def run(args, tmpdir):
    wl = WORKLOADS[args.workload](args.seed, args.seconds, tmpdir)
    tracer = Tracer(MODULES) if args.trace else None
    if tracer is not None:
        with tracer:
            wl.setup()
        setup_end = len(tracer)
    else:
        wl.setup()
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}

    problems = wl.pre_check()
    times, traced_times = [], []        # scaled to the reference loop
    raw_times, refs = [], []
    attempted = failed = 0
    counts, error = {}, None
    began = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        rnd = Round()
        out = None
        ref_before = loop_seconds(wl.reference)
        with contextlib.redirect_stdout(io.StringIO()):
            if traced:
                tracer.install()
            try:
                out = wl.job(rnd)
            except Exception:  # a failing call is counted and the run goes on
                error = error or traceback.format_exc()
            finally:
                if traced:
                    tracer.uninstall()
        ref_after = loop_seconds(wl.reference)
        attempted += wl.ops_per_round
        if out is None:
            failed += wl.ops_per_round - rnd.done
        else:
            (traced_times if traced else times).append(
                scale(wl.reference, rnd.seconds, ref_before, ref_after))
            raw_times.append(rnd.seconds)
            refs.append((ref_before, ref_after))
            problems += [p for p in wl.check(out) if p not in problems]
            counts = wl.counts(out)
        k += 1
        enough = k >= (2 * 2 if tracer is not None else MIN_ROUNDS)
        if enough and time.perf_counter() - began >= args.seconds:
            break

    result = {"ready": ready, "correct": not problems and failed == 0,
              "problems": problems,
              "attempted": attempted, "failed": failed, "error": error,
              "work_unit": wl.work_unit, "work_per_round": wl.work_per_round(),
              "round_s": times, "traced_round_s": traced_times,
              "raw_round_s": raw_times, "ref_s": refs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    if hasattr(wl, "fd_error"):
        result["fd_error"] = wl.fd_error
    if times:
        result["work_per_s"] = wl.work_per_round() / statistics.median(times)
    if tracer is not None and times and traced_times:
        overhead = (statistics.median(traced_times) / statistics.median(times) - 1) * 100
        stats = LayerStats(tracer.spans(setup_end), tracer.spans(0, setup_end),
                           len(traced_times), counts, overhead)
        result["per_layer"] = per_layer_metrics(stats)
        result["spans"] = len(tracer)
        if args.trace_file:
            tracer.save(args.trace_file)
    return result


def main(argv=None):
    args = parse_args(argv)
    tmp_root = os.path.join(HERE, ".tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=tmp_root)
    try:
        result = run(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
