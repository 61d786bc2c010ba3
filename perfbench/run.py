"""Benchmark of gwfract's pipeline, one workload per fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; gwfract is imported from ./src.  The run
imports gwfract and builds the workload's inputs (set-up), then repeats
whole rounds of the workload's operations until --seconds of timed phase
have passed, then checks every output.  The end-to-end times are corrected
for the host's speed during each phase (hostspeed.py); the raw times are
printed too.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics (end-to-end with --trace 0, per-layer with
--trace 1).  See perfbench/README.md.
"""

import time

T_PROCESS = time.perf_counter()

import os  # noqa: E402

from hostspeed import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()
PROBE.start()

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3


def import_gwfract():
    """Import gwfract from this checkout only; None when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "gwfract", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import gwfract
    import gwfract.cli  # noqa: F401  (the verify workload calls it)

    if os.path.dirname(os.path.dirname(os.path.abspath(gwfract.__file__))) != SRC:
        return None
    return gwfract


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if import_gwfract() is None:
        print("gwfract sources not found under %s" % SRC, file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_PROCESS

    from workloads import WORKLOADS
    from tracer import Tracer, layer_metrics

    if args.workload not in WORKLOADS:
        print("unknown workload %r; choose from %s" % (args.workload, sorted(WORKLOADS)),
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        # set-up: built several times, the median build counts
        builds = []
        for i in range(SETUP_REPEATS):
            workdir = os.path.join(scratch, "setup%d" % i)
            os.makedirs(workdir)
            t = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, workdir)
            builds.append(time.perf_counter() - t)
        setup_raw = import_s + statistics.median(builds)
        setup_s = setup_raw * PROBE.factor(0)

        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        raw_rounds, rounds, outcomes = [], [], []
        t_start = time.perf_counter()
        try:
            while True:
                workload.before_round()
                mark = PROBE.mark()
                t0 = time.perf_counter()
                for op in workload.operations():
                    try:
                        outcomes.append((op, op.call(), None))
                    except Exception:
                        outcomes.append((op, None, traceback.format_exc()))
                raw_rounds.append(time.perf_counter() - t0)
                rounds.append(raw_rounds[-1] * PROBE.factor(mark))
                elapsed = time.perf_counter() - t_start
                if elapsed + statistics.median(raw_rounds) > args.seconds:
                    break
        finally:
            PROBE.stop()
            if tracer:
                tracer.uninstall()

        failed, correct = 0, True
        for op, result, err in outcomes:
            if err is None:
                try:
                    err = workload.check(op, result)
                except Exception:
                    err = traceback.format_exc()
            if err is not None:
                failed += 1
                if op.known_fault is None:
                    correct = False
                    print("FAIL %s: %s" % (op.name, err), file=sys.stderr)
        if args.trace:
            metrics = layer_metrics(tracer.spans, len(rounds), sum(raw_rounds))
            tracer.write_jsonl(os.path.join(
                OUT_DIR, "trace-%s-%d.jsonl" % (args.workload, args.seed)))
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "wall_s": {"value": statistics.median(rounds), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
        result = {"correct": correct, "attempted": len(outcomes), "failed": failed,
                  "metrics": metrics}
        line = json.dumps(result)
        with open(os.path.join(OUT_DIR, "result-%s-%d-trace%d.json"
                               % (args.workload, args.seed, args.trace)), "w") as fh:
            fh.write(line + "\n")
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print("rounds %d: raw %s s, corrected %s s; set-up raw %.3f s (import %.3f s, "
              "builds %s s), corrected %.3f s; process user %.2f s, system %.2f s"
              % (len(rounds), ["%.3f" % r for r in raw_rounds], ["%.3f" % r for r in rounds],
                 setup_raw, import_s, ["%.3f" % b for b in builds], setup_s,
                 usage.ru_utime, usage.ru_stime))
        print(line)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
