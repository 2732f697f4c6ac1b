"""donormatch benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_fixed --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                       # every workload, one process each

A run imports the package from ``src/`` and sets the workload up at least
three times and for at least two seconds (``setup_s`` is the median). It
then runs whole rounds of the workload's operations, one after another in
this process, until ``--seconds`` have passed, and reports the mean wall
and CPU time of the middle half of its rounds and the process's peak
resident memory. Outputs are checked only
after the timed part. With ``--trace 1`` it also sets up and runs one
more round with every layer boundary wrapped, and reports per-layer
figures for that set-up plus round instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed output check makes
the run exit with status 1; a failed operation alone does not.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# Set-up repeats at least this often and for at least this long, so that
# the median of a cheap set-up rests on many samples.
SETUP_REPS = 3
SETUP_SECONDS = 2.0


def _import_package():
    """Import donormatch afresh, so that each set-up pays for the import."""
    for key in [k for k in sys.modules if k == "donormatch" or k.startswith("donormatch.")]:
        del sys.modules[key]
    return importlib.import_module("donormatch"), importlib.import_module("donormatch.cli")


def _setup(workload_cls, seed: int, workdir: str, before_setup=None):
    start = time.perf_counter()
    dm, cli = _import_package()
    if before_setup is not None:
        before_setup()
    wl = workload_cls(seed, workdir)
    wl.attach(dm, cli)
    wl.setup()
    return wl, time.perf_counter() - start


def _middle_mean(values) -> float:
    """Mean of the values left after dropping the lowest and highest quarter.

    The host's speed drifts over tens of seconds and has bursts of a
    second or two; a mean over the run follows the drift and dropping the
    outer quarters sheds the bursts, where a median of few long rounds
    would rest on one round's few seconds.
    """
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def _run_round(wl, r: int):
    """One round's operations in order; returns (records, errors, wall_s, cpu_s)."""
    ops = wl.operations(r)
    records, errors = [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _label, op in ops:
        try:
            records.append(op())
            errors.append(None)
        except (Exception, SystemExit):  # the operation failed; the run goes on
            records.append(None)
            errors.append(traceback.format_exc(limit=3))
    return records, errors, time.perf_counter() - wall0, time.process_time() - cpu0


def _check(wl, records, errors):
    """Per operation: the reason it failed to run, and the problems its checks found."""
    reasons = [err.strip().splitlines()[-1] if err else None for err in errors]
    try:
        found = wl.check(records)
    except Exception:  # a check that cannot run is a failed check
        found = [[traceback.format_exc(limit=3)] if rec is not None else [] for rec in records]
    return reasons, [("; ".join(p) if p else None) for p in found]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans as tracing
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        setup_s = []
        while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_SECONDS:
            wl, elapsed = _setup(cls, seed, os.path.join(work, f"setup{len(setup_s)}"))
            setup_s.append(elapsed)
            gc.collect()  # free the previous import's modules before the next

        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            gc.collect()  # so no round pays for the previous round's garbage
            rounds.append(_run_round(wl, len(rounds)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checked = [(wl, records, errors) for records, errors, _, _ in rounds]
        if trace:
            tracer = tracing.Tracer()
            twl, _ = _setup(cls, seed, os.path.join(work, "traced"), tracer.install)
            records, errors, wall, _ = _run_round(twl, 0)
            tracer.uninstall()
            checked.append((twl, records, errors))
            overhead = wall - _middle_mean(r[2] for r in rounds)
            values = tracing.layer_metrics(
                tracer.spans, overhead, tracer.replay_peak_alloc_mb()
            )
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit, _ in tracing.LAYER_METRICS
            }
            path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"missing": tracer.missing, "spans": tracer.spans}, fh)
            _log(f"wrote {len(tracer.spans)} spans to {os.path.relpath(path, ROOT)}")
            if tracer.missing:
                _log(f"boundaries not found, reported as 0: {tracer.missing}")
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "wall_s": {"value": _middle_mean(r[2] for r in rounds), "unit": "s"},
                "cpu_s": {"value": _middle_mean(r[3] for r in rounds), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }

        attempted = failed = 0
        correct = True
        for owner, records, errors in checked:
            reasons, problems = _check(owner, records, errors)
            for i, (reason, problem) in enumerate(zip(reasons, problems)):
                attempted += 1
                if reason or problem:
                    failed += 1
                    _log(f"operation {i} failed: {reason or problem}")
                if problem:
                    correct = False
        _log(
            f"{workload}: {len(rounds)} timed round(s), {attempted} operations, "
            f"{failed} failed"
        )
        for name, m in metrics.items():
            _log(f"  {name} = {m['value']:.6g} {m['unit']}")
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    results, status = {}, 0
    for name in WORKLOADS:
        argv = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        results[name] = result
        status = max(status, proc.returncode)
        if result is None:
            print(f"{name}: no result (exit status {proc.returncode})")
            continue
        print(
            f"{name}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}"
        )
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        importlib.import_module("donormatch")
    except ImportError as err:
        _log(f"cannot import donormatch from {os.path.join(ROOT, 'src')}: {err}")
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
