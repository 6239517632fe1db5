"""Benchmark entry point: one process, one thread, a closed loop with a single
client. Each item is sent only after the previous one returns, and every
answer is checked against the closed-form oracle in perfbench/gate.py.

    python3 perfbench/run.py --workload ncf_exact --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics of an untraced run; --trace 1 runs
every item untraced and then traced, and prints the per-layer metrics plus
the tracing overhead. The last line of standard output is the result
object; the line before it records the run environment.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy can be imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = "contextuality"
SETUP_REPEATS = 5
MAX_LISTED_FAILURES = 5
# reference loop: its length, and the time that defines the reference speed
REFERENCE_STEPS = 600
REFERENCE_S = 0.002


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _parse_args(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import the package from this checkout's source tree, never from an
    installed copy; every earlier import of it is dropped first."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    origin = Path(importlib.import_module(PACKAGE).__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"{PACKAGE} imported from {origin}, not from {SRC}")


def _reference_s() -> float:
    """Wall time of a fixed piece of Fraction arithmetic, the interpretive
    work that dominates the program, with the collector off so that only the
    machine's speed moves it."""
    gc.disable()
    try:
        t0 = perf_counter()
        total = Fraction(0)
        for i in range(1, REFERENCE_STEPS):
            total += Fraction(1, i % 97 + 1)
        return perf_counter() - t0
    finally:
        gc.enable()


def _timed(fn):
    """Run fn once; returns its result, its wall time, and the wall time
    scaled to the reference speed measured just before and just after."""
    before = _reference_s()
    t0 = perf_counter()
    result = fn()
    dt = perf_counter() - t0
    after = _reference_s()
    return result, dt, dt * REFERENCE_S * 2 / (before + after)


def _setup(workload: str, seed: int, workdir: Path):
    """Package import plus workload generation, repeated; returns the median
    raw and scaled times and the workload built last."""
    from perfbench import workloads

    def once():
        _import_package()
        return workloads.build(workload, seed, workdir, SRC / PACKAGE / "data")

    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        built, dt, dt_scaled = _timed(once)
        raw.append(dt)
        scaled.append(dt_scaled)
    return statistics.median(raw), statistics.median(scaled), built


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, name: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_LISTED_FAILURES:
                self.reasons.append(f"{name}: {reason}")


def _call(item):
    """One closed-loop request: result or failure reason, raw and scaled
    wall time."""

    def guarded():
        try:
            return item.call(), None
        except Exception as e:  # a crash is a wrong answer, not a benchmark error
            return None, f"raised {e!r}"

    (result, error), dt, dt_scaled = _timed(guarded)
    return result, error, dt, dt_scaled


def _check(item, result, error):
    if error is not None:
        return error
    try:
        return item.check(result)
    except Exception as e:
        return f"check raised {e!r}"


def _warm_up(wl, tally: Tally) -> None:
    results = {}
    for item in wl.warmup:
        result, error, _, _ = _call(item)
        if error is not None:
            tally.record(item.name, error)
        else:
            results[item.name] = result
    try:
        failures = wl.first_failures(results)
    except Exception as e:  # an output of unexpected shape is a wrong answer
        failures = dict.fromkeys(results, f"check raised {e!r}")
    for name in results:
        tally.record(name, failures.get(name))


def _timed_loop(wl, seconds: float, tally: Tally, tracer=None):
    """Closed loop over whole passes, cycling through the workload's passes.
    A pass starts only if the previous one suggests it ends within
    `seconds`; the first always runs. With a tracer, each item runs both
    untraced and traced, alternating which goes first so that warm caches
    favour neither. Returns (raw, scaled) latencies of the untraced calls
    and, with a tracer, of the traced ones."""
    plain, traced = ([], []), ([], [])

    def untraced_call(item):
        result, error, dt, dt_scaled = _call(item)
        tally.record(item.name, _check(item, result, error))
        plain[0].append(dt)
        plain[1].append(dt_scaled)

    def traced_call(item):
        tracer.begin_item()
        tracer.install()
        try:
            result, error, dt, dt_scaled = _call(item)
        finally:
            tracer.uninstall()
        tally.record(item.name, _check(item, result, error))
        tracer.scale_item(dt_scaled / dt if dt > 0 else 1.0)
        traced[0].append(dt)
        traced[1].append(dt_scaled)

    gc.collect()
    start = perf_counter()
    p = 0
    while True:
        pass_start = perf_counter()
        for item in wl.passes[p % len(wl.passes)]:
            if tracer is None:
                untraced_call(item)
            elif len(plain[0]) % 2:
                traced_call(item)
                untraced_call(item)
            else:
                untraced_call(item)
                traced_call(item)
        p += 1
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            return plain, traced


def _environment(args, wl, samples: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "samples": samples,
        "distinct_items": len({item.name for one in wl.passes for item in one}),
        "input_bytes": wl.files_bytes,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(latencies: list[float], setup_s: float) -> dict[str, dict]:
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    return {
        "throughput_items_per_s": _metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": _metric(p90 * 1e3, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    args = _parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no {PACKAGE} source under {SRC}")
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  loaded once, outside the timed set-up

    from perfbench.tracer import PER_LAYER_UNITS, Tracer

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_raw, setup_scaled, wl = _setup(args.workload, args.seed, workdir)
        tally = Tally()
        _warm_up(wl, tally)
        tracer = Tracer(PACKAGE) if args.trace else None
        plain, traced = _timed_loop(wl, args.seconds, tally, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment(args, wl, len(plain[0]))
    env["raw"] = {k: m["value"] for k, m in _end_to_end(plain[0], setup_raw).items()}
    if args.trace:
        metrics = tracer.per_layer()
        metrics["trace.overhead_s"] = statistics.fmean(traced[1]) - statistics.fmean(plain[1])
        metrics["error_rate"] = tally.failed / tally.attempted
        tracer.dump(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json")
        out = {k: _metric(metrics[k], unit) for k, unit in PER_LAYER_UNITS.items()}
    else:
        out = _end_to_end(plain[1], setup_scaled)
    for reason in tally.reasons:
        print(f"wrong answer: {reason}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": out,
            }
        )
    )
    return 0


def main() -> int:
    try:
        return run()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
