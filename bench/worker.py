"""One benchmark process: set up a workload, then run its op list once.

    python3 bench/worker.py --workload W --seed S --mode {setup,run,rest,trace}

The process imports arclat from the checkout's `src/`, generates the seeded
op list and prints `ready <inputs digest>` on stdout; `run.py` takes the time
from spawning the process to that line as one `setup_s` sample.  In `setup`
mode it exits there.  Otherwise it runs every op once, in order (in `rest`
mode every op not marked `once`), timing a calibration loop every 40 ms
meanwhile, and prints one JSON line with the pass results.  `trace` mode
wraps arclat's entry points first (see tracing.py), takes no calibration
samples, writes the spans under bench/out/ and adds the per-layer summary.
`run.py` starts this process with PYTHONHASHSEED pinned and ARCLAT_THREADS
unset.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import sys
import threading
import time
from pathlib import Path

from tracing import CHECK, OP_PREFIX, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALIBRATION_EVERY_S = 0.04  # period of the calibration timer


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop of about 2 ms: one speed sample."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def thread_count() -> int:
    """Threads of this process, native ones too where /proc shows them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def cache_counts() -> dict:
    """(hits, misses) of arclat's own lru caches that the ratios report."""
    from arclat import arcs_b, forcing

    descent = [forcing._signed_descent_arcs_cached.cache_info(), forcing._descent_arcs_cached.cache_info()]
    unfold = arcs_b.unfold_arcs.cache_info()
    return {
        "forcing.descent_cache": (sum(c.hits for c in descent), sum(c.misses for c in descent)),
        "arcs_b.unfold_arcs": (unfold.hits, unfold.misses),
    }


def tail_percentile(n: int) -> float:
    """Highest of p99, p90, p75 with at least 10 of n ops beyond it, else p50.

    Finer steps would put the tail of a single pass among its ten or so
    heaviest ops, where one op's luck with the machine sets the value.
    """
    for p in (99.0, 90.0, 75.0, 50.0):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50.0


def nearest_rank(sorted_values: list, p: float) -> float:
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


class Calibrator:
    """Times the calibration loop from a timer signal every CALIBRATION_EVERY_S,
    so that its samples fall inside long ops as well as between short ones.

    Each sample keeps its own wall and CPU time, which run_pass takes out of
    the op it interrupted.  The signal handler runs in the main thread
    between two bytecodes of whatever code is running.
    """

    def __init__(self):
        self.samples: list = []  # (start, wall seconds, CPU seconds, loop seconds)
        self.threads = 0

    def _sample(self, _signum, _frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.threads = max(self.threads, thread_count())
        loop = calibration_loop()
        self.samples.append((t0, time.perf_counter() - t0, time.process_time() - c0, loop))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class NoCalibrator(Calibrator):
    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        pass


class NoTracer:
    op = -1

    def enter(self, name: str) -> int:
        return -1

    def exit(self, idx: int) -> None:
        pass


def run_pass(ops: list, tracer, calibrator: Calibrator, skip_once: bool = False) -> dict:
    """Run the ops in order, leaving out those marked `once` if skip_once.

    Per op it records the wall and CPU time of compute + check, without the
    calibration samples taken meanwhile, and the op's start and end within
    the pass; None for an op left out.
    """
    wall_ms, cpu_ms, span_s = [], [], []
    failures = []
    known = []
    samples = calibrator.samples
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with calibrator:
        for k, op in enumerate(ops):
            if skip_once and op.once:
                wall_ms.append(None)
                cpu_ms.append(None)
                span_s.append(None)
                continue
            tracer.op = k
            first = len(samples)
            c0, t0 = time.process_time(), time.perf_counter()
            span = tracer.enter(OP_PREFIX + op.kind)
            try:
                value = op.compute()
                check = tracer.enter(CHECK)
                try:
                    ok, why = bool(op.verify(value)), "wrong answer"
                finally:
                    tracer.exit(check)
            except Exception as exc:  # a failed op is counted, never fatal
                ok, why = False, f"{type(exc).__name__}: {exc}"
                if op.known_defect:
                    known.append({"op": k, "kind": op.kind, "spec": op.spec[:200], "why": why[:200],
                                  "known": op.known_defect})
                    ok = True
            finally:
                tracer.exit(span)
            t1, c1 = time.perf_counter(), time.process_time()
            inside = [smp for smp in samples[first:] if t0 <= smp[0] < t1]
            wall_ms.append(1000 * (t1 - t0 - sum(smp[1] for smp in inside)))
            cpu_ms.append(1000 * (c1 - c0 - sum(smp[2] for smp in inside)))
            span_s.append((t0 - wall0, t1 - wall0))
            if not ok:
                failures.append({"op": k, "kind": op.kind, "spec": op.spec[:200], "why": why[:200]})
    # The pass's own wall and CPU time, without the calibration samples
    wall = time.perf_counter() - wall0 - sum(smp[1] for smp in samples)
    cpu = time.process_time() - cpu0 - sum(smp[2] for smp in samples)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    ran = sorted(t for t in wall_ms if t is not None)
    p = tail_percentile(len(ran))
    return {
        "ops": len(ran),
        "failed": len(failures),
        "failures": failures[:20],
        "known_defects": known,
        "wall_s": wall,
        "cpu_s": cpu,
        "once_ops": sum(1 for op in ops if op.once),
        "once_s": sum(t for t, op in zip(wall_ms, ops) if op.once and t is not None) / 1000,
        "sys_s": usage.ru_stime - usage0.ru_stime,
        "minor_faults": usage.ru_minflt - usage0.ru_minflt,
        "op_p50_ms": nearest_rank(ran, 50.0),
        "op_tail_ms": nearest_rank(ran, p),
        "tail_pct": p,
        "wall_ms": wall_ms,
        "cpu_ms": cpu_ms,
        "span_s": span_s,
        "calibration": [(start - wall0, loop) for start, _w, _c, loop in samples],
        "threads": calibrator.threads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "rest", "trace"), required=True)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import arclat

    if Path(arclat.__file__).resolve().parent != (src / "arclat").resolve():
        print(f"error: imported arclat from {arclat.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.build(args.workload, args.seed)
    digest = hashlib.sha256("\n".join(f"{op.kind}\t{op.spec}" for op in ops).encode()).hexdigest()
    print("ready", digest[:16], flush=True)
    if args.mode == "setup":
        return 0

    # A traced pass reports only per-layer figures, which are not scaled, and
    # its spans would take in the calibration samples' time.
    tracer, calibrator = NoTracer(), Calibrator()
    if args.mode == "trace":
        tracer, calibrator = Tracer(cache_counts), NoCalibrator()
        tracer.install()
    result = run_pass(ops, tracer, calibrator, skip_once=args.mode == "rest")
    result["inputs_digest"] = digest[:16]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode == "trace":
        result["trace"] = summary = tracer.summary()
        summary["slowest"] = {name: [own, ops[op].spec if op >= 0 else "setup"]
                              for name, (own, op) in summary["slowest"].items()}
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
