"""arclat benchmark: run one workload, or all of them, and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere; the benchmark imports arclat from the `src/` directory
next to `bench/`.  Every pass runs in a fresh worker process (see
worker.py) with PYTHONHASHSEED pinned and ARCLAT_THREADS unset.

--trace 0 runs one pass of every op, then passes that leave out the ops
marked `once` while the next one is expected to end within S seconds, and
reports the end-to-end metrics of BENCHMARK.json from each op's median time
over the passes, every time scaled to a reference machine speed by a
calibration loop timed alongside (see bench/README.md).
--trace 1 runs a traced, an untraced and a traced pass with the same seed,
checks that every call count repeats exactly, and reports the per-layer
metrics of BENCHMARK.json.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import CHECK, ENTRY_POINTS, SERIALIZE
from worker import calibration_loop, nearest_rank, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15  # fresh processes timed to "ready" per run, at least
RUN_LIMIT_S = 170  # a run that cannot finish by then is stopped and fails
CALIBRATION_REF_S = 0.002  # the calibration loop's time at the reference speed
CALIBRATION_SAMPLES = 5  # loop samples before every worker starts
CALIBRATION_NEAREST = 15  # a worker's loop samples that give the speed around one op
HASH_SEED = "0"  # frozenset iteration order reaches next(iter(...)) choices
UNATTRIBUTED_WARN = 0.05  # share of an op kind's traced time


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "PYTHONHASHSEED": HASH_SEED,
        "ARCLAT_THREADS": "unset",
    }


class Runner:
    """Starts worker processes one at a time and stops them all on exit."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "ARCLAT_THREADS"}
        self.env["PYTHONHASHSEED"] = HASH_SEED
        self.digests: set = set()
        self.calibration: list = []  # loop times before each worker started
        self.loops: list = []  # loop times within the timed passes

    def speed(self) -> float:
        """Reference loop time over the median loop time before the workers."""
        return CALIBRATION_REF_S / statistics.median(self.calibration)

    def spawn(self, mode: str):
        """One worker; returns (seconds from spawn to ready, parsed result or None)."""
        # Sampled here, while no worker runs, so the program cannot slow it.
        self.calibration += [calibration_loop() for _ in range(CALIBRATION_SAMPLES)]
        argv = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
        ]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker ({mode}) did not finish within {RUN_LIMIT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not ready.startswith("ready "):
            raise BenchError(f"worker ({mode}) exited with {proc.returncode}: {err.strip()[-2000:]}")
        self.digests.add(ready.split()[1])
        if len(self.digests) != 1:
            raise BenchError(f"workers generated different inputs: {sorted(self.digests)}")
        return setup, (json.loads(out.strip().splitlines()[-1]) if mode != "setup" else None)

    def setup_samples(self, count: int) -> list:
        return [self.spawn("setup")[0] for _ in range(count)]


def run_untraced(runner: Runner, seconds: int, spec: dict):
    # Set-up samples come from both ends of the run and from every pass, so
    # a slow stretch of the machine meets only some of them.
    setups = runner.setup_samples(SETUP_SAMPLES // 2)
    # The first pass runs every op; later passes leave out the ops marked
    # `once` and repeat while the next one is expected to fit.
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup, result = runner.spawn("rest" if passes else "run")
        setups.append(setup)
        passes.append(result)
        now = time.perf_counter()
        if now - start + (now - t0 - result["once_s"]) > seconds:
            break
    setups += runner.setup_samples(max(0, SETUP_SAMPLES - len(setups)))
    # The machine's speed varies by tens of percent, from one second to the
    # next and over minutes, which no statistic of raw times within one run
    # removes.  Every op's time is therefore scaled to the reference speed
    # by the calibration loop timed around it in its worker, and then taken
    # at its median over the passes that ran it.  setup_s is scaled by the
    # loop timed before the workers started.  A thread left running beside
    # the loop would slow it and make the program look faster; the workloads
    # are single-threaded by design.
    threads = max(p["threads"] for p in passes)
    if threads > 1:
        raise BenchError(f"a worker ran {threads} threads; the calibration needs the program to leave none running")
    for p in passes:
        p["speed"] = op_speeds(p)
    runner.loops = [loop for p in passes for _t, loop in p["calibration"]]
    wall_ms = median_per_op(at_reference(p, "wall_ms") for p in passes)
    ranked = sorted(wall_ms)
    tail = tail_percentile(len(ranked))
    speed = runner.speed()
    values = {
        "setup_s": statistics.median(setups) * speed,
        "wall_s": sum(wall_ms) / 1000,
        "cpu_s": sum(median_per_op(at_reference(p, "cpu_ms") for p in passes)) / 1000,
        "op_p50_ms": nearest_rank(ranked, 50.0),
        "op_tail_ms": nearest_rank(ranked, tail),
    }
    raw_ms = sorted(median_per_op(p["wall_ms"] for p in passes))
    measured = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(raw_ms) / 1000,
        "cpu_s": sum(median_per_op(p["cpu_ms"] for p in passes)) / 1000,
        "op_p50_ms": nearest_rank(raw_ms, 50.0),
        "op_tail_ms": nearest_rank(raw_ms, tail),
    }
    values["peak_rss_mb"] = passes[0]["peak_rss_mb"]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    known = sum(len(p["known_defects"]) for p in passes)
    values["fail_ratio"] = (failed + known) / attempted
    values["known_defects"] = known

    def each(key: str) -> str:
        return " ".join(f"{p[key]:.4g}" for p in passes)

    samples = (f"{len(ranked)} ops, each at its median of {len(passes)} pass(es) "
               f"({passes[0]['once_ops']} marked once: 1)")
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"sum over {samples}; pass walls " + each("wall_s"),
        "cpu_s": f"sum over the same ops' median CPU times; pass CPU " + each("cpu_s")
                 + f"; first pass in the kernel {passes[0]['sys_s']:.3g} s, {passes[0]['minor_faults']} minor page faults",
        "op_p50_ms": f"over {samples}; per pass " + each("op_p50_ms"),
        "op_tail_ms": f"p{tail:g} over the same; per pass " + each("op_tail_ms"),
        "peak_rss_mb": "ru_maxrss of the first pass's process, which runs every op",
        "fail_ratio": f"{failed + known} failed / {attempted} attempted, {known} of them known defects",
        "known_defects": "failed ops marked as known defects (ROADMAP item 2); not in the result line's `failed`",
    }
    notes["setup_s"] = f"measured {measured['setup_s']:.6g} x speed {speed:.4f}; " + notes["setup_s"]
    for name in ("wall_s", "cpu_s", "op_p50_ms", "op_tail_ms"):
        notes[name] = f"unscaled {measured[name]:.6g}; " + notes[name]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(fail_ratio="ratio", known_defects="count")
    report = [(name, values[name], units[name], notes[name]) for name in values]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    failures = [f for p in passes for f in p["failures"]] + passes[0]["known_defects"]
    return attempted, failed, metrics, report, failures


def op_speeds(p: dict) -> list:
    """Per op of one pass, the reference loop time over the median loop time
    of its worker's samples taken during the op, or of the
    CALIBRATION_NEAREST samples nearest to the op where fewer fell inside it
    (None: left out).  A sample's distance to an op is its distance to the
    op's start-to-end interval."""
    def speed(span):
        t0, t1 = span
        near = [c for c in p["calibration"] if t0 <= c[0] <= t1]
        if len(near) < CALIBRATION_NEAREST:
            near = heapq.nsmallest(CALIBRATION_NEAREST, p["calibration"],
                                   key=lambda c: max(t0 - c[0], c[0] - t1, 0.0))
        return CALIBRATION_REF_S / statistics.median(loop for _t, loop in near)

    return [None if span is None else speed(span) for span in p["span_s"]]


def at_reference(p: dict, key: str) -> list:
    """Per op of one pass, its time in `key` scaled to the reference speed."""
    return [None if t is None else t * f for t, f in zip(p[key], p["speed"])]


def median_per_op(per_pass) -> list:
    """Per op, its median over the passes that ran it (None: left out)."""
    return [statistics.median(t for t in times if t is not None) for times in zip(*per_pass)]


def layer_values(traces: list, overhead: float) -> dict:
    """Per-layer metric values from two traced passes with one seed.

    Every entry point gets a value, 0 where the workload never calls it.
    """
    calls = traces[0]["calls"]
    out: dict = {}
    modules: dict = {}
    for name, kind in [(n, k) for n, _m, _a, k in ENTRY_POINTS] + [(SERIALIZE, "span"), (CHECK, "span")]:
        out[name + ".calls"] = calls.get(name, 0)
        if kind == "span":
            out[name + ".self_s"] = statistics.mean(t["self_s"].get(name, 0.0) for t in traces)
            if name != CHECK:
                mod = name.split(".")[0]
                modules[mod] = modules.get(mod, 0.0) + out[name + ".self_s"]
    out.update({mod + ".self_s": v for mod, v in modules.items()})
    out.update(traces[0]["ratios"])
    out["bench.unattributed_s"] = statistics.mean(sum(t["unattributed_s"].values()) for t in traces)
    out["bench.trace_overhead_s"] = overhead
    return out


def run_traced(runner: Runner, spec: dict):
    # traced, untraced, traced: a slow stretch of the machine hits both sides
    passes = [runner.spawn("trace")[1]]
    plain = [runner.spawn("run")[1]]
    passes.append(runner.spawn("trace")[1])
    traces = [p["trace"] for p in passes]
    if traces[0]["calls"] != traces[1]["calls"]:
        diff = {k: (traces[0]["calls"].get(k), traces[1]["calls"].get(k))
                for k in set(traces[0]["calls"]) | set(traces[1]["calls"])
                if traces[0]["calls"].get(k) != traces[1]["calls"].get(k)}
        raise BenchError(f"call counts differ between two traced passes with one seed: {diff}")
    overhead = statistics.mean(p["wall_s"] for p in passes) - plain[0]["wall_s"]
    values = layer_values(traces, overhead)
    report = []
    metrics = {}
    unknown = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
    if unknown:
        raise BenchError(f"BENCHMARK.json names per-layer metrics the trace does not produce: {unknown}")
    for m in spec["per_layer"]:
        name = m["name"]
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        report.append((name, values[name], m["unit"], ""))
    # Self-check: layer self times plus checking time account for op time.
    accounting = []
    for kind, total in traces[0]["op_total_s"].items():
        rest = statistics.mean(t["unattributed_s"][kind] for t in traces)
        share = rest / total if total else 0.0
        flag = "  UNATTRIBUTED" if share > UNATTRIBUTED_WARN else ""
        accounting.append(f"op {kind}: {total:.4f} s traced, {rest:.4f} s ({share:.1%}) outside spans{flag}")
    for name, (own, spec_) in sorted(traces[0]["slowest"].items(), key=lambda kv: -traces[0]["self_s"][kv[0]])[:5]:
        total = traces[0]["self_s"][name]
        accounting.append(f"{name}: {total:.4f} s self, largest single call {own:.4f} s "
                          f"({own / total if total else 0:.0%}) in op '{spec_}'")
    for m, (n_calls, distinct) in traces[0]["rank_two_by_hyperplanes"].items():
        accounting.append(f"geometry.rank_two on the {m}-hyperplane arrangement: {n_calls} calls, {distinct} distinct pairs")
    accounting.append(f"wall_s traced {[round(p['wall_s'], 4) for p in passes]}, untraced {[round(p['wall_s'], 4) for p in plain]}")
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]] + passes[0]["known_defects"]
    return attempted, failed, metrics, report, failures, accounting


def loop_summary(loops: list) -> dict:
    if not loops:
        return {"samples": 0}
    q = statistics.quantiles(loops, n=4) if len(loops) > 1 else loops * 3
    return {"samples": len(loops), "median": q[1], "p25": q[0], "p75": q[2], "min": min(loops), "max": max(loops)}


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    runner = Runner(name, seed)
    accounting: list = []
    if trace:
        attempted, failed, metrics, report, failures, accounting = run_traced(runner, spec)
    else:
        attempted, failed, metrics, report, failures = run_untraced(runner, seconds, spec)
    info = machine_info()
    info.update(seed=seed, workload=name, seconds=seconds, trace=int(trace),
                inputs_digest=runner.digests.pop(),
                calibration_s={"reference": CALIBRATION_REF_S, "before_workers": loop_summary(runner.calibration),
                               "within_passes": loop_summary(runner.loops)})
    print(f"# workload {name}: machine and inputs")
    print("env " + json.dumps(info))
    for line in accounting:
        print("trace " + line)
    for f in failures[:10]:
        print(("KNOWN_DEFECT " if "known" in f else "FAILED ") + json.dumps(f))
    for metric, value, unit, note in report:
        print(f"{metric:<44} {value:>14.6g} {unit:<6} {note}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    if not (ROOT / "src" / "arclat" / "__init__.py").is_file():
        print(f"error: no arclat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
            print(json.dumps(result))
            return 0
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            print()
        print(json.dumps({"workloads": results}))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
