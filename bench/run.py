"""Benchmark for rentdiv: solve, verify and misreport search, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload contested --seed 1 --seconds 10 --trace 0

One process, one closed-loop client: each operation starts when the previous
one has returned.  The loop runs whole input cycles until `--seconds` of
operation time have been measured, then checks every output exactly.  With
`--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` the same operations are replayed under span tracing and the last
line holds the per-layer metrics.  The line before it describes the inputs
and the machine.  The exit code is 0 when the run completed, even if checks
failed (they are counted in "failed"), and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median
MODULES = ("cli", "scenarios", "manipulation", "pricing", "matching", "model")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a broken set-up)."""


def use_sources() -> None:
    """Put the checkout's own `src/` first on sys.path and import rentdiv from it."""
    if not (SRC / "rentdiv" / "__init__.py").is_file():
        raise BenchError(f"rentdiv sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import rentdiv

    if not Path(rentdiv.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported rentdiv from {rentdiv.__file__}, not {SRC}")


@dataclass
class Record:
    input: object
    output: object  # the op's result, or the exception it raised
    seconds: float
    failure: str | None = None


def run_loop(workload, seconds: float) -> list:
    """Run whole cycles of ops until `seconds` of op time are measured (at
    least one cycle).  Only the op call itself is timed."""
    records = []
    elapsed = 0.0
    cycles = workload.cycles()
    while elapsed < seconds or not records:
        for inp in next(cycles):
            t0 = time.perf_counter()
            try:
                out = workload.run(inp)
            except Exception as exc:  # a raising op is a counted failure
                out = exc
            dt = time.perf_counter() - t0
            records.append(Record(inp, out, dt))
            elapsed += dt
    return records


def check_all(workload, records) -> None:
    for r in records:
        if r.failure is not None:
            continue
        if isinstance(r.output, Exception):
            r.failure = f"raised {r.output!r}"
            continue
        try:
            r.failure = workload.check(r.input, r.output)
        except Exception as exc:  # a malformed output fails its check
            r.failure = f"check raised {exc!r}"


def measure_setup(name: str, seed: int) -> float:
    """Median time from starting a fresh interpreter to its first op being
    ready (rentdiv and numpy imported, first input cycle built)."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.close()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != b"ready":
            raise BenchError(f"set-up probe exited {code} with {line!r}")
    return statistics.median(times)


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def input_properties(workload, records) -> dict:
    keys = [workload.key(r.input) for r in records]
    props = workload.properties(records)
    props["repeated_input_share"] = (len(keys) - len(set(keys))) / len(keys)
    return props


def end_to_end(records, setup_s: float, rss_kb: int) -> dict:
    """End-to-end metrics of checked records: an op that raised or failed its
    check counts in the timed time but not among the completed ops."""
    passed = sum(1 for r in records if r.failure is None)
    return {
        "ops_per_s": (passed / sum(r.seconds for r in records), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def latency(records) -> dict:
    """Op latency percentiles for the info line.  They carry no bound: in a
    size mix the median sits in one size class and moves with its few
    samples.  p90 only when at least ten samples lie beyond it."""
    lat = sorted(r.seconds for r in records)
    out = {"op_s_p50": statistics.median(lat)}
    if len(lat) >= 100:
        out["op_s_p90"] = statistics.quantiles(lat, n=10)[-1]
    return out


def per_layer(summary, candidates: int, overhead_ratio: float) -> dict:
    """The per-layer metrics named in README.md, from one traced replay."""
    s = summary
    m = {}
    for module in MODULES:
        m[f"{module}.self_share"] = (s.module_self_share(module), "ratio")
    for name in (
        "matching.max_welfare_assignment",
        "pricing.simplex_solve",
        "pricing.min_utility_feasible",
        "model.validate_instance",
    ):
        m[f"{name}.calls_per_op"] = (s.calls_per_op(name), "count")
    for name in (
        "matching.max_welfare_assignment",
        "matching.all_optimal_assignments",
        "pricing.solve",
        "pricing.maximin_prices",
        "pricing.simplex_solve",
        "pricing.min_utility_feasible",
        "model.validate_instance",
        "model.build_outcome",
        "manipulation.best_response_search",
        "manipulation.evaluate_deviation",
        "scenarios.run_scenario",
        "cli.main",
    ):
        m[f"{name}.self_share"] = (s.self_share(name), "ratio")
    for name in (
        "matching.max_welfare_assignment",
        "pricing.maximin_prices",
        "scenarios.load_scenario",
    ):
        m[f"{name}.ms_p50"] = (s.ms_p50(name), "ms")
    m["pricing.lp_route_share"] = (
        s.share_with_descendant("pricing.maximin_prices", "pricing.simplex_solve"),
        "ratio",
    )
    search_self = s.self_time.get("manipulation.best_response_search", 0.0)
    tie_breaks = s.count.get("matching.tie_break_key", 0)
    m["manipulation.us_per_candidate"] = (
        search_self / candidates * 1e6 if candidates else 0.0, "us")
    m["matching.tie_break_key.calls_per_candidate"] = (
        tie_breaks / candidates if candidates else 0.0, "count")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


def traced_replay(workload, records):
    """Replay the recorded inputs under tracing.  An output that differs from
    the untraced one marks that record failed."""
    import spans

    recorder = spans.Recorder()
    with recorder.installed():
        for r in records:
            try:
                out = recorder.op(workload.run, r.input)
            except Exception as exc:
                out = exc
            if isinstance(out, Exception) or isinstance(r.output, Exception):
                same = False
            else:
                same = workload.same(out, r.output)
            if not same:
                r.failure = "traced output differs from the untraced one"
    return spans.Summary(recorder)


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result object printed as the last stdout line."""
    import workloads

    cls = workloads.WORKLOADS[name]
    setup_s = None if trace else measure_setup(name, seed)
    workload = cls(seed)
    records = run_loop(workload, seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    info = {"workload": name, "seed": seed, "trace": int(trace)}
    if trace:
        summary = traced_replay(workload, records)
        untraced = sum(r.seconds for r in records)
        candidates = len(records) * workload.candidates_per_op
        metrics = per_layer(summary, candidates, untraced / summary.op_time)
        info["lp_route_share"] = metrics["pricing.lp_route_share"][0]
    check_all(workload, records)
    if not trace:
        metrics = end_to_end(records, setup_s, rss_kb)
    failures = [r.failure for r in records if r.failure is not None]
    info.update(
        inputs=input_properties(workload, records),
        samples=len(records),
        latency=latency(records),
        failure_ratio=len(failures) / len(records),
        failures=failures[:5],
        machine=machine(),
    )
    print(json.dumps(info), flush=True)
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("contested", "uncontested", "search", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        use_sources()
        if args.setup_probe:
            import workloads

            next(workloads.WORKLOADS[args.workload](args.seed).cycles())
            print("ready", flush=True)
            return 0
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
