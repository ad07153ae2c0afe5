"""Set-up, timed passes, traced pass, report and self-check (see run.py)."""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import powergame
from powergame.efficiency import solve_gamma_star

from cases import Cases
from spans import NullRecorder, Recorder
from reference import for_workload
from reference import timed as reference_time
from workloads import CHILD_TIMEOUT, MODEL, WORKLOADS, run_unit

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
RUN_PY = BENCH_DIR / "run.py"
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 0  # seed 20051 is held out to confirm claims (see run.py)
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups per run
SETUP_REFERENCES = 3  # reference timings after each set-up; the median scales it
SELF_CHECK_TIMEOUT = 600.0


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one unit cycle per pass and single-rep cases")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_check:
        parser.error("--workload is required")
    return args


def setup(cls, seed: int, started: float):
    """Solve gamma*, build the workload from the seed and warm it up.

    Returns the time from process start to here, which covers importing
    numpy and powergame, gamma* and the warm-up units.
    """
    gstar = solve_gamma_star(MODEL)
    warm = cls(seed, gstar)
    for i in range(warm.warmup_units):
        run_unit(warm, i, NullRecorder())
    return time.perf_counter() - started, gstar


def setup_reference(reference) -> float:
    """Median reference time right after a set-up, to scale it by."""
    return statistics.median(reference_time(reference)
                             for _ in range(SETUP_REFERENCES))


def setup_in_child(workload: str, seed: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--setup-only", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["setup_s"], result["reference_s"]


def timed_pass(workload, reference, seconds=None, units=None):
    """Closed loop: run units until the time or unit budget is spent.

    The reference is timed before the first unit, after every cycle of
    units and after the last unit. Returns the unit durations, the reference
    times (one more than there are cycles, the last one possibly partial),
    the failed units and the wall time of the pass.
    """
    durations, failed = [], 0
    begin = time.perf_counter()
    refs = [reference_time(reference)]
    while (len(durations) < units if units is not None
           else time.perf_counter() - begin < seconds):
        t0 = time.perf_counter()
        ok = run_unit(workload, len(durations), NullRecorder())
        durations.append(time.perf_counter() - t0)
        failed += not ok
        if len(durations) % workload.cycle == 0:
            refs.append(reference_time(reference))
    if len(durations) % workload.cycle:
        refs.append(reference_time(reference))
    return durations, refs, failed, time.perf_counter() - begin


def paired_pass(cls, seed, gstar, rec, units):
    """Run units 0..units-1 twice each, traced and untraced, side by side.

    Pairing each traced unit with an untraced copy of it keeps the machine's
    slow drift in speed out of the overhead; the order alternates so that
    warm caches favour neither copy. Returns the traced workload, the
    tracing overhead as a ratio, and the failed units of both copies.
    """
    traced, plain = cls(seed, gstar), cls(seed, gstar)
    seconds = {True: 0.0, False: 0.0}
    failed = 0
    for i in range(units):
        for tracing in ((True, False) if i % 2 else (False, True)):
            t0 = time.perf_counter()
            ok = run_unit(traced if tracing else plain, i,
                          rec if tracing else NullRecorder())
            seconds[tracing] += time.perf_counter() - t0
            failed += not ok
    return traced, seconds[True] / seconds[False] - 1.0, failed


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
            "git_sha": git_sha(), "workload_seed": seed,
            "powergame": str(Path(powergame.__file__).resolve().parent)}


def scaled_durations(durations, refs, cycle, nominal_s) -> list:
    """Unit times at the reference's nominal speed (see reference.py).

    Unit i ran in cycle c = i // cycle; its time is multiplied by nominal_s
    over the mean of the reference times taken just before and just after
    that cycle. The machine's speed can change within a cycle, and the mean
    of the two sides tracks such a change better than either side alone.
    """
    return [d * 2.0 * nominal_s / (refs[i // cycle] + refs[i // cycle + 1])
            for i, d in enumerate(durations)]


def end_to_end(setups, scaled, nominal_s, peak_rss_mb):
    """End-to-end metrics from the set-ups and the scaled unit times.

    Each set-up, (seconds, reference seconds), is scaled like the units.
    units_per_s is the units of the pass over their scaled busy time.
    """
    n = len(scaled)
    p90 = statistics.quantiles(scaled, n=10)[8] if n > 1 else scaled[0]
    return [("setup_s", statistics.median(t * nominal_s / ref
                                          for t, ref in setups),
             "s", len(setups)),
            ("units_per_s", n / math.fsum(scaled), "1/s", n),
            ("unit_p50_s", statistics.median(scaled), "s", n),
            ("unit_p90_s", p90, "s", n),
            ("peak_rss_mb", peak_rss_mb, "MB", 1)]


def wall_clock(durations, refs, wall, setups) -> dict:
    """The same run unscaled, for reading the scaled metrics against."""
    return {"setup_s": statistics.median(t for t, _ in setups),
            "units_per_s": len(durations) / wall,
            "unit_p50_s": statistics.median(durations),
            "unit_p90_s": (statistics.quantiles(durations, n=10)[8]
                           if len(durations) > 1 else durations[0]),
            "reference_p50_s": statistics.median(refs),
            "reference_timings": len(refs)}


def measure(args, started):
    cls = WORKLOADS[args.workload]
    setup_s, gstar = setup(cls, args.seed, started)
    reference = for_workload(cls)
    setups = [(setup_s, setup_reference(reference))]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "reference_s": setups[0][1]}))
        return None
    units = cls.cycle if args.tiny else None

    workload = cls(args.seed, gstar)
    durations, refs, failed, wall = timed_pass(workload, reference,
                                               seconds=args.seconds, units=units)
    correct, detail = workload.finish()
    # children so far are this pass's CLI processes, the warm-up one and the
    # reference processes, which import less than a CLI process does
    usage = resource.getrusage(resource.RUSAGE_SELF if cls.in_process
                               else resource.RUSAGE_CHILDREN)
    setups += [setup_in_child(args.workload, args.seed)
               for _ in range((2 if args.tiny else SETUP_REPEATS) - 1)]
    scaled = scaled_durations(durations, refs, cls.cycle, reference.nominal_s)
    e2e = end_to_end(setups, scaled, reference.nominal_s,
                     usage.ru_maxrss / 1024.0)
    p90 = e2e[3][1]
    info = {"pass": detail, "pass_units": len(durations), "pass_failed": failed,
            "wall_clock": wall_clock(durations, refs, wall, setups),
            "samples_beyond_p90": sum(d > p90 for d in scaled)}
    attempted = len(durations)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    with open(OUT_DIR / f"{stem}_pass.json", "w", encoding="utf-8") as fh:
        json.dump({"cycle": cls.cycle, "nominal_s": reference.nominal_s,
                   "unit_s": durations, "reference_s": refs}, fh)
    if not args.trace:
        return e2e, attempted, failed, correct, info, e2e

    rec = Recorder()
    half = len(durations) if args.tiny else max(1, len(durations) // 2)
    traced, overhead, traced_failed = paired_pass(cls, args.seed, gstar, rec, half)
    traced_ok, info["traced_pass"] = traced.finish()
    cases = Cases(args.seed, gstar, args.tiny).run()
    span_failures = sum(s[5] for s in rec.spans + cases.rec.spans)
    per_layer = cases.metrics + [
        ("trace.overhead_ratio", overhead, "ratio", half),
        ("trace.span_failures", span_failures, "count",
         len(rec.spans) + len(cases.rec.spans))]
    info["traced_spans"] = rec.by_name()
    info["traced_layers"] = rec.by_layer()
    info["case_spans"] = cases.rec.by_name()
    info["case_layers"] = cases.rec.by_layer()
    rec.write(OUT_DIR / f"{stem}_traced_pass.json")
    cases.rec.write(OUT_DIR / f"{stem}_cases.json")
    return (per_layer, attempted + 2 * half + cases.attempted,
            failed + traced_failed + cases.failed,
            correct and traced_ok, info, e2e)


def print_table(title, rows):
    print(f"# {title}")
    print(f"  {'metric':<60} {'value':>14} {'unit':<6} {'n':>6}")
    for name, value, unit, n in rows:
        print(f"  {name:<60} {value:>14.6g} {unit:<6} {n:>6}")


def print_spans(title, stats, layers):
    print(f"# {title}")
    print(f"  {'span':<52} {'calls':>6} {'busy_s':>10} {'self_s':>10} "
          f"{'p50_s':>10} {'fail':>4}")
    for name, s in sorted(stats.items()):
        print(f"  {name:<52} {s['calls']:>6} {s['busy_s']:>10.4f} "
              f"{s['self_s']:>10.4f} {s['p50_s']:>10.6f} {s['failures']:>4}")
    total = sum(v["self_s"] for v in layers.values())
    for layer, v in sorted(layers.items()):
        print(f"  layer {layer:<16} self {v['self_s']:.4f} s "
              f"({v['self_s'] / total:.1%}), {v['spans']} spans")


def main(argv, started) -> int:
    args = parse_args(argv)
    if SRC_DIR not in Path(powergame.__file__).resolve().parents:
        sys.stderr.write(f"error: powergame imported from {powergame.__file__}, "
                         f"not from {SRC_DIR}\n")
        return 2
    if args.self_check:
        return self_check()
    measured = measure(args, started)
    if measured is None:
        return 0
    metrics, attempted, failed, correct, info, e2e = measured
    correct = correct and failed == 0

    print(f"# powergame benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    info["provenance"] = provenance(args.seed)
    print("# provenance " + json.dumps(info["provenance"]))
    print_table("end-to-end (untraced pass, times at the reference's "
                "nominal speed)", e2e)
    clock = info["wall_clock"]
    print(f"  wall clock: set-up {clock['setup_s']:.6g} s, "
          f"{clock['units_per_s']:.6g} units/s, p50 "
          f"{clock['unit_p50_s']:.6g} s, p90 {clock['unit_p90_s']:.6g} s; "
          f"reference p50 {clock['reference_p50_s']:.6g} s over "
          f"{clock['reference_timings']} timings")
    print(f"  error_rate {failed / attempted:.6g} ratio ({failed} failed of "
          f"{attempted} attempted); {info['samples_beyond_p90']} of "
          f"{info['pass_units']} units beyond p90")
    if args.trace:
        print_spans("traced pass", info["traced_spans"], info["traced_layers"])
        print_spans("layer cases", info["case_spans"], info["case_layers"])
        print_table("per-layer", metrics)
    info["metrics"] = {name: {"value": value, "unit": unit, "n": n}
                       for name, value, unit, n in metrics}
    print("# detail " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, value, unit, _ in metrics}}))
    return 0


def exact_counts(result, detail) -> dict:
    """What must repeat exactly between two runs on one seed."""
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] == "count" or name == "game.draws_kept_ratio"}
    counts["failed"] = result["failed"]
    counts["digests"] = detail["pass"].get("digests")
    return counts


def validate(result, detail, expected_units) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected_units):
        problems.append(f"missing {sorted(set(expected_units) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected_units))}")
    for name, m in metrics.items():
        value = m.get("value")
        if (set(m) != {"value", "unit"} or m.get("unit") != expected_units.get(name)
                or not isinstance(value, (int, float)) or not math.isfinite(value)
                or detail["metrics"][name]["n"] < 1):
            problems.append(f"metric {name}: {m}, n={detail['metrics'][name]['n']}")
    return problems


def self_check() -> int:
    """Tiny runs of every workload: schema, units, sample counts, repeats."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        traced = []
        for trace, copies in ((0, 1), (1, 2)):
            for _ in range(copies):
                label = f"{workload} trace={trace}"
                proc = subprocess.run(
                    [sys.executable, str(RUN_PY), "--workload", workload,
                     "--seed", str(DEFAULT_SEED), "--trace", str(trace),
                     "--tiny"],
                    capture_output=True, text=True, timeout=SELF_CHECK_TIMEOUT)
                if proc.returncode != 0:
                    problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                    continue
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1])
                detail = json.loads(next(line for line in lines
                                         if line.startswith("# detail "))[9:])
                problems += [f"{label}: {p}"
                             for p in validate(result, detail, units[trace])]
                if trace:
                    traced.append(exact_counts(result, detail))
                print(f"self-check {label}: {len(result['metrics'])} metrics, "
                      f"{result['attempted']} checked", flush=True)
        if len(traced) == 2 and traced[0] != traced[1]:
            problems.append(f"{workload}: counts differ between runs on one "
                            f"seed: {traced[0]} vs {traced[1]}")
    for problem in problems:
        print("self-check problem: " + problem)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0
