"""Layered benchmark for powergame: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload nash_verify --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Workloads (workloads.py) are closed loops with one client:
  nash_verify  one realization per unit: solve_equilibrium, then verify_nash;
  finite_mc    run_finite_vs_asymptotic chunks and stacked 2-antenna solves;
  cli_tables   one `python -m powergame` process per README example.

--trace 0  set up, then an untraced pass for --seconds; prints the
           end-to-end metrics: setup_s, units_per_s, unit_p50_s, unit_p90_s
           and peak_rss_mb. Before and after every cycle of units (the
           workload's fixed sequence of unit types) the pass times a fixed
           reference (reference.py: numpy work in process, or a
           child that imports numpy for cli_tables), and unit times are
           scaled to the reference's nominal speed, which takes the shared
           machine's drift in speed out of them. Each set-up is scaled the
           same way by the reference timed right after it. The wall-clock
           figures are printed too. units_per_s is the units of the pass
           over their scaled busy time.
--trace 1  the same untraced pass; then the units of its first half again,
           each once with spans around every call into powergame and once
           without, side by side (per-span calls, busy and self time, p50 and
           failures; tracing overhead); then the layer cases of cases.py.
           Prints the per-layer metrics.

Before the JSON line the run prints its provenance, every metric with its
unit and sample count, and a machine-readable "# detail" line. The unit and
reference times of the pass, and the span files, go to perfbench/out/. --self-check runs every workload at tiny sizes and checks
the output schema against BENCHMARK.json and that two runs on one seed give
identical counts and CSV digests.

Seeds: 0 is the default. Seed 20051 is held out: use it only to confirm a
claimed gain on inputs the change was not tuned on.

BLAS is pinned to one thread here and in every child (the machine this was
tuned on has two cores, and two OpenBLAS threads tripled the MMSE tail), and
powergame is imported from this checkout's src directory.
"""

import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Pin BLAS threads and put this checkout's src first on the import path.

    Must run before numpy is imported; children inherit os.environ.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (SRC / "powergame" / "__init__.py").is_file():
        raise SystemExit(f"error: no powergame package under {SRC}")
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (f"{SRC}{os.pathsep}{inherited}" if inherited
                                else str(SRC))
    sys.path.insert(0, str(SRC))


if __name__ == "__main__":
    started = time.perf_counter()
    pin_environment()
    import harness  # imports numpy, so only after the pinning above
    sys.exit(harness.main(sys.argv[1:], started))
