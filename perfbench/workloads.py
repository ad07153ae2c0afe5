"""The three benchmark workloads and the output checks behind error_rate.

Every workload is a closed loop with one client: the benchmark issues unit i,
waits for it, checks its output, then issues unit i + 1. The inputs of unit i
are a pure function of (workload seed, i), so a seed fixes a whole pass. Each
class keeps the counts of one pass; ``finish`` runs the pass-level checks.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
import subprocess
import sys
import traceback

import numpy as np

from powergame import asymptotic
from powergame.efficiency import EfficiencyKind, EfficiencyModel
from powergame.experiments import (ScenarioConfig, SweepMode,
                                   run_finite_vs_asymptotic, trial_rng)
from powergame.game import solve_equilibrium, verify_nash
from powergame.multiantenna import solve_equilibrium_ma
from powergame.system import (ChannelRealization, ReceiverKind, SystemParams,
                              generate_gains, generate_spreading)

MF = ReceiverKind.MATCHED_FILTER
DE = ReceiverKind.DECORRELATOR
MMSE = ReceiverKind.MMSE
KINDS = (MF, DE, MMSE)

# the README default system: L = M = 100 bits, R = 1e5 bit/s, users at 100 m
MODEL = EfficiencyModel(EfficiencyKind.EXP_APPROX, 100)
SIGMA2 = 5e-16
DISTANCE = 100.0
SIR_TOL = 1e-6      # largest relative SIR error accepted at an equilibrium
CHILD_TIMEOUT = 120.0


def system_params(K: int, N: int, m: int = 1) -> SystemParams:
    return SystemParams(K=K, N=N, sigma2=SIGMA2, R=1e5, L=100, M=100,
                        Pmax=1.0, m=m)


def draw(rng: np.random.Generator, N: int, K: int, m: int = 1):
    distances = np.full(K, DISTANCE)
    return ChannelRealization(S=generate_spreading(N, K, rng),
                              H=generate_gains(distances, m, rng),
                              distances=distances)


def max_rel_sir_error(result, gstar: float) -> float:
    """Largest |SIR - gamma*| / gamma* over the users not clamped at Pmax."""
    free = [k for k in range(len(result.sirs)) if k not in result.clamped_users]
    return float(np.max(np.abs(result.sirs[free] - gstar)) / gstar) if free else 0.0


def run_unit(workload, i: int, rec) -> bool:
    """Run unit i inside a bench span; an exception counts as a failed unit."""
    rec.unit = f"{workload.name}:{i}"
    try:
        with rec.span(f"bench.unit.{workload.name}"):
            return bool(workload.run_unit(i, rec))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


class NashVerify:
    """One seeded realization per unit, solved and then Nash-verified.

    N = 100 and K is half of each receiver's feasibility bound (MF 8, DE 50,
    MMSE 58); units cycle MF, DE, MMSE. A draw that does not converge free of
    the power cap is redrawn from the next attempt substream, as acceptance
    criterion 3 does; with seed 0 the draws are exactly criterion 3's.
    """

    name = "nash_verify"
    in_process = True
    N = 100
    STREAM = 100
    ATTEMPTS = 50
    MAX_ITER = 5000
    cycle = warmup_units = len(KINDS)

    def __init__(self, seed: int, gstar: float):
        self.seed, self.gstar = seed, gstar
        self.plan = [(kind, round(asymptotic.feasibility_bound(kind, gstar)
                                  / 2.0 * self.N)) for kind in KINDS]
        self.draws = self.kept = 0
        self.sweeps = {kind.value: [] for kind in KINDS}
        self.last = {}  # kind -> (realization, result) of its last kept unit

    def run_unit(self, i: int, rec) -> bool:
        kind, K = self.plan[i % self.cycle]
        params = system_params(K, self.N)
        for attempt in range(self.ATTEMPTS):
            self.draws += 1
            with rec.span("experiments.trial_rng"):
                rng = trial_rng(self.seed, self.STREAM, KINDS.index(kind),
                                i // len(KINDS), attempt)
            with rec.span("system.draw"):
                realization = draw(rng, self.N, K)
            with rec.span(f"game.solve_equilibrium.{kind.value}"):
                result = solve_equilibrium(realization, kind, params, MODEL,
                                           gamma_star=self.gstar,
                                           max_iter=self.MAX_ITER)
            if result.converged and not result.clamped_users:
                break
        else:
            return False
        self.kept += 1
        self.sweeps[kind.value].append(result.iterations)
        self.last[kind] = (realization, result)
        with rec.span(f"game.verify_nash.{kind.value}"):
            is_nash = verify_nash(result, realization, kind, params, MODEL)
        return is_nash and max_rel_sir_error(result, self.gstar) <= SIR_TOL

    def finish(self):
        return True, {
            "draws": self.draws, "kept": self.kept,
            "draws_kept_ratio": self.kept / self.draws if self.draws else None,
            "sweeps_p50": {k: statistics.median(v)
                           for k, v in self.sweeps.items() if v}}


class FiniteMC:
    """Finite-system Monte Carlo: criterion-6 chunks and stacked MMSE solves.

    A chunk is one run_finite_vs_asymptotic call at N = 200 for one receiver
    with its own seed, in criterion 6's shape (MMSE load 0.5, DE 0.3, MF
    0.07). A stacked unit solves 2-antenna MMSE at N = 200, K = 100. The unit
    types take clearly different times (DE and MF chunks ~20 ms, a stacked
    solve ~60 ms, an 8-trial MMSE chunk ~130 ms), and the cycle holds three
    short units, five stacked solves and two MMSE chunks. So the median unit
    falls inside the stacked-solve mode and p90 in the middle of the MMSE
    mode, never on the edge between two modes, which keeps both steady.
    """

    name = "finite_mc"
    in_process = True
    N = 200
    CHUNKS = {MMSE: (0.5, 8), DE: (0.3, 20), MF: (0.07, 20)}  # load, trials
    # None: one stacked 2-antenna solve
    CYCLE = (MMSE, DE, None, MF, None, None, MMSE, None, DE, None)
    MA_K, MA_M = 100, 2
    CHUNK_STREAM, STACKED_STREAM = 101, 102
    CRITERION_TRIALS = 200   # criterion 6 judges the error over 200 trials
    POOLED_LIMIT = 0.05
    cycle = len(CYCLE)
    warmup_units = 4  # the first four units are one of each type

    def __init__(self, seed: int, gstar: float):
        self.seed, self.gstar = seed, gstar
        self.chunk_errors = {kind.value: [] for kind in KINDS}
        self.sweeps = []
        self.ma_params = system_params(self.MA_K, self.N, self.MA_M)

    def run_unit(self, i: int, rec) -> bool:
        kind = self.CYCLE[i % self.cycle]
        return self.stacked(i, rec) if kind is None else self.chunk(kind, i, rec)

    def chunk(self, kind: ReceiverKind, i: int, rec) -> bool:
        alpha, trials = self.CHUNKS[kind]
        seed = np.random.SeedSequence(
            self.seed, spawn_key=(self.CHUNK_STREAM, i)).generate_state(1)[0]
        config = ScenarioConfig(params=system_params(30, 100), model=MODEL,
                                kinds=(kind,), alpha_grid=(alpha,),
                                trials=trials, master_seed=int(seed),
                                distance=DISTANCE, antennas=(1,),
                                mode=SweepMode.NONCOOPERATIVE,
                                n_grid=(self.N,))
        with rec.span(f"experiments.run_finite_vs_asymptotic.{kind.value}"):
            rows = run_finite_vs_asymptotic(config)
        if len(rows) != 1 or not math.isfinite(rows[0].mean_rel_power_error):
            return False
        self.chunk_errors[kind.value].append(
            (trials, rows[0].mean_rel_power_error))
        return True

    def stacked(self, i: int, rec) -> bool:
        with rec.span("experiments.trial_rng"):
            rng = trial_rng(self.seed, self.STACKED_STREAM, i)
        with rec.span("system.draw"):
            realization = draw(rng, self.N, self.MA_K, self.MA_M)
        with rec.span(f"multiantenna.solve_equilibrium_ma.MMSE.m{self.MA_M}"):
            result = solve_equilibrium_ma(realization.S, realization.H, MMSE,
                                          self.ma_params, MODEL,
                                          gamma_star=self.gstar)
        self.sweeps.append(result.iterations)
        return (result.converged
                and max_rel_sir_error(result, self.gstar) <= SIR_TOL)

    def finish(self):
        """Criterion 6 on the pooled chunks of this pass, per receiver.

        A row carries only |mean power ratio - 1| of its chunk, so the
        trial-weighted mean of the chunk errors is used: by the triangle
        inequality it bounds the pooled error from above. It is judged once a
        receiver has pooled as many trials as criterion 6 uses.
        """
        ok, pooled = True, {}
        for kind, chunks in self.chunk_errors.items():
            trials = sum(t for t, _ in chunks)
            error = math.fsum(t * e for t, e in chunks) / trials if trials else None
            judged = trials >= self.CRITERION_TRIALS
            ok = ok and (not judged or error < self.POOLED_LIMIT)
            pooled[kind] = {"trials": trials, "error": error, "judged": judged}
        return ok, {"pooled_rel_power_error": pooled,
                    "stacked_sweeps_p50": (statistics.median(self.sweeps)
                                           if self.sweeps else None)}


# README CLI examples: (subcommand, arguments, the same settings as config
# overrides for cli.parse_config). Each run also gets --seed <workload seed>.
EXAMPLES = (
    ("gamma-star", (), ()),
    ("sweep", ("--receiver", "all", "--trials", "5000"),
     (("receiver", "all"), ("trials", "5000"))),
    ("pareto", ("--receiver", "MMSE", "--alpha-range", "0.05:1.0:0.05"),
     (("receiver", "MMSE"), ("alpha_range", "0.05:1.0:0.05"))),
    ("admission", ("--trials", "10000"), (("trials", "10000"),)),
    ("antennas", ("--receiver", "MMSE", "--antennas", "1,2,4,8"),
     (("receiver", "MMSE"), ("antennas", "1,2,4,8"))),
    ("equilibrium", ("--set", "K=50", "--set", "N=200", "--receiver", "MMSE"),
     (("K", "50"), ("N", "200"), ("receiver", "MMSE"))),
)

SWEEP_HEADER = ("alpha,kind,m,mode,mean_utility,std_utility,mean_power,"
                "target_sir,trials_used,trials_discarded")
# header and data rows per example. The row counts follow from each
# subcommand's default load grid and the feasibility bounds at
# gamma* = 6.4746 (MF alpha < 0.154, DE alpha < 1, MMSE alpha < 1.154).
EXPECTED_TABLES = {
    "sweep": (SWEEP_HEADER, 45),
    "pareto": (SWEEP_HEADER, 40),
    "admission": ("alpha,mean_total_utility_per_dof,Gamma", 115),
    "antennas": (SWEEP_HEADER, 92),
    "equilibrium": ("kind,user,power,sir,utility,iterations,converged", 50),
}


def receivers_ordered(table) -> bool:
    """MMSE >= DE >= MF in mean utility at every load where they appear."""
    by_alpha = {}
    for row in table:
        by_alpha.setdefault(row["alpha"], {})[row["kind"]] = float(row["mean_utility"])
    for cell in by_alpha.values():
        order = [cell[k] for k in ("MMSE", "DE", "MF") if k in cell]
        if any(a < b for a, b in zip(order, order[1:])):
            return False
    return True


def check_output(sub: str, text: str) -> bool:
    """Shape of one example's output plus the paper anchors it carries."""
    lines = text.splitlines()
    if sub == "gamma-star":
        # second line: "exact: <gamma*> linear, <dB> dB"
        return (len(lines) == 2
                and abs(float(lines[1].split()[1]) - 6.48) <= 0.01)
    header, rows = EXPECTED_TABLES[sub]
    if not lines or lines[0] != header or len(lines) - 1 != rows:
        return False
    table = list(csv.DictReader(lines))
    if sub == "admission":
        peak = max(table, key=lambda r: float(r["mean_total_utility_per_dof"]))
        return abs(float(peak["alpha"]) - 0.577) <= 0.005
    if sub == "sweep":
        return receivers_ordered(table)
    return True


class CliTables:
    """One `python -m powergame` process per unit, README examples in order.

    The child inherits the benchmark's environment: BLAS pinned to one
    thread and PYTHONPATH pointing at this checkout's src.
    """

    name = "cli_tables"
    in_process = False
    cycle = len(EXAMPLES)
    warmup_units = 1  # one process warms the page cache for the rest

    def __init__(self, seed: int, gstar: float):
        self.seed = seed
        self.digests = {}  # subcommand -> sha256 of its first output in the pass

    def run_unit(self, i: int, rec) -> bool:
        sub, args, _ = EXAMPLES[i % self.cycle]
        with rec.span(f"cli.process.{sub}"):
            proc = subprocess.run([sys.executable, "-m", "powergame", sub,
                                   *args, "--seed", str(self.seed)],
                                  capture_output=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            return False
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if self.digests.setdefault(sub, digest) != digest:
            return False
        return check_output(sub, proc.stdout.decode())

    def finish(self):
        return True, {"digests": dict(sorted(self.digests.items()))}


WORKLOADS = {cls.name: cls for cls in (NashVerify, FiniteMC, CliTables)}
