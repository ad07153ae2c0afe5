"""Layer cases: fixed calls into each powergame module, timed with spans.

The cases run in every traced run, whatever the workload, so each per-layer
metric means the same thing in every traced run. Inputs come from the
workload seed and every case is warmed up before it is timed; the in-process
CLI calls run after the experiment cases that warm the same code. The result
is one list of (name, value, unit, samples). ``rootfind`` has no caller outside
the package; it is timed through the gamma* and Pareto-target cases.
"""

from __future__ import annotations

import io
import statistics
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np

from powergame import cli
from powergame.asymptotic import solve_pareto_target
from powergame.efficiency import EfficiencyKind, EfficiencyModel, solve_gamma_star
from powergame.experiments import (run_admission_curve, run_load_sweep,
                                   trial_rng)
from powergame.system import (decorrelator_sirs, matched_filter_sirs,
                              mmse_sirs, receiver_filter)

from spans import Recorder
from workloads import (CHILD_TIMEOUT, EXAMPLES, KINDS, MF, MMSE, MODEL,
                       SIGMA2, FiniteMC, NashVerify, check_output, draw,
                       run_unit)

LAYERS = ("efficiency", "asymptotic", "system", "game", "multiantenna",
          "experiments", "cli")
KERNEL_SIZES = ((100, 50), (200, 100), (400, 200), (200, 14))
PARETO_LOADS = {MF: (0.03, 0.07, 0.11), MMSE: (0.25, 0.5, 1.0)}
KERNEL_STREAM = 103
NASH_BATCH = 30  # nash_verify units, ten per receiver


def repeat(rec, name, fn, reps, warmup=1):
    """Call fn warmup times untimed, then reps times inside a span."""
    for _ in range(warmup):
        fn()
    for _ in range(reps):
        with rec.span(name):
            result = fn()
    return result


def quiet(fn, *args):
    """Run a CLI function that writes to stdout; return (result, text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


class Cases:
    """Runs every case into one recorder and collects per-layer metrics."""

    def __init__(self, seed: int, gstar: float, tiny: bool):
        self.seed, self.gstar, self.tiny = seed, gstar, tiny
        self.rec = Recorder()
        self.metrics = []  # (name, value, unit, samples)
        self.attempted = self.failed = 0

    def reps(self, normal: int) -> int:
        return 1 if self.tiny else normal

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def add(self, name, value, unit, samples) -> None:
        self.metrics.append((name, value, unit, samples))

    def run(self):
        self.scalar_solves()
        self.sir_kernels()
        self.nash_batch()
        self.finite_units()
        self.cli_layer()
        stats = self.rec.by_name()
        for name, s in sorted(stats.items()):
            if name.startswith(("bench.", "cli.process.")):
                continue
            if name in ("cli.interpreter", "cli.import"):
                self.add(f"{name}_s", s["p50_s"], "s", s["calls"])
            elif name != "system.draw":
                self.add(f"{name}.p50_s", s["p50_s"], "s", s["calls"])
        layers = self.rec.by_layer()
        for layer in LAYERS:
            self.add(f"{layer}.self_s", layers[layer]["self_s"], "s",
                     layers[layer]["spans"])
        return self

    def scalar_solves(self):
        for kind in EfficiencyKind:
            model = EfficiencyModel(kind, MODEL.M)
            self.check(repeat(self.rec, f"efficiency.solve_gamma_star.{kind.value}",
                              lambda: solve_gamma_star(model), self.reps(20)) > 0)
        for kind, loads in PARETO_LOADS.items():
            for alpha in loads:
                self.check(repeat(
                    self.rec, f"asymptotic.solve_pareto_target.{kind.value}.a{alpha:g}",
                    lambda: solve_pareto_target(kind, alpha, MODEL),
                    self.reps(20)) > 0)

    def sir_kernels(self):
        for N, K in KERNEL_SIZES:
            rng = trial_rng(self.seed, KERNEL_STREAM, N, K)
            realization = draw(rng, N, K)
            heff = realization.H[0]
            powers = 1e-6 * (0.5 + rng.random(K))
            for kernel in (matched_filter_sirs, decorrelator_sirs, mmse_sirs):
                sirs = repeat(self.rec, f"system.{kernel.__name__}.N{N}K{K}",
                              lambda: kernel(realization.S, heff, powers, SIGMA2),
                              self.reps(50))
                self.check(bool(np.all(np.isfinite(sirs) & (sirs > 0))))

    def nash_batch(self):
        """Criterion-3-like batch: solve, verify, and each user's filter."""
        warm = NashVerify(self.seed, self.gstar)
        for i in range(warm.warmup_units):
            run_unit(warm, i, Recorder())
        batch, wl = Recorder(), NashVerify(self.seed, self.gstar)
        for i in range(wl.cycle if self.tiny else NASH_BATCH):
            self.check(run_unit(wl, i, batch))
        for kind, (realization, result) in wl.last.items():
            for k in range(realization.S.shape[1]):
                with batch.span(f"system.receiver_filter.{kind.value}"):
                    receiver_filter(kind, k, realization.S, realization.H[0],
                                    result.powers, SIGMA2)
        stats = batch.by_name()
        units = stats["bench.unit.nash_verify"]
        verify_self = sum(stats[f"game.verify_nash.{k.value}"]["self_s"]
                          for k in KINDS)
        self.add("game.verify_nash.share", verify_self / units["busy_s"],
                 "ratio", units["calls"])
        self.add("system.draw.self_s", stats["system.draw"]["self_s"], "s",
                 stats["system.draw"]["calls"])
        self.add("game.draws_kept_ratio", wl.kept / wl.draws, "ratio", wl.draws)
        for kind, sweeps in wl.sweeps.items():
            self.add(f"game.solve_equilibrium.{kind}.sweeps_p50",
                     statistics.median(sweeps), "count", len(sweeps))
        self.rec.absorb(batch)

    def finite_units(self):
        """Each finite_mc unit type: three cycles, so at least three of each."""
        warm = FiniteMC(self.seed, self.gstar)
        for i in range(warm.warmup_units):
            run_unit(warm, i, Recorder())
        wl = FiniteMC(self.seed, self.gstar)
        for i in range(wl.cycle * self.reps(3)):
            self.check(run_unit(wl, i, self.rec))
        self.add(f"multiantenna.solve_equilibrium_ma.MMSE.m{wl.MA_M}.sweeps_p50",
                 statistics.median(wl.sweeps), "count", len(wl.sweeps))

    def cli_layer(self):
        """README example configs in process, then the interpreter floor."""
        seed = str(self.seed)
        configs = {}
        for sub, _, overrides in EXAMPLES:
            settings = [*overrides, ("seed", seed)]
            defaults = cli.SUBCOMMANDS[sub][1]
            configs[sub] = repeat(self.rec, "cli.parse_config",
                                  lambda: cli.parse_config(None, settings, defaults),
                                  self.reps(5))
        for t in range(self.reps(200)):
            with self.rec.span("experiments.trial_rng"):
                trial_rng(self.seed, 0, t)
        rows = repeat(self.rec, "experiments.run_load_sweep",
                      lambda: run_load_sweep(configs["sweep"]), self.reps(3))
        repeat(self.rec, "experiments.run_admission_curve",
               lambda: run_admission_curve(configs["admission"]), self.reps(3))
        repeat(self.rec, "cli.emit_csv", lambda: quiet(cli.emit_csv, rows, "-"),
               self.reps(20))
        for sub, args, _ in EXAMPLES:
            argv = [sub, *args, "--seed", seed]
            for _ in range(self.reps(3)):
                with self.rec.span(f"cli.main.{sub}"):
                    code, text = quiet(cli.main, argv)
                self.check(code == 0 and check_output(sub, text))
        for name, code in (("cli.interpreter", "pass"),
                           ("cli.import", "import powergame")):
            repeat(self.rec, name,
                   lambda: subprocess.run([sys.executable, "-c", code],
                                          check=True, timeout=CHILD_TIMEOUT),
                   self.reps(5))
