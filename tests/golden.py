"""Golden-output corpus: what the CLI prints for a fixed list of commands.

golden_corpus.json, beside this file, holds for every run of runs() its argv,
exit code, stdout, stderr and the file its --output wrote, plus the
platform fingerprint of the machine that made it. test_golden.py reruns the
list and compares:

* exact mode, where the fingerprint matches: every byte;
* rtol mode, where it does not (another numpy, CPU or BLAS): argv, exit
  codes, stderr, every token that is not a float (headers, names, integer
  cells such as ``iterations``) exactly, and float cells to RTOL.

The runs go through ``cli.main`` in one process that pins one BLAS thread
before numpy loads, as ``python -m powergame`` does, so the bytes are the
CLI's. After a change that moves bytes on purpose, regenerate with

    python tests/golden.py --update

which lists every changed cell with its largest relative move, then
rewrites the corpus. Without ``--update`` the script prints the runs and
the fingerprint as JSON on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "golden_corpus.json"
sys.path.insert(0, str(HERE.parent / "src"))

from powergame.__main__ import BLAS_THREAD_VARS  # noqa: E402  (no numpy)

RTOL = 1e-12
SEEDS = (0, 7, 20051)

# run at every seed in SEEDS, with --seed appended: the README examples
# (their --output files kept), then the tables at m = 1 and 2, both
# validate-asymptotic configs, the closed-form tables, K > N and K > 64
# MMSE solves, the exit-1, exit-4 and singular-system examples, and an
# overloaded MMSE draw whose first Newton step is rejected
SEEDED = (
    "gamma-star",
    "sweep --receiver all --trials 5000 --output fig4.csv",
    "pareto --receiver MMSE --alpha-range 0.05:1.0:0.05",
    "admission --trials 10000 --output fig8.csv",
    "antennas --receiver MMSE --antennas 1,2,4,8",
    "equilibrium --set K=50 --set N=200 --receiver MMSE",
    "equilibrium --receiver all",
    "equilibrium --receiver all --antennas 2",
    "curve-utility --receiver MMSE --antennas 2",
    "curve-utility --receiver MF --antennas 2",
    "curve-utility --receiver DE --antennas 2",
    "validate-asymptotic",
    "validate-asymptotic --receiver all --set alpha=0.05 --trials 20",
    "sir-compare",
    "curve-efficiency",
    "equilibrium --set K=110",
    "sir-compare --set eff=bpsk",
    "pareto --set eff=bpsk --receiver all",
    "equilibrium --set K=100 --set N=200 --receiver all",
    "equilibrium --set K=100 --set N=200 --receiver all --antennas 2",
    "validate-asymptotic --set Pmax=1e-12 --receiver MF --trials 2",
    "equilibrium --set max_iter=1 --strict",
    "equilibrium --set N=3 --set K=100 --set sigma2=1e-200",
    "curve-utility --receiver DE",
    "equilibrium --set N=20 --set K=22",
)

# run once, as written: the error lines README quotes and the runs test_cli
# pins
ONCE = (
    "sweep --set distance=1e-200",
    "curve-utility --set distance=1e-200",
    "equilibrium --set distance=1e200",
    "validate-asymptotic --set distance=1e200",
    "sweep --set distance=1e-70 --trials 2",
    "pareto --set distance=1e-70 --trials 2",
    "antennas --set distance=1e-70 --trials 2",
    "equilibrium --set distance=1e-75",
    "curve-utility --set distance=1e-75",
    "validate-asymptotic --set distance=1e-75 --trials 2",
    "equilibrium --set sigma2=1e299",
    "curve-utility --set sigma2=1e299",
    "validate-asymptotic --set sigma2=1e299 --trials 2",
    "equilibrium --set sigma2=1e298",
    "curve-utility --set sigma2=1e298",
    "validate-asymptotic --set sigma2=1e296 --trials 2",
    "equilibrium --receiver DE --set K=110",
    "curve-utility --receiver DE --set K=110",
    "equilibrium --set distance=1e-73",
    "curve-utility --set distance=1e-73",
    "curve-utility --set sigma2=1e-300 --set R=1e15",
    "sweep --set sigma2=1e-320 --trials 2 --receiver MF",
    "gamma-star --set M=1",
    "admission --set d_max=1e300",
    "admission --set d_min=1e-200 --set d_max=1e-100",
    "sweep --antennas -1,2",
    "bogus",
    "sweep --seed",
    "sweep --nope 1",
    "equilibrium --set N=200 --set K=30 --receiver MF --seed 66 --strict",
)


def runs() -> list[list[str]]:
    """Every argv of the corpus, in corpus order."""
    return ([[*cmd.split(), "--seed", str(seed)]
             for cmd in SEEDED for seed in SEEDS]
            + [cmd.split() for cmd in ONCE])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor()


def fingerprint() -> dict:
    """What the floats of a run can depend on besides the code: numpy's
    version, the machine and CPU model, the SIMD targets numpy dispatches
    to on it, the BLAS numpy was built with, and an OpenBLAS kernel forced
    by OPENBLAS_CORETYPE (each kernel rounds K x K products differently)."""
    import numpy as np
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy < 1.25 has no mode
        blas = "unknown"
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu": _cpu_model(),
            "cpu_baseline": list(umath.__cpu_baseline__),
            "cpu_dispatch": [t for t in umath.__cpu_dispatch__
                             if features.get(t)],
            "blas": blas,
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE")}


def run_all() -> dict:
    """Run the corpus through cli.main; numpy must not be loaded yet."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy loaded before the BLAS thread count was "
                           "pinned; run this file as a script")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    from powergame.cli import main
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in runs():
            args = list(argv)
            path = None
            if "--output" in args:
                i = args.index("--output") + 1
                path = args[i] = os.path.join(tmp, args[i])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
            output = None
            if path is not None and os.path.exists(path):
                with open(path, encoding="utf-8", newline="") as fh:
                    output = fh.read()
                os.remove(path)
            records.append({"argv": argv, "exit": code,
                            "stdout": out.getvalue(), "stderr": err.getvalue(),
                            "output": output})
    return {"fingerprint": fingerprint(), "runs": records}


# a float cell: has a point, an exponent, or is inf/nan; an integer is not
_FLOAT = re.compile(r"[-+]?(?:(?:\d+\.\d*|\.\d+|\d+)[eE][-+]?\d+|\d+\.\d*|\.\d+"
                    r"|inf|nan)")
_SEPARATORS = re.compile(r"([,\s()]+)")


def cell_moves(old: str | None, new: str | None, rtol: float):
    """(changed, largest relative move, cells moved beyond rtol) between two
    texts. A token that is not a float must match exactly; a text whose
    tokens do not line up counts as a move of inf."""
    if old == new:
        return 0, 0.0, 0
    if old is None or new is None:
        return 1, float("inf"), 1
    a, b = _SEPARATORS.split(old), _SEPARATORS.split(new)
    if len(a) != len(b):
        return 1, float("inf"), 1
    changed, largest, beyond = 0, 0.0, 0
    for x, y in zip(a, b):
        if x == y:
            continue
        changed += 1
        if not (_FLOAT.fullmatch(x) and _FLOAT.fullmatch(y)):
            largest, beyond = float("inf"), beyond + 1
            continue
        fx, fy = float(x), float(y)
        move = abs(fy - fx) / abs(fx) if fx else float("inf")
        largest = max(largest, move)
        beyond += not move <= rtol
    return changed, largest, beyond


def differences(stored: dict, fresh: dict, rtol: float | None) -> list[str]:
    """One line per run that differs; rtol None compares every byte, a
    number compares float cells of stdout and the output file to it. Runs
    pair up by argv, so a changed list still reports the runs both hold."""
    old_runs = {" ".join(r["argv"]): r for r in stored["runs"]}
    new_runs = {" ".join(r["argv"]): r for r in fresh["runs"]}
    lines = []
    if list(old_runs) != list(new_runs):
        lines.append("the list of runs differs from the corpus; regenerate it")
        lines += [f"{name}: new run" for name in new_runs
                  if name not in old_runs]
        lines += [f"{name}: dropped" for name in old_runs
                  if name not in new_runs]
    for name, new in new_runs.items():
        old = old_runs.get(name)
        if old is None:
            continue
        for field in ("exit", "stderr"):
            if old[field] != new[field]:
                lines.append(f"{name}: {field} {old[field]!r} -> {new[field]!r}")
        for field in ("stdout", "output"):
            changed, largest, beyond = cell_moves(old[field], new[field],
                                                  rtol or 0.0)
            if changed and (rtol is None or beyond):
                lines.append(f"{name}: {field}: {changed} cells changed, "
                             f"largest relative move {largest:.3g}")
    return lines


def _to_file(record: dict) -> dict:
    # texts as lists of lines, so a regenerated corpus diffs line by line
    return {key: value.split("\n") if isinstance(value, str) else value
            for key, value in record.items()}


def _from_file(record: dict) -> dict:
    return {key: "\n".join(value) if key in ("stdout", "stderr", "output")
            and isinstance(value, list) else value
            for key, value in record.items()}


def load() -> dict:
    with open(CORPUS, encoding="utf-8") as fh:
        corpus = json.load(fh)
    corpus["runs"] = [_from_file(r) for r in corpus["runs"]]
    return corpus


def save(corpus: dict) -> None:
    text = json.dumps({"fingerprint": corpus["fingerprint"],
                       "runs": [_to_file(r) for r in corpus["runs"]]},
                      indent=1, ensure_ascii=False)
    with open(CORPUS, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def main(argv: list[str]) -> int:
    fresh = run_all()
    if "--update" not in argv:
        json.dump(fresh, sys.stdout)
        return 0
    if CORPUS.exists():
        stored = load()
        for line in differences(stored, fresh, None) or ["no byte changed"]:
            print(line)
    save(fresh)
    print(f"wrote {CORPUS.name}: {len(fresh['runs'])} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
