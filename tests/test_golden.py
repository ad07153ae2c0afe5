"""The CLI's bytes against the golden-output corpus (golden.py).

The corpus reruns in a child process, which pins one BLAS thread before
numpy loads. Where this machine's fingerprint matches the corpus's, every
byte must match; elsewhere float cells are compared to golden.RTOL and the
rest exactly. The test prints which mode ran, so `pytest -rP` shows it.
"""

import json
import subprocess
import sys

import golden


def test_cli_output_matches_the_corpus():
    proc = subprocess.run([sys.executable, str(golden.HERE / "golden.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    stored = golden.load()
    if fresh["fingerprint"] == stored["fingerprint"]:
        rtol = None
        print(f"golden corpus: exact mode, {len(fresh['runs'])} runs")
    else:
        rtol = golden.RTOL
        differs = sorted(key for key in stored["fingerprint"]
                         if stored["fingerprint"][key]
                         != fresh["fingerprint"].get(key))
        print(f"golden corpus: rtol {rtol:g} mode, {len(fresh['runs'])} "
              f"runs; the fingerprint differs in {', '.join(differs)}")
    assert golden.differences(stored, fresh, rtol) == []


def test_cell_moves_compares_floats_to_rtol_and_the_rest_exactly():
    assert golden.cell_moves("a,1,2.5\n", "a,1,2.5\n", 0.0) == (0, 0.0, 0)
    changed, move, beyond = golden.cell_moves("a,1,2.5\n", "a,1,2.5000001\n",
                                              1e-12)
    assert (changed, beyond) == (1, 1) and 3.9e-8 < move < 4.1e-8
    assert golden.cell_moves("a,1,1e-05\n", "a,1,1.0000000000001e-05\n",
                             1e-12)[2] == 0
    # an integer cell, a name or a header must match exactly
    assert golden.cell_moves("a,3,2.5\n", "a,4,2.5\n", 1.0)[2] == 1
    assert golden.cell_moves("MF,3\n", "DE,3\n", 1.0)[2] == 1
    assert golden.cell_moves("a,b\n1,2\n", "a,b\n1,2\n3,4\n", 1.0)[2] == 1
