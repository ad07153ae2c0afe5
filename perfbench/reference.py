"""Reference work that the timed pass measures alongside the workload.

The machine this benchmark runs on is shared, and its speed changes by up to
~1.8x, over seconds to minutes, as other tenants come and go. Medians within
one run cannot remove a change that lasts the whole run. So before and after
every cycle of units the pass times a fixed piece of reference work that
does not touch powergame, and each unit's time is scaled by how much slower
than nominal the reference ran around its cycle; each set-up is scaled by
the reference timed right after it. Both slow down together, so the scaled
times keep only what the program itself does. ``nominal_s`` is close to the
reference's time on a quiet two-vCPU Xeon VM, so there scaled and wall times
nearly agree.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

from workloads import CHILD_TIMEOUT


class ComputeReference:
    """In-process numpy and Python work shaped like the finite-system solves.

    An MMSE-style N x N build and solve at N = 200, K = 100, then a Python
    loop over the users, four times. Its inputs are fixed, whatever the seed.
    """

    nominal_s = 0.006

    def __init__(self):
        rng = np.random.default_rng(20051017)
        self.S = rng.standard_normal((200, 100)) / np.sqrt(200.0)
        self.p = rng.random(100)
        self.eye = 1e-3 * np.eye(200)

    def __call__(self) -> None:
        for _ in range(4):
            R = (self.S * self.p) @ self.S.T + self.eye
            X = np.linalg.solve(R, self.S)
            acc = 0.0
            for k in range(100):
                acc += float(X[k, k]) * self.p[k]


class ProcessReference:
    """A child interpreter that imports numpy: the floor of every CLI unit.

    The child inherits the benchmark's environment, as the CLI units do. Its
    output is captured, as theirs is: with a timeout and no pipes to wait on,
    subprocess polls for the exit in steps of up to 50 ms, which would round
    the timing to that step.
    """

    nominal_s = 0.12

    def __call__(self) -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                       capture_output=True, timeout=CHILD_TIMEOUT)


def for_workload(cls):
    """The reference that slows down the way the workload's units do."""
    return ComputeReference() if cls.in_process else ProcessReference()


def timed(reference) -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
