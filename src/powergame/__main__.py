"""Entry point of `python -m powergame` and the `powergame` script: the CLI
on one BLAS thread.

The bytes of the larger tables depend on the BLAS thread count, which numpy
reads once, when it loads. So the count is pinned here, over any setting,
before the CLI imports numpy. A library caller, and a caller of cli.main,
keeps its own count.
"""

import os
import sys

# the thread-count variables of the BLAS builds numpy ships with: OpenBLAS,
# OpenMP, MKL and Apple Accelerate (the macOS arm64 wheels of numpy 2)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    from .cli import main as cli_main  # loads numpy
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
