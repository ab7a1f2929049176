"""What every process of the benchmark does before it imports numpy or the program."""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: One BLAS thread per process: repeatable timings on two shared cores, and
#: the forked clients of the process-mode backends need it (see README.md).
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def prepare_process() -> None:
    """Pin the BLAS thread pools and put the program's sources on ``sys.path``.

    Must run before numpy is first imported.  Exits with an error when the
    checkout holds no program to measure.
    """
    for name in THREAD_ENV:
        os.environ[name] = "1"
    if not SRC_DIR.is_dir():
        raise SystemExit(f"program sources not found at {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
