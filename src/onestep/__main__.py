"""The ``onestep`` command: ``python -m onestep`` and the installed script both run main."""

import os
import sys


def main() -> int:
    # onestep calls no BLAS routine, and its parallelism is forked worker
    # processes; OpenBLAS's thread pool, started when numpy is imported,
    # would only add CPU time to every run.  A value the user set is kept,
    # and a library caller's environment is left alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as run_command

    return run_command()


if __name__ == "__main__":
    sys.exit(main())
