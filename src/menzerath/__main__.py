"""The ``menzerath`` command: ``python -m menzerath`` and the console script.

:func:`run` sets the process up for one cold command and ends it.  It
asks for one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS`` is already
set: numpy and scipy each load their own OpenBLAS, which starts a worker
thread at load that spins next to the importing thread, and the command
makes no BLAS call large enough to use one.  Once ``cli.main`` returns,
with every file it wrote closed, the output is flushed and the process
ends without interpreter teardown.  An exception, argparse's
``SystemExit`` included, takes Python's normal exit path.
"""

import os
import sys


def run():
    """Run :func:`menzerath.cli.main` on ``sys.argv`` and exit with its code."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main

    code = main()
    for stream in (sys.stdout, sys.stderr):
        # None when the process started with that file descriptor closed.
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
