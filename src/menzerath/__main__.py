"""The ``menzerath`` command: ``python -m menzerath`` and the console script.

:func:`run` sets the process up for one cold command and ends it.  It
asks for one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS`` is already
set: numpy and scipy each load their own OpenBLAS, which starts a worker
thread at load that spins next to the importing thread, and the command
makes no BLAS call large enough to use one.

On glibc it also tells the allocator to keep the memory it frees until
the process ends, unless ``GLIBC_TUNABLES`` or a ``MALLOC_`` variable
holds the user's own allocator settings.  By default glibc serves each
block above its dynamic mmap threshold with a fresh ``mmap`` and unmaps
it on ``free``, and trims the heap top back to the kernel; the next
numpy temporary of that size then page-faults the same memory in again.
The command is one short process, so memory given back mid-run buys
nothing.  Both thresholds are set: setting either one turns glibc's
dynamic threshold off, and each one alone faults more than neither.
``import menzerath`` and an in-process ``cli.main`` keep the caller's
allocator.

Once ``cli.main`` returns, with every file it wrote closed, the output
is flushed and the process ends without interpreter teardown.  An
exception, argparse's ``SystemExit`` included, takes Python's normal
exit path.
"""

import ctypes
import os
import sys

# mallopt(M_MMAP_THRESHOLD, 32 MiB), the largest value glibc accepts on
# 64-bit, and mallopt(M_TRIM_THRESHOLD, 1 GiB), so the heap keeps a free
# top of up to 1 GiB.
_MALLOPT = ((-3, 32 << 20), (-1, 1 << 30))


def _keep_freed_memory():
    """Raise glibc's mmap and trim thresholds, unless the user set the allocator up."""
    if "GLIBC_TUNABLES" in os.environ or any(k.startswith("MALLOC_") for k in os.environ):
        return
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        # No confstr (Windows), or a libc that does not know the name.
        return
    if not (libc or "").startswith("glibc"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT:
        mallopt(param, value)


def run():
    """Run :func:`menzerath.cli.main` on ``sys.argv`` and exit with its code."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _keep_freed_memory()
    from .cli import main

    code = main()
    for stream in (sys.stdout, sys.stderr):
        # None when the process started with that file descriptor closed.
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
