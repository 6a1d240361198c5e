"""The peak of the allocations a call makes, as tracemalloc traces them
(numpy reports its array data there), for the bounded-memory tests."""

import contextlib
import io
import tracemalloc

from tuckervar.cli import main


def traced_peak(call):
    """(the peak traced bytes while ``call()`` ran, its result)."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def traced_cli(argv):
    """(the peak traced bytes while ``tuckervar.cli.main(argv)`` ran in this
    process, its exit code, what it printed to stdout)."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        peak, code = traced_peak(lambda: main(argv))
    return peak, code, printed.getvalue()
