"""The peak of the allocations a call makes, as tracemalloc traces them
(numpy reports its array data there), for the bounded-memory tests."""

import tracemalloc


def traced_peak(call):
    """(the peak traced bytes while ``call()`` ran, its result)."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result
