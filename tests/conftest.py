"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn):
    """(peak bytes traced by tracemalloc while fn() runs, fn's result).

    Only what fn allocates counts: arrays made before the call are not
    traced.
    """
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()
