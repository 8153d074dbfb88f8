"""Peak memory of one call, measured with tracemalloc (deterministic)."""

import gc
import tracemalloc


def peak_bytes(fn):
    """(fn(), the peak growth of traced memory during the call, in bytes).

    Works also under ``python -X tracemalloc``, which leaves tracing on.
    """
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return result, peak
