"""Shared pytest configuration and the memory helpers.

Hypothesis deadlines are disabled: several properties drive numpy-heavy code
whose first call pays a dispatch/allocation warm-up that trips the default
200 ms deadline on slow CI boxes without indicating anything wrong.
"""

from __future__ import annotations

import tracemalloc

from hypothesis import HealthCheck, settings

settings.register_profile(
    "numerics",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numerics")


def peak_bytes(fn):
    """Call ``fn()`` under tracemalloc: ``(its result, the traced peak in bytes)``.

    Tracing stops however ``fn`` ends, so a failing call cannot leave it on
    for the tests after it.
    """
    return _traced(fn, 1)


def retained_bytes(fn):
    """Like :func:`peak_bytes`, but the bytes still traced while the result is alive."""
    return _traced(fn, 0)


def _traced(fn, which):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[which]
    finally:
        tracemalloc.stop()
