"""Shared pytest configuration and the peak-memory helper.

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
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
