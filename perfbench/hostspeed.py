"""Fixed reference kernels that measure the host's speed.

On a shared 2-vCPU KVM guest (Intel Xeon, family 6 model 143) the speed of
pure-Python work (interpreter-bound code, module imports) drifted by up to 2x
over minutes, with CPU time equal to wall time, and numpy-bound work by up
to 30%.  On top of the drift the guest flips between a fast and a slow mode:
5 ms kernel slices lose most of their correlation within 0.5 s, and 1 s
means of them ranged over 2x within half a minute.

Timing a kernel while the measured code runs gives the host's speed at that
time, and ``rescale`` turns the code's time into seconds on a host on which
one slice of that kernel takes its nominal time.  A ``Sampler`` times one
slice every ``SAMPLE_INTERVAL_S`` from a ``SIGALRM`` handler, between the
bytecodes of the measured code, so its slices see the same fast and slow
spells as that code; ``Sampler.block`` times slices back to back.

Each kernel copies the shape of a hot path, because pure-Python and numpy
work drift by different amounts:

- ``python``: the verify suites' scalar boundary evaluations, small Python
  calls on numpy scalars with ``np.asarray`` and ``float`` round trips;
- ``numpy``: a Picard solve's regression, least-squares fits on a
  20000 x 5 basis and column access to a 20000 x 41 array.

They use nothing from ``meanreflect``, so a change to the package cannot
move them, and they call no compiled code that calls back into Python, so
they are safe to run from a signal handler.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# Seconds of one slice of each kernel on that guest (Python 3.11.7, numpy
# 2.4.6, one BLAS thread) when first measured.
NOMINAL_S = {"python": 0.005, "numpy": 0.010}
SAMPLE_INTERVAL_S = 0.25
PYTHON_EVALS = 2_500


def _loss(t: float, x) -> float:
    return 1.5 * math.tanh(float(x)) - 0.5 * t + (0.25 * x if x > 0.0 else 0.0)


def _python_slice() -> float:
    total = 0.0
    for i in range(PYTHON_EVALS):
        t = (i % 41) / 40.0
        x = np.float64((i % 97) * 0.05 - 2.4)
        total += float(np.asarray(_loss(t, x), dtype=float))
    return total


class _NumpySlice:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.paths = rng.standard_normal((20_000, 41))
        self.basis = rng.standard_normal((20_000, 5))

    def __call__(self) -> float:
        total = 0.0
        for k in range(3):
            coef = np.linalg.lstsq(self.basis, self.paths[:, k], rcond=None)[0]
            resid = self.paths[:, k] - self.basis @ coef
            total += np.maximum(resid, 0.0).mean() + self.paths[:, k::8].sum()
        return float(total)


def _kernel(kind: str):
    return _python_slice if kind == "python" else _NumpySlice()


def _timed(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Sampler:
    """Times one slice of a kernel every ``SAMPLE_INTERVAL_S`` while active.

    Use it around code that runs in the main thread and on no other thread:
    slices would compete with those threads for the cores (time such code
    between ``block`` calls instead).  ``seconds`` is the time the slices
    took (to subtract from the measured code's wall time) and ``kernel_s``
    their mean.
    """

    def __init__(self, kind: str) -> None:
        self.kernel = _kernel(kind)

    def block(self, seconds: float) -> float:
        """Mean seconds per slice over slices run back to back for ``seconds``."""
        times = [_timed(self.kernel)]
        while sum(times) < seconds:
            times.append(_timed(self.kernel))
        return sum(times) / len(times)

    def __enter__(self) -> Sampler:
        self.seconds = 0.0
        self.slices = 0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.slices:  # shorter than one interval
            self._tick()

    def _tick(self, *_) -> None:
        self.seconds += _timed(self.kernel)
        self.slices += 1

    def kernel_s(self) -> float:
        return self.seconds / self.slices


def rescale(wall_s: float, kernel_s: float, kind: str) -> float:
    """``wall_s`` measured while a slice of kernel ``kind`` took ``kernel_s``,
    rescaled to a host on which the slice takes its nominal time."""
    return wall_s * NOMINAL_S[kind] / kernel_s
