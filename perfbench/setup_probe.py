"""One set-up sample: import the package and build a workload's inputs.

Run as ``python3 perfbench/setup_probe.py <workload> <seed> <workdir>
<kernel_seconds>`` in a fresh interpreter.  It prints the ``time.monotonic()``
reading at which the first op could start (the parent subtracts its own
reading from just before it started this interpreter), then runs slices of
the ``python`` reference kernel of ``hostspeed.py`` back to back for
``<kernel_seconds>`` and prints their mean seconds: the host's speed right
after the set-up.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from workloads import WORKLOADS, import_package


def main(argv: list[str]) -> int:
    name, seed, workdir, kernel_seconds = argv[0], int(argv[1]), Path(argv[2]), float(argv[3])
    mr = import_package()
    WORKLOADS[name].prepare(mr, seed, workdir)
    print(repr(time.monotonic()))
    import hostspeed

    print(repr(hostspeed.Sampler("python").block(kernel_seconds)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
