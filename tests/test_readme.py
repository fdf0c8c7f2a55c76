"""The README's examples run as written.

Its Python blocks run in order in one namespace, as a reader would paste
them, and its minimal ``run`` config goes through the command line.  A
public name or parameter that the README still uses but the package no
longer has fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import meanreflect as mr
from meanreflect import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_python_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert isinstance(namespace["sweep"], mr.PenaltySweep)


def test_minimal_run_config_exits_zero(tmp_path):
    (config,) = re.findall(r"A minimal `run` config:\s*```json\n(.*?)```", README, re.S)
    path = tmp_path / "scenario.json"
    path.write_text(config)
    out = tmp_path / "results"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "result.csv").exists() and (out / "diagnostics.json").exists()
