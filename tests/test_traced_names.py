"""The benchmark reaches the package by name; every name it uses must resolve.

The tracer wraps callables named in string lists, and the workloads call
``mr.<name>`` attributes of the package.  A name dropped from the package
fails here, not in a benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _tracer_lists():
    # Only the name lists are read: installing the tracer would wrap the
    # package for the rest of the test session.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANNED, mod.COUNTED, mod.CLI_LOSS_FACTORIES


def _resolve(module: str, attr: str):
    obj = importlib.import_module(f"meanreflect.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_resolves():
    spanned, counted, factories = _tracer_lists()
    names = [(module, attr) for module, attr in spanned]
    names += [(module, attr) for module, attr, _ in counted]
    names += [("cli", factory) for factory in factories]
    missing = []
    for module, attr in names:
        try:
            assert callable(_resolve(module, attr))
        except (AttributeError, AssertionError):
            missing.append(f"{module}.{attr}")
    assert missing == []


def _workload_names() -> set[str]:
    """Every dotted ``mr.<name>...`` chain in the workloads, prefixes included."""
    chains = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "mr" and parts:
            chains.add(".".join(reversed(parts)))
    return chains


def _resolve_package(chain: str):
    obj = importlib.import_module("meanreflect")
    for part in chain.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:  # a submodule not imported yet, e.g. mr.cli
            obj = importlib.import_module(f"{obj.__name__}.{part}")
    return obj


def test_every_name_the_workloads_call_resolves():
    names = _workload_names()
    assert {"picard_solve", "cli.main", "run_suite", "LinearEnvelope.constants"} <= names
    missing = []
    for chain in sorted(names):
        try:
            _resolve_package(chain)
        except (AttributeError, ImportError):
            missing.append(f"mr.{chain}")
    assert missing == []
