"""Each public name is declared once, in the ``__all__`` of the module that defines it.

The package re-exports those lists; it spells out no name of its own but
``__version__``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import meanreflect as mr

# The command-line entry point is reached as ``meanreflect.cli``, not re-exported.
_MODULES = [
    importlib.import_module(f"meanreflect.{info.name}")
    for info in pkgutil.iter_modules(mr.__path__)
    if info.name != "cli"
]


def _top_level_definitions(module) -> set[str]:
    """Names a module binds itself: by def, class or assignment, never by import."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_package_list_is_version_plus_the_module_lists():
    assert len(mr.__all__) == len(set(mr.__all__))
    declared = [name for module in _MODULES for name in module.__all__]
    assert mr.__all__[0] == "__version__"
    assert sorted(mr.__all__[1:]) == sorted(declared)


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_a_module_lists_only_what_it_defines(module):
    assert set(module.__all__) <= _top_level_definitions(module)
    for name in module.__all__:
        assert getattr(mr, name) is getattr(module, name)


def test_the_package_spells_out_no_public_name_but_its_version():
    tree = ast.parse(Path(mr.__file__).read_text())
    spelled = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in mr.__all__
    }
    assert spelled == {"__version__"}


@pytest.mark.parametrize(
    "solve",
    [mr.solve_constant_driver, mr.solve_penalized, mr.picard_solve, mr.penalty_sweep,
     mr.Scenario.simulate],
    ids=lambda f: f.__qualname__,
)
def test_a_solve_takes_its_draw_drift_and_grid_only_from_its_scenario(solve):
    # an ensemble, drift path or grid from elsewhere would solve another problem
    for p in inspect.signature(solve).parameters.values():
        assert p.name not in ("bm", "driver", "grid"), p
        assert not any(t in str(p.annotation) for t in ("Ensemble", "NDArray", "TimeGrid")), p


def test_the_randomness_is_the_seed_alone():
    assert [f.name for f in dataclasses.fields(mr.RngSpec)] == ["seed"]


def _public_signatures():
    """(qualified name, signature) of every public callable, class methods included."""
    for name in mr.__all__[1:]:
        obj = getattr(mr, name)
        members = [obj]
        if inspect.isclass(obj):
            members += [getattr(obj, a) for a in vars(obj) if not a.startswith("_")]
        for f in filter(callable, members):
            try:
                yield getattr(f, "__qualname__", name), inspect.signature(f)
            except ValueError:  # a builtin with no signature
                continue


def test_the_numerical_floors_are_constants():
    # the root accuracy, band floor, Monte Carlo multiplier and terminal
    # tolerance are module constants; only the root solver keeps its
    # documented accuracy contract (the audit reports its terminal_tol)
    knobs = {"root_tol", "band_min", "stat_tol_mult", "mult", "terminal_tol"}
    found = sorted(
        (qualname, p)
        for qualname, sig in _public_signatures()
        for p in knobs & set(sig.parameters)
    )
    assert found == [("MRAudit", "terminal_tol"), ("invert_boundary", "root_tol")]


def test_tolerances_are_the_picard_stopping_rule_alone():
    fields = [f.name for f in dataclasses.fields(mr.Tolerances)]
    assert fields == ["picard_tol", "max_iterations", "contraction_margin"]


def test_the_spot_checks_take_no_sample_arrays():
    # they read the grid's node times and one fixed x window
    found = sorted(
        (qualname, p)
        for qualname, sig in _public_signatures()
        for p in {"t_samples", "x_samples"} & set(sig.parameters)
    )
    assert found == []


def test_a_grid_is_its_nodes():
    assert [f.name for f in dataclasses.fields(mr.TimeGrid)] == ["nodes"]


def test_a_solution_stores_only_what_it_cannot_derive():
    # the plain solution is y - (K_T - K_t): inner is a property, not a field
    assert [f.name for f in dataclasses.fields(mr.MRSolution)] == [
        "y", "z", "K", "push_up", "push_down",
        "flat_residual_up", "flat_residual_down", "s_sup", "trace",
    ]


def test_a_boundary_pair_keeps_no_state_but_its_band_edges():
    # the clamp hook's hints and record belong to one solve's edge finder
    fields = [f.name for f in dataclasses.fields(mr.BoundaryPair)]
    assert fields == ["grid", "losses", "offsets", "_edges"]
    assert "hints" not in inspect.signature(mr.constraints._mean_boundary).parameters


def test_one_meter_for_a_mean_constraint():
    # the terminal check, the loss meters and the audit read one per-node pass
    assert {"terminal_feasibility", "constraint_violation"}.isdisjoint(mr.__all__)
    assert "envelope_terms" not in {f.name for f in dataclasses.fields(mr.PicardTrace)}


def test_one_flat_residual_rule():
    # audit_solution's rule is the one threshold for flat residuals in the library
    assert "flat_tolerance" not in mr.__all__ and not hasattr(mr.skorokhod, "flat_tolerance")


_SOURCES = sorted(p for p in Path(mr.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.stem)
def test_a_module_uses_every_name_it_imports(path):
    # the package __init__ imports to re-export; every other module imports to use
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
