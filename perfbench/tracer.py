"""Outside-in layer tracing for the benchmark.

The tracer never edits the package: it replaces chosen public functions with
wrappers in every ``meanreflect`` module namespace that holds them (the name
each caller looks up), and chosen methods on their class.  A wrapper either
records a span (name, start, end, parent, op id, thread) or, for callables
that run millions of times per op, only bumps a counter.

Spans are kept in memory and written out when the run ends.  Each thread has
its own stack of open spans; a span opened on a worker thread with an empty
stack takes as parent the innermost open span of the thread that runs the op
(the caller blocked on the pool), so self time stays well defined when
``penalty_sweep`` fans its levels out over threads.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

# Functions that get a span, as (defining module, attribute).  A dotted
# attribute is a method, wrapped on its class.
SPANNED = (
    ("core", "simulate_brownian"),
    ("bsde", "solve_bsde"),
    ("bsde", "constant_driver_path"),
    ("constraints", "make_mean_boundary"),
    ("constraints", "invert_boundary"),
    ("constraints", "BoundaryPair.band_edges"),
    ("skorokhod", "solve_sp"),
    ("skorokhod", "solve_bsp"),
    ("skorokhod", "flatness_residuals_raw"),
    ("skorokhod", "check_continuity_bound"),
    ("skorokhod", "check_comparison"),
    ("skorokhod", "check_tv_bound"),
    ("mrbsde", "picard_solve"),
    ("penalty", "solve_penalized"),
    ("penalty", "penalty_sweep"),
    ("diagnostics", "audit_solution"),
    ("diagnostics", "mean_loss_paths"),
    ("diagnostics", "solution_stat_tol"),
    ("verify", "run_reversal_suite"),
    ("verify", "run_continuity_suite"),
    ("verify", "run_backward_continuity_suite"),
    ("verify", "run_comparison_suite"),
    ("verify", "run_variation_suite"),
    ("cli", "main"),
)

# Per-evaluation callables: counted, never spanned (about 1.35M boundary
# calls per verify-all op would swamp that workload).
COUNTED = (
    ("constraints", "BoundaryPair.lower", "constraints.boundary_evals"),
    ("constraints", "BoundaryPair.upper", "constraints.boundary_evals"),
)
LOSS_COUNTER = "constraints.loss_evals"
# Loss-pair factories the CLI looks up while parsing a config; their pairs
# are the ones a CLI workload hands in.
CLI_LOSS_FACTORIES = ("linear_band", "saturating_band")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread")

    def __init__(self, name, start, parent, op, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread


class Tracer:
    """Span and counter recorder; records only while an op is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._counters: dict[str, itertools.count] = {}
        self._local = threading.local()
        self._op: int | None = None
        self._op_stack: list[Span] | None = None

    # -- ops -------------------------------------------------------------

    def begin_op(self, op_id: int) -> Span:
        """Open the root span of one op on the calling thread."""
        stack = self._stack()
        self._op = op_id
        self._op_stack = stack
        root = Span("op", time.perf_counter(), None, op_id, threading.get_ident())
        self.spans.append(root)
        stack.append(root)
        return root

    def end_op(self, root: Span) -> None:
        root.end = time.perf_counter()
        self._stack().pop()
        self._op = None
        self._op_stack = None

    # -- counters ----------------------------------------------------------

    def counter(self, name: str):
        """Return a bump function for ``name``; ``next`` on a count is atomic."""
        it = self._counters.setdefault(name, itertools.count())
        return it.__next__

    def count_values(self) -> dict[str, int]:
        # A count's pickled state holds the next value it would return.
        return {name: it.__reduce__()[1][0] for name, it in self._counters.items()}

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def spanned(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                op_stack = tracer._op_stack
                parent = op_stack[-1] if op_stack else None
            span = Span(name, 0.0, parent, op, threading.get_ident())
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        bump = self.counter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bump()
            return fn(*args, **kwargs)

        return wrapper

    def count_losses(self, pair):
        """The same loss pair with its ``L`` and ``R`` calls counted."""
        return dataclasses.replace(
            pair,
            L=self.counted(LOSS_COUNTER, pair.L),
            R=self.counted(LOSS_COUNTER, pair.R),
        )

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced callables of an already imported ``meanreflect``."""
        for module in {module for module, _ in SPANNED}:
            importlib.import_module(f"meanreflect.{module}")
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == "meanreflect" or name.startswith("meanreflect.")
        ]
        for module, attr in SPANNED:
            self._wrap(modules, module, attr, self.spanned(f"{module}.{_leaf(attr)}", _resolve(module, attr)))
        for module, attr, counter in COUNTED:
            self._wrap(modules, module, attr, self.counted(counter, _resolve(module, attr)))
        cli = sys.modules["meanreflect.cli"]
        for factory in CLI_LOSS_FACTORIES:
            original = getattr(cli, factory)
            setattr(cli, factory, _returning(original, self.count_losses))

    @staticmethod
    def _wrap(modules, module: str, attr: str, wrapper) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            setattr(getattr(sys.modules[f"meanreflect.{module}"], cls_name), meth, wrapper)
            return
        original = wrapper.__wrapped__
        hits = 0
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                hits += 1
        if hits == 0:
            raise RuntimeError(f"meanreflect.{module}.{attr} not found")

    # -- aggregation -------------------------------------------------------

    def op_profile(self, op_id: int) -> dict[str, dict]:
        """Per span name: total self seconds, total seconds and call count."""
        spans = [s for s in self.spans if s.op == op_id]
        children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        out: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for s in spans:
            dur = s.end - s.start
            row = out[s.name]
            row["self_s"] += dur - _covered(s, children.get(id(s), ()))
            row["total_s"] += dur
            row["calls"] += 1
        return dict(out)

    def has_ancestor(self, span: Span, name: str) -> bool:
        p = span.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False

    def dump(self) -> list[dict]:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "id": ids[id(s)],
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": None if s.parent is None else ids[id(s.parent)],
                "op": s.op,
                "thread": s.thread,
            }
            for s in self.spans
        ]


def _resolve(module: str, attr: str):
    obj = sys.modules[f"meanreflect.{module}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _leaf(attr: str) -> str:
    return attr.rsplit(".", 1)[-1]


def _returning(factory, transform):
    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        return transform(factory(*args, **kwargs))

    return wrapper


def _covered(span: Span, kids) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    total, reach = 0.0, span.start
    for lo, hi in sorted((k.start, k.end) for k in kids):
        lo, hi = max(lo, reach), min(hi, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
