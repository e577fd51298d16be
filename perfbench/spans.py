"""Spans and counters recorded from outside the program.

The program under test is never edited.  Instead the benchmark replaces the
public functions of each ``algact`` module with thin wrappers, in the module
itself and in every other ``algact`` module that imported the name, and puts
the originals back afterwards.  The instruments are never active together,
so per-call counting cost does not distort span times:

* :class:`SpanRecorder` times a span around each wrapped call.  It keeps
  aggregates rather than raw spans: per name the call count, total time and
  self time (total minus the time its child spans cover), and per
  (parent, child) pair the child's total time.  Generators are timed per
  ``next()`` so their work is not charged to whoever consumes them.
* :class:`OpCounter` counts scalar ``Field`` arithmetic calls exactly.
* :class:`RrefProbe` records only the shape and rank of each RREF, cheaply
  enough to run inside a timed window.

A wrapper may also attach a small hook that reads sizes off the arguments or
the result (RREF shape, rank, validation verdicts).  Hook time is charged to
neither the span nor its parent.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, function, span name); every name here is public in its module
SPANS = (
    ("algact.linalg", "rref", "linalg.rref"),
    ("algact.linalg", "nullspace_basis", "linalg.nullspace_basis"),
    ("algact.linalg", "span_basis", "linalg.span_basis"),
    ("algact.linalg", "coords_in_span", "linalg.coords_in_span"),
    ("algact.linalg", "mat_mul", "linalg.mat_mul"),
    ("algact.linalg", "mat_add", "linalg.mat_add"),
    ("algact.linalg", "mat_sub", "linalg.mat_sub"),
    ("algact.linalg", "mat_vec", "linalg.mat_vec"),
    ("algact.algebra", "check_identity", "algebra.check_identity"),
    ("algact.algebra", "is_homomorphism", "algebra.is_homomorphism"),
    ("algact.opspace", "space_of_kind", "opspace.build"),
    ("algact.opspace", "derivations", "opspace.build"),
    ("algact.opspace", "anti_derivations", "opspace.build"),
    ("algact.opspace", "biderivations", "opspace.build"),
    ("algact.opspace", "bimultipliers", "opspace.build"),
    ("algact.opspace", "multipliers", "opspace.build"),
    ("algact.opspace", "poisson_usga", "opspace.build"),
    ("algact.opspace", "comm_poisson_usga", "opspace.build"),
    ("algact.actions", "validate_action", "actions.validate"),
    ("algact.actions", "enumerate_actions", "actions.enumerate"),
    ("algact.catalog", "repro_suite", "catalog.repro"),
    ("algact.cli", "main", "cli.main"),
)

# generator functions: timed per next(), one call per generator created
GENERATOR_SPANS = (
    ("algact.opspace", "defining_defects", "opspace.selfcheck"),
)

FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")


def _algact_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "algact" or name.startswith("algact."))]


class _Patcher:
    """Replaces function objects everywhere ``algact`` binds them."""

    def __init__(self):
        self._undo = []

    def replace(self, original, wrapper):
        for mod in _algact_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0  # time covered by child spans and excluded hooks


class SpanRecorder:
    """Aggregated span times for the wrapped public functions."""

    def __init__(self):
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.by_parent = {}  # (parent, child) -> child total time
        self.values = {}  # hook-recorded sums, e.g. rref cells
        self.rrefs = []  # (rows, cols, rank) of every rref call
        self._stack = []
        self._patcher = _Patcher()

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, name):
        self._stack.append(_Frame(name, perf_counter()))

    def _exit(self):
        end = perf_counter()
        frame = self._stack.pop()
        dur = end - frame.start
        name = frame.name
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame.child
        parent = self._stack[-1].name if self._stack else None
        key = (parent, name)
        self.by_parent[key] = self.by_parent.get(key, 0.0) + dur
        if self._stack:
            self._stack[-1].child += dur

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def _exclude(self, seconds):
        if self._stack:
            self._stack[-1].child += seconds

    def add(self, key, amount):
        self.values[key] = self.values.get(key, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a public space constructor called by another is one build, not two
            if rec._stack and rec._stack[-1].name == name:
                return fn(*args, **kwargs)
            rec._count(name)
            rec._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._exit()
            if hook is not None:
                t0 = perf_counter()
                hook(rec, args, result)
                rec._exclude(perf_counter() - t0)
            return result

        return wrapper

    def _generator_wrapper(self, name, fn):
        rec = self

        def steps(it):
            while True:
                rec._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec._exit()
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec._count(name)
            return steps(fn(*args, **kwargs))

        return wrapper

    def install(self):
        mods = sys.modules
        for modname, attr, name in SPANS:
            fn = getattr(mods[modname], attr)
            self._patcher.replace(fn, self._span_wrapper(name, fn, _HOOKS.get(name)))
        for modname, attr, name in GENERATOR_SPANS:
            fn = getattr(mods[modname], attr)
            self._patcher.replace(fn, self._generator_wrapper(name, fn))

    def uninstall(self):
        self._patcher.restore()

    # -- derived figures -----------------------------------------------------

    def child_time(self, parent, children):
        return sum(self.by_parent.get((parent, c), 0.0) for c in children)


def _rref_shape(rows, result):
    """(rows, cols, rank) of one ``rref(field, rows)`` call."""
    return len(rows), len(rows[0]) if rows else 0, len(result[1])


def _rref_hook(rec, args, result):
    rows = args[1]
    nrows, ncols, rank = shape = _rref_shape(rows, result)
    rec.add("linalg.rref.cells", nrows * ncols)
    rec.add("linalg.rref.nnz", sum(1 for row in rows for x in row if x))
    rec.add("linalg.rref.rank", rank)
    rec.rrefs.append(shape)


def _build_hook(rec, args, space):
    rec.add("opspace.unknowns", len(space.components) * space.base.dim ** 2)
    rec.add("opspace.dim", space.dim)


def _validate_hook(rec, args, report):
    if report.passed:
        rec.add("actions.validate.passed", 1)


_HOOKS = {
    "linalg.rref": _rref_hook,
    "opspace.build": _build_hook,
    "actions.validate": _validate_hook,
}


class OpCounter:
    """Exact counts of scalar Field arithmetic and ``is_zero`` calls."""

    def __init__(self):
        self.ops = 0
        self.is_zero = 0
        self._undo = []

    def install(self):
        from algact import fields

        counter = self

        def counting_op(orig):
            def method(self, *args):
                counter.ops += 1
                return orig(self, *args)
            return method

        def counting_is_zero(orig):
            def method(self, a):
                counter.is_zero += 1
                return orig(self, a)
            return method

        for cls in (fields.Rationals, fields.PrimeField):
            for attr in FIELD_OPS + ("is_zero",):
                orig = getattr(cls, attr)
                had_own = attr in vars(cls)
                wrap = counting_is_zero if attr == "is_zero" else counting_op
                setattr(cls, attr, wrap(orig))
                self._undo.append((cls, attr, orig if had_own else None))

    def uninstall(self):
        for cls, attr, orig in reversed(self._undo):
            if orig is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, orig)
        self._undo.clear()


class RrefProbe:
    """Records the shape and rank of every ``rref`` call and nothing else."""

    def __init__(self):
        self.rrefs = []  # (rows, cols, rank) of every rref call
        self._patcher = _Patcher()

    def install(self):
        fn = sys.modules["algact.linalg"].rref
        probe = self

        @functools.wraps(fn)
        def wrapper(field, rows):
            result = fn(field, rows)
            probe.rrefs.append(_rref_shape(rows, result))
            return result

        self._patcher.replace(fn, wrapper)

    def uninstall(self):
        self._patcher.restore()
