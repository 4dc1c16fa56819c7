"""Span recorder that traces ``comsoc`` from outside the package.

Tracing rebinds every public function of every ``comsoc`` module in each
module namespace that holds it (for example ``comsoc.dodgson.majority_matrix``
and ``comsoc.cli.parse_election``), so callers pick up a wrapper when they
look the name up at call time. Nothing under ``src/`` changes, and
``uninstall`` puts the original objects back.

Each span records its name, start and end (``perf_counter_ns``), the index
of its parent span, the solve id current when it opened, an optional
attribute and whether it raised. Spans stay in memory until the caller
writes them out. A few hot leaf functions are only counted, not spanned,
so that tracing stays cheap; their time is part of their caller's self
time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from types import FunctionType

MODULES = (
    "elections",
    "kemeny",
    "dodgson",
    "control",
    "bribery",
    "structure",
    "circuits",
    "cake",
    "generators",
    "fileio",
    "schemas",
    "cli",
)

# Called thousands of times per solve: counted only.
COUNTED = frozenset(
    {
        "elections.kendall_tau",
        "bribery.min_cost_to_target",
        "bribery.bubble_sequence",
        "structure.peak_count",
        "circuits.accepts",
    }
)

NAME, START, END, PARENT, SOLVE, ATTR, FAILED = range(7)


def _election_key(args, kwargs):
    e = args[0] if args else kwargs["e"]
    return hash(e.voters)


def _text_bytes(args, kwargs):
    text = args[0] if args else kwargs["text"]
    return len(text.encode("utf-8"))


ATTRIBUTES = {
    "elections.majority_matrix": _election_key,
    "fileio.parse_election": _text_bytes,
    "fileio.parse_preflib_soc": _text_bytes,
    "fileio.parse_circuit": _text_bytes,
    "fileio.parse_densities": _text_bytes,
}


class Tracer:
    """Holds the spans and counts of one traced process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.solve = None
        self.solves = []  # family of each solve, indexed by solve id
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        if name in COUNTED:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return functools.update_wrapper(counted, fn)

        spans, stack, attr_of = self.spans, self._stack, ATTRIBUTES.get(name)
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)  # recursion: one span per outer call
            attr = attr_of(args, kwargs) if attr_of is not None else None
            record = [name, 0, 0, stack[-1] if stack else -1, self.solve, attr, False]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[FAILED] = True
                raise
            finally:
                record[END] = clock()
                stack.pop()

        return functools.update_wrapper(spanned, fn)

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _BenchSpan(self, name)

    def install(self):
        """Rebind every public ``comsoc`` function in every module namespace."""
        if self._saved:
            return
        modules = [importlib.import_module("comsoc")]
        modules += [importlib.import_module(f"comsoc.{m}") for m in MODULES]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, FunctionType):
                    continue
                if not obj.__module__.startswith("comsoc."):
                    continue
                name = f"{obj.__module__[len('comsoc.'):]}.{obj.__name__}"
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self):
        for module, attr, obj in self._saved:
            setattr(module, attr, obj)
        self._saved = []

    def dumps(self):
        """Spans and counts as one JSON document."""
        return json.dumps({"spans": self.spans, "counts": dict(self.counts)})


class _BenchSpan:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        stack = t._stack
        self.record = [self.name, 0, 0, stack[-1] if stack else -1, t.solve, None, False]
        stack.append(len(t.spans))
        t.spans.append(self.record)
        self.record[START] = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.record[END] = time.perf_counter_ns()
        self.record[FAILED] = exc_type is not None
        self.tracer._stack.pop()
        return False


def self_times(spans):
    """Per-span self time: duration minus the time covered by child spans.

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the time they cover.
    """
    covered = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def summarize(spans, keep=None):
    """Per-name totals over the spans ``keep`` accepts: self ns, calls,
    failures, attribute sum, and majority-matrix calls on an election
    already tallied in the same solve."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"self_ns": 0, "calls": 0, "failed": 0, "attr": 0, "repeat": 0})
    seen = set()
    for s, own in zip(spans, selfs):
        if keep is not None and not keep(s):
            continue
        row = out[s[NAME]]
        row["self_ns"] += own
        row["calls"] += 1
        row["failed"] += bool(s[FAILED])
        if s[NAME] == "elections.majority_matrix":
            key = (s[SOLVE], s[ATTR])
            row["repeat"] += key in seen
            seen.add(key)
        elif isinstance(s[ATTR], int):
            row["attr"] += s[ATTR]
    return out
