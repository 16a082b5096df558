"""Span tracing from outside the package.

The tracer rebinds a callee name in the namespace of the module that calls
it, so that every call through that name records a span: name, start, end,
parent and the request it belongs to.  Nothing in the package changes;
leaving the `installed` block restores every rebound attribute.

BINDINGS lists, for each span name, the (module, attribute) pairs to
rebind.  A module is named by its key in `Program.modules`.  The same
function can be reached through different names: `games.solve_arena` is
bound twice, once where the level probes call it (`pseudolinear`) and once
where the package calls it internally (`games`), and the two get their
own span names.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field
from time import perf_counter

BINDINGS = {
    "io.parse_problem": [("io", "parse_problem")],
    "io.format_outcome": [("io", "format_outcome")],
    "pseudolinear.bisection_solve": [("pseudolinear", "bisection_solve")],
    "pseudolinear.newton_solve": [("pseudolinear", "newton_solve")],
    "pseudoquadratic.bisection_solve_quad": [("pseudoquadratic", "bisection_solve_quad")],
    "pseudoquadratic.newton_solve_quad": [("pseudoquadratic", "newton_solve_quad")],
    "pseudolinear.initial_bounds": [("pseudolinear", "initial_bounds")],
    "pseudoquadratic.bounds_quad": [("pseudoquadratic", "bounds_quad")],
    "games.solve_arena.probe": [("pseudolinear", "solve_arena")],
    "games.solve_arena.inner": [("games", "solve_arena")],
    "games.feasible_finite": [("pseudolinear", "feasible_finite")],
    "games.solve_values": [("pseudolinear", "solve_values")],
    "pseudolinear.reduce_by_strategy": [("pseudolinear", "reduce_by_strategy")],
    "pseudolinear.solve_alcoved": [("pseudolinear", "solve_alcoved")],
    "matrix.max_cycle_mean": [("pseudolinear", "max_cycle_mean"), ("pseudoquadratic", "max_cycle_mean")],
    "matrix.kleene_star": [("pseudolinear", "kleene_star")],
    "matrix.conjugate": [("pseudolinear", "conjugate"), ("games", "conjugate")],
    "matrix.digraph_min_cycle_mean": [("pseudolinear", "digraph_min_cycle_mean")],
    "pseudolinear.objective": [("pseudolinear", "objective")],
    "pseudoquadratic.objective_quad": [("pseudoquadratic", "objective_quad")],
    "pseudolinear.optimality_certificate": [("pseudolinear", "optimality_certificate")],
    "pseudolinear.certify_optimal": [("pseudolinear", "certify_optimal")],
    "pseudolinear.unboundedness_certificate": [("pseudolinear", "unboundedness_certificate")],
    "pseudolinear.certify_unbounded": [("pseudolinear", "certify_unbounded")],
}


@dataclass
class Span:
    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0
    children: list = field(default_factory=list)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Spans kept in memory, in the order their calls started."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._requests = 0
        self.scale = {}  # request -> factor from wall to scaled time

    def _enter(self, name: str) -> Span:
        if self._stack:
            parent = self._stack[-1]
            request = self.spans[parent].request
        else:
            parent = None
            self._requests += 1
            request = self._requests
        idx = len(self.spans)
        span = Span(name, request, parent, perf_counter())
        self.spans.append(span)
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        return span

    def _exit(self, span: Span):
        span.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block; the benchmark opens one per request."""
        s = self._enter(name)
        try:
            yield s
        finally:
            self._exit(s)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(s)

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Rebind every BINDINGS name for the duration of the block.

        A binding whose attribute the module does not have is skipped, so
        its span reports no calls."""
        saved = []
        try:
            for name, sites in BINDINGS.items():
                for mod_key, attr in sites:
                    mod = modules[mod_key]
                    if not hasattr(mod, attr):
                        continue
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self.wrap(name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def self_ms(self, span: Span) -> float:
        """Wall time of a span minus the wall time of its direct children."""
        return span.ms - sum(self.spans[c].ms for c in span.children)

    def totals(self):
        """{span name: (calls, self ms)} over every recorded span, each
        self time scaled by its request's factor."""
        out = {}
        for s in self.spans:
            calls, ms = out.get(s.name, (0, 0.0))
            out[s.name] = (calls + 1, ms + self.self_ms(s) * self.scale.get(s.request, 1.0))
        return out

    def fallback_frac(self) -> float:
        """Share of feasible_finite calls that went on to solve a game."""
        calls = [s for s in self.spans if s.name == "games.feasible_finite"]
        if not calls:
            return 0.0
        fell = sum(
            1
            for s in calls
            if any(self.spans[c].name == "games.solve_arena.inner" for c in s.children)
        )
        return fell / len(calls)
