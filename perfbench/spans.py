"""Layer spans recorded from outside the package.

The traced run replaces, for its duration only, the functions each
``tdcoopt`` module calls through its own namespace with timing wrappers,
then puts the originals back.  Nothing under ``src/`` knows about it.

Spans are aggregated in memory per name (calls, total and self seconds)
rather than kept one by one: a run opens up to about a million of them.
Self time is a span's duration minus the time covered by the spans
opened inside it.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# (module attribute path, span name).  A module's imported names are its
# own attributes, so ``core.sweep_feeder`` is the sweep that ``core``
# calls, and ``market.measure_feeders`` the one the operator calls.
ENGINE_LAYERS = (
    ("scenario.solve", "core.loop"),
    ("scenario.run_market", "market.loop"),
)
ROUND_LAYERS = (
    ("scenario.write_trace", "trace.write"),
    ("core.check_stepsize", "core.check_stepsize"),
    ("core.primal_dual_step", "core.round"),
    ("core.measure_feeders", "core.measure"),
    ("market.measure_feeders", "core.measure"),
    ("core.sweep_feeder", "acpf.sweep"),
    ("acpf.feeder_topology", "network.feeder_topology"),
    ("core.der_signals", "core.der_signals"),
    ("market.der_signals", "core.der_signals"),
    ("core.dual_update", "core.dual_update"),
    ("market.dual_update", "core.dual_update"),
    ("core.iteration_record", "core.iteration_record"),
    ("market.iteration_record", "core.iteration_record"),
    ("market.operator_step", "market.operator"),
    ("market.UserAgent.step", "market.agent_step"),
    ("market.GeneratorAgent.step", "market.agent_step"),
    ("market.MessageBus.publish", "market.bus.publish"),
)
SETUP_LAYERS = (("core.build_lindistflow", "lindistflow.build"),)


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class SweepStats:
    """What each ``sweep_feeder`` call returned or raised."""

    iterations: int = 0
    iterations_max: int = 0
    residual_max: float = 0.0
    failed: int = 0

    def observe(self, args, result, error) -> None:
        source = result if error is None else error
        iterations = getattr(source, "iterations", None)
        if iterations is not None:
            self.iterations += iterations
            self.iterations_max = max(self.iterations_max, iterations)
            self.residual_max = max(self.residual_max, source.residual)
        if error is not None:
            self.failed += 1


class Tracer:
    """Span aggregates plus the patches that produce them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: dict[str, SpanStats] = {}
        self._clock = clock
        self._open: list[float] = []  # child seconds of each open span
        self._patches: list[tuple[object, str, object]] = []
        self._observers: dict[str, Callable] = {}

    def observe(self, name: str, callback: Callable) -> None:
        """Call ``callback(args, result, error)`` as each ``name`` span ends."""
        self._observers[name] = callback

    def wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.spans.setdefault(name, SpanStats())
        open_spans = self._open
        clock = self._clock
        observer = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                duration = clock() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                stats.calls += 1
                stats.total += duration
                stats.self_time += duration - child
                if observer is not None:
                    observer(args, result, error)

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    @contextmanager
    def installed(self, layers, package):
        """Patch ``layers`` (attribute path, span name) under ``package``."""
        try:
            for path, name in layers:
                *owner_path, attr = path.split(".")
                owner = package
                for part in owner_path:
                    owner = getattr(owner, part)
                original = (
                    owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr)
                )
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def get(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())
