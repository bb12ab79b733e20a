"""Benchmark-side spans around the public entry points of ``repro``.

The program is not edited: :class:`Tracer` replaces each entry point listed
in :data:`ENTRY_POINTS` with a wrapper that records a span (name, start,
end, parent) in memory, and puts the originals back on :meth:`uninstall`.
A function entry point is rebound in every loaded ``repro`` module that
imported it by name, so callers that did ``from m import f`` are traced
too.  A method entry point is replaced on its class.

**Entry-point guard.**  An entry point that no longer exists is recorded in
:attr:`Tracer.absent`; one that exists but is never called is visible in
:attr:`Tracer.calls`.  :mod:`perfbench.layers` turns both into *missing*
metrics, never into zeros, so a renamed function cannot make its layer
look free.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

AttrsFn = Callable[[tuple[Any, ...], dict[str, Any], Any], dict[str, Any]]


@dataclass(frozen=True)
class EntryPoint:
    """One public callable to wrap: ``module`` + dotted ``qualname``."""

    module: str
    qualname: str
    span: str
    attrs: AttrsFn | None = None


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _reach_attrs(args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> dict[str, Any]:
    return {"nodes": int(len(result))}


def _select_attrs(args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> dict[str, Any]:
    return {"label": str(getattr(args[0], "name", "?"))}


def _job_attrs(args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> dict[str, Any]:
    return {"rounds": int(args[0].rounds)}


def _exec_attrs(args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> dict[str, Any]:
    return {
        "jobs": len(result),
        "job_seconds": float(sum(outcome.job_seconds for outcome in result)),
    }


def _reselect_attrs(args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> dict[str, Any]:
    return {"evaluations": int(result.evaluations), "fallback": bool(result.fallback)}


#: The public entry points wrapped in a traced run, one layer per group.
ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("repro.cascade.reachability", "all_reach_sizes", "reach", _reach_attrs),
    EntryPoint("repro.cascade.snapshots", "SnapshotOracle.marginal_gain", "snapshots.marginal_gain"),
    EntryPoint("repro.cascade.pools", "SnapshotPool.masks", "pools.masks"),
    EntryPoint("repro.cascade.pools", "SnapshotPool.initial_gains", "pools.initial_gains"),
    EntryPoint("repro.algorithms.base", "SeedSelector.select", "algorithms.select", _select_attrs),
    EntryPoint("repro.algorithms.greedy", "repair_celf", "algorithms.repair_celf"),
    EntryPoint("repro.exec.jobs", "SnapshotGainsJob.run", "pools.gains_job"),
    EntryPoint("repro.exec.jobs", "CompetitiveJob.run", "sim.job", _job_attrs),
    EntryPoint("repro.exec.executor", "Executor.run", "exec.run", _exec_attrs),
    EntryPoint("repro.core.payoff", "estimate_payoff_table", "payoff.estimate"),
    EntryPoint("repro.core.getreal", "solve_strategy_game", "game.solve"),
    EntryPoint("repro.cache", "invalidate_for_delta", "cache.invalidate"),
    EntryPoint("repro.graphs.datasets", "hep", "graphs.build"),
    EntryPoint("repro.graphs.datasets", "phy", "graphs.build"),
    EntryPoint("repro.graphs.generators", "powerlaw_configuration", "graphs.build"),
    EntryPoint("repro.graphs.delta", "merge_delta", "graphs.merge_delta"),
    EntryPoint("repro.incremental", "IncrementalSession.select", "incremental.select"),
    EntryPoint("repro.incremental", "IncrementalSession.apply_delta", "incremental.apply_delta"),
    EntryPoint(
        "repro.incremental", "IncrementalSession.reselect", "incremental.reselect", _reselect_attrs
    ),
)


class Tracer:
    """In-memory span recorder that wraps :data:`ENTRY_POINTS` while installed."""

    def __init__(self, entry_points: tuple[EntryPoint, ...] = ENTRY_POINTS) -> None:
        self.entry_points = entry_points
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {ep.span: 0 for ep in entry_points}
        self.absent: set[str] = set()
        self._restore: list[tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -------------------------------------------------------------- spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A benchmark-side span, e.g. the root of one answer."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, original: Callable[..., Any], ep: EntryPoint) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer._open(ep.span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer.calls[ep.span] += 1
            if ep.attrs is not None:
                tracer.spans[index].attrs.update(ep.attrs(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point that exists; record the ones that do not."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        loaded = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for ep in self.entry_points:
            try:
                owner: Any = importlib.import_module(ep.module)
            except ImportError:
                self.absent.add(ep.span)
                continue
            *path, attr = ep.qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None or not callable(original):
                self.absent.add(ep.span)
                continue
            wrapper = self._wrap(original, ep)
            # A method lives on its class; a function is rebound wherever
            # a repro module imported it by name.
            targets = [owner] if path else [
                module
                for module in loaded
                if any(value is original for value in vars(module).values())
            ]
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, name, original))
                        setattr(target, name, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    @contextmanager
    def installed(self) -> Iterator[Tracer]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------- queries

    def children(self) -> list[list[int]]:
        """Child span indices per span."""
        kids: list[list[int]] = [[] for _ in self.spans]
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                kids[span.parent].append(index)
        return kids

    def self_times(self) -> list[float]:
        """Span duration minus the part its (nested, sequential) children cover."""
        kids = self.children()
        return [
            span.duration - sum(self.spans[c].duration for c in kids[i])
            for i, span in enumerate(self.spans)
        ]

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "attrs": span.attrs,
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")
