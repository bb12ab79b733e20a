"""The :class:`Executor` facade: batched simulation with deterministic RNG.

Every σ(·) estimator in the library submits its Monte-Carlo work here as a
batch of independent :class:`~repro.exec.jobs.SimulationJob` objects.  The
executor:

1. spawns one :class:`numpy.random.SeedSequence` child per job from a
   single entropy draw off the caller's generator
   (:func:`repro.utils.rng.spawn_seed_sequences`), so a fixed master seed
   yields **bit-identical results on every backend at any worker count**;
2. hands the (job, seed-sequence) payloads to the configured
   :class:`~repro.exec.backends.SimulationBackend`;
3. reassembles completions by job index (completion order is irrelevant);
4. instruments the whole batch through :mod:`repro.obs` — job counters,
   queue-wait/job-duration histograms, and ``batch_start``/``batch_done``
   journal events — and validates it under the opt-in
   ``REPRO_CONTRACTS`` invariants.

The process-wide default executor is configured by the ``REPRO_BACKEND``
(``serial``/``thread``/``process``) and ``REPRO_WORKERS`` environment
variables; estimation entry points fall back to it whenever no explicit
executor is passed.
"""

from __future__ import annotations

import atexit
import cProfile
import itertools
import os
import pickle
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Sequence

from repro.cascade.estimate import SpreadEstimate
from repro.errors import ExecutionError
from repro.exec.backends import (
    BACKENDS,
    JobPayload,
    SerialBackend,
    SimulationBackend,
    make_backend,
)
from repro.exec.jobs import SimulationJob
from repro.lint import contracts
from repro.obs.journal import RunJournal, current_journal
from repro.obs.log import get_logger
from repro.obs.metrics import counter, get_registry, histogram
from repro.obs.trace import current_trace_context, span
from repro.utils.rng import RandomSource, as_rng, spawn_seed_sequences

#: Environment variables configuring the process-wide default executor.
BACKEND_ENV_VAR = "REPRO_BACKEND"
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: ``REPRO_PROFILE=1`` wraps every batch in cProfile; ``REPRO_PROFILE_DIR``
#: picks where the per-batch ``.prof`` dumps land (default ./repro-profiles).
PROFILE_ENV_VAR = "REPRO_PROFILE"
PROFILE_DIR_ENV_VAR = "REPRO_PROFILE_DIR"

_PROFILE_OFF_VALUES = frozenset({"", "0", "false", "no", "off"})


def profiling_enabled() -> bool:
    """Whether the ``REPRO_PROFILE`` batch-profiling hook is active."""
    raw = os.environ.get(PROFILE_ENV_VAR, "").strip().lower()
    return raw not in _PROFILE_OFF_VALUES

_LOG = get_logger("exec.executor")

_BATCHES = counter("exec.batches")
_JOBS_SUBMITTED = counter("exec.jobs_submitted")
_JOBS_COMPLETED = counter("exec.jobs_completed")
_QUEUE_WAIT_SECONDS = histogram("exec.queue_wait_seconds")
_JOB_SECONDS = histogram("exec.job_seconds")
_BATCH_SECONDS = histogram("exec.batch_seconds")
# Pickled size of each submitted job, observed only on backends that
# actually serialize payloads (process).  With GraphRef payloads this stays
# O(1) per job regardless of graph size — the scale-out invariant the
# large-graph smoke test asserts.
_JOB_PAYLOAD_BYTES = histogram("exec.job_payload_bytes")

_BATCH_IDS = itertools.count()


@dataclass(frozen=True)
class JobOutcome:
    """One job's results plus its scheduling telemetry."""

    index: int
    estimates: tuple[SpreadEstimate, ...]
    queue_wait_seconds: float
    job_seconds: float


class Executor:
    """Facade running batches of simulation jobs on a pluggable backend.

    Parameters
    ----------
    backend:
        A backend name (``serial``/``thread``/``process``) or an already
        constructed :class:`SimulationBackend`.
    workers:
        Worker count for the pooled backends (ignored by ``serial``;
        defaults to the CPU count).
    """

    def __init__(
        self,
        backend: str | SimulationBackend = "serial",
        workers: int | None = None,
    ) -> None:
        if isinstance(backend, SimulationBackend):
            self._backend = backend
        else:
            self._backend = make_backend(backend, workers)
        _LIVE_EXECUTORS.add(self)

    @property
    def backend_name(self) -> str:
        """The active backend's short name."""
        return self._backend.name

    @property
    def workers(self) -> int:
        """Effective worker count (1 for the serial backend)."""
        return getattr(self._backend, "workers", 1)

    def run(
        self,
        jobs: Sequence[SimulationJob],
        rng: RandomSource = None,
    ) -> list[JobOutcome]:
        """Execute *jobs* as one batch; outcomes are ordered like *jobs*.

        Exactly one entropy value is drawn from *rng* per batch (advancing
        a shared generator by a single step), from which every job's
        private stream is spawned — see
        :func:`repro.utils.rng.spawn_seed_sequences` for the determinism
        argument.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        generator = as_rng(rng)
        sequences = spawn_seed_sequences(generator, len(jobs))
        batch_id = next(_BATCH_IDS)
        # Harvest worker-local metric deltas only when workers do not share
        # this process's registry (process backend): serial/thread jobs
        # already increment it directly, so merging would double-count.
        harvest = not self._backend.shares_registry
        # Measure submit-side payloads only where they are actually pickled
        # (same condition as harvesting): serial/thread backends pass jobs
        # by reference, so serializing them there would be pure overhead.
        payload_bytes: int | None = None
        if harvest:
            sizes = [
                len(pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL))
                for job in jobs
            ]
            for size in sizes:
                _JOB_PAYLOAD_BYTES.observe(float(size))
            payload_bytes = int(sum(sizes))
        sink = current_journal()
        if sink is not None:
            sink.batch_start(
                batch_id,
                jobs=len(jobs),
                backend=self.backend_name,
                workers=self.workers,
                payload_bytes=payload_bytes,
            )
        _BATCHES.inc()
        _JOBS_SUBMITTED.inc(len(jobs))
        registry = get_registry()
        profiler = cProfile.Profile() if profiling_enabled() else None
        outcomes: list[JobOutcome | None] = [None] * len(jobs)
        worker_spans: list[dict[str, object]] = []
        with span(
            "exec.batch",
            journal=True,
            batch_id=batch_id,
            jobs=len(jobs),
            backend=self.backend_name,
        ):
            context = current_trace_context()
            serialized = context.as_dict() if context is not None else None
            submitted = time.monotonic()
            payloads: list[JobPayload] = [
                (i, job, sequences[i], submitted, serialized, harvest)
                for i, job in enumerate(jobs)
            ]
            if profiler is not None:
                profiler.enable()
            try:
                for (
                    index,
                    estimates,
                    queue_wait,
                    job_seconds,
                    delta,
                    span_records,
                ) in self._backend.map_unordered(payloads):
                    outcomes[index] = JobOutcome(
                        index, estimates, queue_wait, job_seconds
                    )
                    _JOBS_COMPLETED.inc()
                    _QUEUE_WAIT_SECONDS.observe(queue_wait)
                    _JOB_SECONDS.observe(job_seconds)
                    if harvest and delta is not None:
                        registry.merge_delta(delta)
                    worker_spans.extend(span_records)
            finally:
                if profiler is not None:
                    profiler.disable()
            elapsed = time.monotonic() - submitted
        if sink is not None:
            # Replay journal-worthy spans collected inside workers (which
            # have no journal attached); their trace ids already parent
            # them under this batch's span.
            for record in worker_spans:
                sink.emit("span", **record)
        if profiler is not None:
            self._dump_profile(profiler, batch_id, sink)
        _BATCH_SECONDS.observe(elapsed)
        missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if missing:
            raise ExecutionError(
                f"backend {self.backend_name!r} dropped jobs {missing} of "
                f"batch {batch_id}"
            )
        completed: list[JobOutcome] = [o for o in outcomes if o is not None]
        if contracts.enabled():
            contracts.check_batch(
                [outcome.estimates for outcome in completed],
                [job.num_nodes for job in jobs],
            )
        if sink is not None:
            sink.batch_done(
                batch_id,
                jobs=len(jobs),
                backend=self.backend_name,
                workers=self.workers,
                duration_seconds=elapsed,
            )
        _LOG.debug(
            "batch %d: %d jobs on %s/%d workers in %.3fs",
            batch_id,
            len(jobs),
            self.backend_name,
            self.workers,
            elapsed,
        )
        return completed

    def _dump_profile(
        self,
        profiler: cProfile.Profile,
        batch_id: int,
        sink: RunJournal | None,
    ) -> None:
        """Write the batch's cProfile dump and journal a pointer to it.

        Serial/thread backends profile the actual simulation work; the
        process backend profiles only the submit/gather side (workers run
        in other processes), which still surfaces pickling overheads.
        """
        directory = Path(
            os.environ.get(PROFILE_DIR_ENV_VAR, "").strip() or "repro-profiles"
        )
        directory.mkdir(parents=True, exist_ok=True)
        prof_path = directory / f"batch-{batch_id:05d}.prof"
        profiler.dump_stats(str(prof_path))
        _LOG.debug("batch %d profile dumped to %s", batch_id, prof_path)
        if sink is not None:
            sink.emit(
                "profile",
                batch_id=batch_id,
                path=str(prof_path),
                backend=self.backend_name,
            )

    def estimates(
        self,
        jobs: Sequence[SimulationJob],
        rng: RandomSource = None,
    ) -> list[tuple[SpreadEstimate, ...]]:
        """Convenience wrapper: the per-job estimate tuples of :meth:`run`."""
        return [outcome.estimates for outcome in self.run(jobs, rng=rng)]

    def close(self) -> None:
        """Release the backend's pooled workers (idempotent)."""
        self._backend.close()
        _LIVE_EXECUTORS.discard(self)

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Executor(backend={self.backend_name!r}, workers={self.workers})"


# ---------------------------------------------------------------------- #
# interpreter-exit cleanup
# ---------------------------------------------------------------------- #

# Strong references: an unclosed executor must never be reclaimed by
# refcounting, because concurrent.futures reacts to that with an
# *asynchronous* pool shutdown from its manager thread, which races its
# own exit hook on the wakeup pipe (EBADF at interpreter exit on
# CPython < 3.12).  close() discards the reference; anything still here
# at exit is shut down synchronously below, before that hook runs.
_LIVE_EXECUTORS: set[Executor] = set()
_OWNER_PID = os.getpid()


def _close_live_executors() -> None:
    # Forked workers inherit this hook plus phantom references to the
    # parent's executors; shutting those down from a child deadlocks the
    # child (its pool's manager thread does not exist post-fork), which
    # in turn hangs the parent's own shutdown.  Only the creating
    # process cleans up.
    if os.getpid() != _OWNER_PID:
        return
    for executor in list(_LIVE_EXECUTORS):
        executor.close()


# Pools must be shut down before concurrent.futures' own exit hook runs:
# a still-live ProcessPoolExecutor races it on the management-thread
# wakeup pipe under fork (EBADF at interpreter exit on CPython < 3.12).
# threading._register_atexit callbacks run LIFO, and repro.exec imports
# after concurrent.futures, so this hook fires first; plain atexit is the
# fallback where the private hook is unavailable.
_register_atexit = getattr(threading, "_register_atexit", None)
if _register_atexit is not None:
    _register_atexit(_close_live_executors)
else:  # pragma: no cover - CPython always has the threading hook
    atexit.register(_close_live_executors)


# ---------------------------------------------------------------------- #
# process-wide default
# ---------------------------------------------------------------------- #

_DEFAULT: Executor | None = None


def _env_workers() -> int | None:
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not raw:
        return None
    value = int(raw)
    if value < 1:
        raise ExecutionError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
    return value


def build_executor(
    backend: str | None = None, workers: int | None = None
) -> Executor:
    """Build an executor from explicit settings with env-variable fallbacks.

    ``backend=None`` falls back to ``REPRO_BACKEND`` (default ``serial``);
    ``workers=None`` falls back to ``REPRO_WORKERS`` (default: CPU count).
    """
    resolved = backend or os.environ.get(BACKEND_ENV_VAR, "").strip() or "serial"
    if resolved not in BACKENDS:
        raise ExecutionError(
            f"unknown execution backend {resolved!r}; known: {sorted(BACKENDS)}"
        )
    return Executor(resolved, workers if workers is not None else _env_workers())


def default_executor() -> Executor:
    """The process-wide executor estimation entry points fall back to.

    Configured by ``REPRO_BACKEND``/``REPRO_WORKERS`` and re-built (closing
    the previous instance) whenever those variables change, so test suites
    and CI matrices can flip backends between calls.
    """
    global _DEFAULT
    backend = os.environ.get(BACKEND_ENV_VAR, "").strip() or "serial"
    workers = _env_workers()
    if (
        _DEFAULT is None
        or _DEFAULT.backend_name != backend
        or (workers is not None and _DEFAULT.workers != workers)
    ):
        if _DEFAULT is not None:
            _DEFAULT.close()
        _DEFAULT = build_executor(backend, workers)
    return _DEFAULT


def reset_default_executor() -> None:
    """Close and forget the process-wide default executor (mainly for tests)."""
    global _DEFAULT
    if _DEFAULT is not None:
        _DEFAULT.close()
        _DEFAULT = None


def resolve_executor(executor: Executor | None) -> Executor:
    """*executor* itself, or the process-wide default when ``None``."""
    return executor if executor is not None else default_executor()
