#!/usr/bin/env python3
"""GetReal answer-time benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hep-ic --seed 1 --seconds 22 --trace 0

``--trace 0`` measures with no wrappers installed and prints every
end-to-end metric; ``--trace 1`` alternates untraced and traced operations
and prints every per-layer metric (see ``perfbench/tracer.py``).  Every
answer is checked by ``perfbench/oracle.py``; an operation that raises or
fails a check counts in ``failed``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Times are scaled to a reference host speed by ``perfbench/hostspeed.py``.
``NOTES.md`` defines each metric per workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

# The benchmark's own modules import nothing of the program at import time:
# REPRO_* is scrubbed in main() before repro is first imported.
from perfbench import hostspeed, layers, oracle  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.hostspeed import Timing  # noqa: E402
from perfbench.tracer import ENTRY_POINTS, EntryPoint, Tracer  # noqa: E402

#: End-to-end metrics, printed by every workload with ``--trace 0``.
END_TO_END = (
    ("answer_s", "s"),
    ("warm_answer_s", "s"),
    ("cold_select_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Set-up (import + graph build + first-call warm-up) repetitions; setup_s takes the median.
SETUP_REPEATS = 3
#: Run in a fresh interpreter; prints the wall time of importing the program.
IMPORT_TIMER = "import time; t = time.perf_counter(); import scipy, repro; print(time.perf_counter() - t)"
#: Fewest cold answers per run, even past ``--seconds``.
MIN_ANSWERS = 3
#: Fewest cold session bring-ups per delta-stream run.
MIN_BRINGUPS = 5
#: Share of a delta-stream run spent on cold bring-ups; deltas get the rest.
BRINGUP_SHARE = 0.5


def _now() -> float:
    return time.perf_counter()


class Run:
    """State of one benchmark run: counts, samples, problems and the tracer."""

    def __init__(
        self, workload: Any, seed: int, seconds: float, tracer: Tracer | None = None
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}  # host-normalized seconds
        self.wall: dict[str, list[float]] = {}  # the same samples as wall time
        self.probes: list[float] = []
        self.notes: dict[str, Any] = {}

    def record(self, name: str, seconds: float, wall_s: float) -> None:
        self.samples.setdefault(name, []).append(seconds)
        self.wall.setdefault(name, []).append(wall_s)

    def sample(self, name: str, timing: Timing) -> None:
        self.record(name, timing.seconds, timing.wall_s)

    def probe(self) -> float:
        seconds = hostspeed.probe()
        self.probes.append(seconds)
        return seconds

    def fail(self, what: str, problems: list[str]) -> bool:
        """Record *problems* of one operation; True when it passed."""
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def op(
        self, name: str, fn: Callable[[], Any], traced: bool = False
    ) -> tuple[Any, Timing, dict[str, float]] | None:
        """Run one timed operation; None when it raised.

        Returns the result, its timing and the program-counter deltas.
        A traced op runs with the wrappers installed, under an ``op.*`` span.
        The host probes run right before and after, outside the timing.
        """
        self.attempted += 1
        before = counters()
        probe_before = self.probe()
        try:
            if traced and self.tracer is not None:
                with self.tracer.installed(), self.tracer.span(f"op.{name}") as root:
                    started = _now()
                    result = fn()
                    elapsed = _now() - started
            else:
                started = _now()
                result = fn()
                elapsed = _now() - started
        except Exception:
            self.failed += 1
            self.problems.append(f"{name}: raised\n{traceback.format_exc()}")
            return None
        timing = Timing(elapsed, (probe_before + self.probe()) / 2)
        after = counters()
        deltas = {c: after.get(c, 0) - before.get(c, 0) for c in layers.COUNTERS}
        if traced and self.tracer is not None:
            root.attrs["counters"] = deltas
        return result, timing, deltas


def counters() -> dict[str, float]:
    from repro.obs.metrics import snapshot

    return dict(snapshot()["counters"])


def fresh() -> None:
    """Empty every program cache and collect garbage, before a cold operation."""
    from repro.cache import clear_caches

    clear_caches()
    gc.collect()


# -------------------------------------------------------------------- setup


def import_time() -> float:
    """Wall time of importing the program (numpy and scipy too) in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def setup(run: Run) -> Any:
    """Import the program, build the graph and warm up on a tiny copy, several times.

    ``setup_s`` is the median repetition.  Graph build and warm-up are
    scaled by the host probes around them.  The import runs in another
    process, whose time did not follow this process's probe, so it is
    counted as measured.
    """
    reps: list[tuple[float, Timing]] = []
    graph = None
    for _ in range(SETUP_REPEATS):
        imported = import_time()
        probe_before = run.probe()
        started = _now()
        if run.tracer is not None:
            with run.tracer.installed(), run.tracer.span("setup"):
                graph = wl.build_graph(run.workload)
        else:
            graph = wl.build_graph(run.workload)
        warm_up(wl.tiny(run.workload), run.seed)
        reps.append((imported, Timing(_now() - started, (probe_before + run.probe()) / 2)))
    imported, timing = sorted(reps, key=lambda rep: rep[0] + rep[1].seconds)[len(reps) // 2]
    run.record("setup_s", imported + timing.seconds, imported + timing.wall_s)
    return graph


def warm_up(workload: Any, seed: int) -> None:
    import numpy as np

    import repro
    from repro.incremental import IncrementalSession

    graph = wl.build_graph(workload)
    model = wl.build_model(workload)
    if isinstance(workload, wl.GetRealWorkload):
        repro.get_real(
            graph,
            model,
            wl.build_strategies(workload),
            num_groups=workload.num_groups,
            k=workload.k,
            rounds=workload.rounds,
            rng=seed,
        )
    else:
        session = IncrementalSession(graph, model, num_snapshots=workload.num_snapshots, pool_seed=seed)
        session.select(workload.k)
        rng = np.random.default_rng(seed)
        session.apply_delta(wl.next_delta(session.graph, workload, rng))
        session.reselect(workload.k)
    fresh()


# ------------------------------------------------------------------ getreal


def check_seeds(seeds: Any, k: int, n: int) -> list[str]:
    seeds = [int(s) for s in seeds]
    if len(seeds) != k or len(set(seeds)) != k or min(seeds) < 0 or max(seeds) >= n:
        return [f"invalid seed set {seeds[:5]}..."]
    return []


def check_answer(run: Run, result: Any, n: int) -> list[str]:
    payoffs = result.game.payoffs
    problems = oracle.check_equilibrium(payoffs, result.mixture.probabilities)
    problems += oracle.check_sanity(payoffs, n)
    reference = run.notes["reference"]
    if reference is None:
        problems.append("no reference tensor recorded for these workload parameters")
    else:
        stderr = oracle.cell_stderr(result)
        problems += oracle.check_reference(payoffs, stderr, reference)
        if not problems:
            z = float(oracle.reference_z(payoffs, stderr, reference).max())
            run.notes["max_reference_z"] = max(z, run.notes.get("max_reference_z", 0.0))
    return problems


def run_getreal(run: Run, graph: Any) -> None:
    """Cold selection, cold answer and warm answer per seed, until the deadline.

    Traced runs replace the selection by an untraced twin of the cold
    answer: the overhead baseline and the bit-identity reference.
    """
    import numpy as np

    import repro
    from repro.cascade.pools import SnapshotPool

    w = run.workload
    model = wl.build_model(w)
    strategies = wl.build_strategies(w)
    n = graph.num_nodes
    traced = run.tracer is not None

    def answer(seed: int) -> Any:
        return repro.get_real(
            graph, model, strategies, num_groups=w.num_groups, k=w.k, rounds=w.rounds, rng=seed
        )

    def cold_select(seed: int) -> list[list[int]]:
        pool = SnapshotPool(graph)
        rng = np.random.default_rng(seed)
        return [s.select(graph, w.k, rng, pool=pool) for s in strategies]

    def cold(seed: int, traced_op: bool) -> tuple[Any, Timing] | None:
        """One cold answer and its time; None when it raised or failed a check."""
        fresh()
        done = run.op("cold", lambda: answer(seed), traced=traced_op)
        if done is None:
            return None
        result, timing, deltas = done
        problems = check_answer(run, result, n)
        if deltas["cache.misses"] <= 0 or deltas["cache.hits"] != 0:
            problems.append(f"cold answer cache counters {deltas} (want misses > 0, hits 0)")
        run.notes.setdefault("kinds", []).append(result.kind)
        return (result, timing) if run.fail("cold", problems) else None

    deadline = _now() + run.seconds
    i = 0
    while i < MIN_ANSWERS or _now() < deadline:
        seed = wl.stream_seed(run.seed, i)
        i += 1
        if traced:
            twin = cold(seed, traced_op=False)
            if twin is None:
                continue
            run.sample("untraced_answer_s", twin[1])
        else:
            fresh()
            done = run.op("select", lambda: cold_select(seed))
            if done is not None:
                seeds, timing, _ = done
                if run.fail("select", [p for s in seeds for p in check_seeds(s, w.k, n)]):
                    run.sample("cold_select_s", timing)
        got = cold(seed, traced_op=traced)
        if got is None:
            continue
        result, timing = got
        run.sample("answer_s", timing)
        if traced and not run.fail("traced", oracle.check_identical(twin[0], result, "traced vs untraced")):
            continue
        done = run.op("warm", lambda: answer(seed), traced=traced)
        if done is None:
            continue
        warm, timing, deltas = done
        problems = oracle.check_identical(result, warm, "warm vs cold")
        if deltas["cache.hits"] <= 0:
            problems.append(f"warm answer had no cache hit: {deltas}")
        if run.fail("warm", problems):
            run.sample("warm_answer_s", timing)


# ------------------------------------------------------------- delta stream


def run_delta(run: Run, graph: Any) -> None:
    """Cold bring-ups, then a closed loop of deltas, then the cold comparator.

    Bring-ups take the first ``BRINGUP_SHARE`` of the run, deltas the rest.
    Traced runs bring up once untraced and once traced, and trace every
    second delta.
    """
    import numpy as np

    from repro.incremental import IncrementalSession

    w = run.workload
    model = wl.build_model(w)
    pool_seed = wl.stream_seed(run.seed, 0)
    traced = run.tracer is not None

    def bring_up() -> tuple[Any, list[int]]:
        session = IncrementalSession(graph, model, num_snapshots=w.num_snapshots, pool_seed=pool_seed)
        return session, session.select(w.k)

    started = _now()
    bringups_end = started + BRINGUP_SHARE * run.seconds
    deadline = started + run.seconds

    def more_bringups(j: int) -> bool:
        return j < 2 if traced else j < MIN_BRINGUPS or _now() < bringups_end

    session = None
    first: list[int] | None = None
    j = 0
    while more_bringups(j):
        j += 1
        fresh()
        done = run.op("bringup", bring_up, traced=traced and j == 2)
        if done is None:
            continue
        (candidate, seeds), timing, deltas = done
        problems = check_seeds(seeds, w.k, graph.num_nodes)
        if deltas["cache.misses"] <= 0:
            problems.append(f"cold bring-up cache counters {deltas} (want misses > 0)")
        if first is None:
            first = list(seeds)
        elif list(seeds) != first:
            problems.append("bring-ups of the same pool seed disagree")
        if run.fail("bringup", problems):
            session = candidate
            run.sample("bringup_s", timing)
    if session is None or first is None:
        return

    # Deltas are ~1000x shorter than a cold answer: no collection between them.
    rng = np.random.default_rng(wl.stream_seed(run.seed, 1))
    count = 0
    seeds = tuple(first)
    while count < w.min_deltas or _now() < deadline:
        delta = wl.next_delta(session.graph, w, rng)
        traced_op = traced and count % 2 == 1

        def step(delta: Any = delta) -> Any:
            session.apply_delta(delta)
            return session.reselect(w.k)

        done = run.op("delta", step, traced=traced_op)
        count += 1
        if done is None:
            return  # the session state is unknown after a failed delta
        outcome, timing, _ = done
        seeds = tuple(outcome.seeds)
        if run.fail("delta", check_seeds(seeds, w.k, session.graph.num_nodes)):
            run.sample("traced_delta_s" if traced_op else "delta_s", timing)

    run.notes["deltas"] = count
    # The comparator: a cold session on the final graph, timed by no metric.
    fresh()
    cold = IncrementalSession(session.graph, model, num_snapshots=w.num_snapshots, pool_seed=pool_seed)
    expected = np.asarray(cold.select(w.k), dtype=np.int64).tobytes()
    if np.asarray(seeds, dtype=np.int64).tobytes() != expected:
        run.fail("comparator", ["final seeds differ from a cold session on the final graph"])


# ------------------------------------------------------------------ output


def config() -> dict[str, Any]:
    """The resolved defaults and versions the numbers were measured under."""
    import numpy
    import scipy

    def resolved(module: str, name: str) -> Any:
        try:
            return getattr(__import__(module, fromlist=[name]), name)()
        except Exception as exc:  # a renamed default must not crash the report
            return f"unavailable ({type(exc).__name__})"

    executor = resolved("repro.exec.executor", "default_executor")
    return {
        "kernel": resolved("repro.cascade.kernels", "resolve_kernel"),
        "symmetry": resolved("repro.core.payoff", "resolve_symmetry"),
        "backend": getattr(executor, "backend_name", executor),
        "workers": getattr(executor, "workers", None),
        "cache": resolved("repro.cache", "cache_enabled"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def end_to_end(run: Run) -> dict[str, float]:
    s = run.samples
    if isinstance(run.workload, wl.DeltaWorkload):
        # A session's cold answer is its bring-up; its warm answers are deltas.
        values = {
            "answer_s": s.get("bringup_s"),
            "warm_answer_s": s.get("delta_s"),
            "cold_select_s": s.get("bringup_s"),
        }
    else:
        values = {
            "answer_s": s.get("answer_s"),
            "warm_answer_s": s.get("warm_answer_s"),
            "cold_select_s": s.get("cold_select_s"),
        }
    values["setup_s"] = s.get("setup_s")
    out = {name: layers.median(v) for name, v in values.items() if v}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def per_layer(run: Run, missing: list[str]) -> dict[str, float]:
    s = run.samples
    if isinstance(run.workload, wl.DeltaWorkload):
        op, traced, untraced = "op.delta", s.get("traced_delta_s"), s.get("delta_s")
    else:
        op, traced, untraced = "op.cold", s.get("answer_s"), s.get("untraced_answer_s")
    overhead = layers.median(traced) / layers.median(untraced) - 1.0 if traced and untraced else 0.0
    values = layers.layer_values(run.tracer, op, overhead)
    return {name: v for name, v in values.items() if name not in missing}


def load_reference(workload: Any) -> dict[str, Any] | None:
    """The recorded reference of *workload*, if recorded for its exact parameters."""
    path = BENCH / "reference.json"
    if not path.is_file():
        return None
    entry = json.loads(path.read_text()).get(workload.name)
    if entry is None or entry.get("params") != json.loads(json.dumps(workload.params())):
        return None
    return dict(entry)


def measure(
    workload: Any,
    seed: int,
    seconds: float,
    traced: bool,
    reference: dict[str, Any] | None = None,
    entry_points: tuple[EntryPoint, ...] = ENTRY_POINTS,
) -> tuple[Run, dict[str, Any]]:
    """Run *workload* and return the run plus the result object to print."""
    run = Run(workload, seed, seconds, Tracer(entry_points) if traced else None)
    run.notes["reference"] = reference
    graph = setup(run)
    if isinstance(workload, wl.GetRealWorkload):
        run_getreal(run, graph)
    else:
        run_delta(run, graph)

    if run.tracer is not None:
        guarded = layers.missing_metrics(run.tracer, workload.expects, counters())
        metrics = per_layer(run, guarded)
        units = {m.name: m.unit for m in layers.LAYER_METRICS}
    else:
        metrics = end_to_end(run)
        units = dict(END_TO_END)
    missing = [name for name in units if name not in metrics]
    run.notes["missing"] = missing
    result = {
        "correct": run.failed == 0 and not missing,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return run, result


def summary(run: Run) -> dict[str, Any]:
    """Human-facing facts of a run, printed before the result line."""
    samples = run.samples
    out: dict[str, Any] = {
        "workload": run.workload.name,
        "seed": run.seed,
        "failed_frac": run.failed / max(run.attempted, 1),
        "samples": {name: len(v) for name, v in samples.items()},
        "kinds": sorted(set(run.notes.get("kinds", []))),
        "max_reference_z": run.notes.get("max_reference_z"),
        "wall_median_s": {name: layers.median(v) for name, v in run.wall.items() if v},
        "probe_median_s": layers.median(run.probes) if run.probes else None,
        "reference_probe_s": hostspeed.REFERENCE_PROBE_S,
    }
    if "delta_s" in samples:
        out["deltas"] = run.notes.get("deltas")
        out["delta_p50_s"] = layers.median(samples["delta_s"])
        out["delta_p90_s"] = layers.tail_percentile(samples["delta_s"], 90)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    scrubbed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in scrubbed:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    import scipy  # noqa: F401

    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run, result = measure(
        workload,
        args.seed,
        args.seconds,
        traced=bool(args.trace),
        reference=load_reference(workload),
    )
    if run.tracer is not None:
        run.tracer.write(BENCH / "out" / f"spans-{workload.name}-{args.seed}.jsonl")
    print("config " + json.dumps({**config(), "scrubbed_env": scrubbed}, sort_keys=True))
    print("summary " + json.dumps(summary(run), sort_keys=True))
    for problem in run.problems[:20]:
        print("problem " + problem, file=sys.stderr)
    if run.notes["missing"]:
        print("missing " + json.dumps(run.notes["missing"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
