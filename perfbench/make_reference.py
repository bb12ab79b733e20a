#!/usr/bin/env python3
"""Record the reference payoff tensors the benchmark's oracle compares against.

For every GetReal workload, answers the workload's query on ``--answers``
seeds of its own and stores, per cell of the symmetrized payoff tensor,
the mean and the standard deviation across those answers,
together with the workload parameters they were recorded for::

    python3 perfbench/make_reference.py [--answers 48] [--workload hep-ic ...]

Re-run it whenever a workload's parameters change; the runner refuses a
reference whose parameters differ from the workload's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Workload seed of the reference answers.
REFERENCE_SEED = 1_000_000


def reference_for(workload: Any, answers: int) -> dict[str, Any]:
    """Per symmetrized cell, mean and standard deviation of *answers* cold answers."""
    import numpy as np

    import repro
    from perfbench import oracle
    from perfbench import workloads as wl
    from repro.cache import clear_caches

    graph = wl.build_graph(workload)
    model = wl.build_model(workload)
    strategies = wl.build_strategies(workload)
    seeds = [wl.stream_seed(REFERENCE_SEED, i) for i in range(answers)]
    tensors = []
    for seed in seeds:
        clear_caches()
        result = repro.get_real(
            graph,
            model,
            strategies,
            num_groups=workload.num_groups,
            k=workload.k,
            rounds=workload.rounds,
            rng=seed,
        )
        tensors.append(oracle.symmetrized_payoff(result.game.payoffs))
    stack = np.stack(tensors)
    return {
        "params": workload.params(),
        "seeds": seeds,
        "mean": stack.mean(axis=0).tolist(),
        "sd": stack.std(axis=0, ddof=1).tolist(),
    }


def main() -> int:
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, GetRealWorkload

    names = [name for name, w in WORKLOADS.items() if isinstance(w, GetRealWorkload)]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--answers", type=int, default=48)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in args.workload or names:
        table[name] = reference_for(WORKLOADS[name], args.answers)
        print(f"{name}: {args.answers} answers recorded", flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
