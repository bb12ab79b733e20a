"""Record the run-journal fixture the CLI and monitor tests read.

Runs one small GetReal answer — MixGreedy vs DegreeDiscount on the
karate-like fixture graph, two groups, serial backend, fixed seed — with a
journal attached, and writes it to ``tests/fixtures/run_journal.jsonl``
(or the path given as the only argument).  The journal holds three
``exec.batch`` spans (two NewGreedy gains batches of 13 jobs, one payoff
batch of 4 jobs) under one ``getreal.run`` span: 30 jobs in all.

Everything except timestamps, durations, the run id and the trace/span
ids is a function of the fixed seed, so a re-recorded fixture differs from
the committed one only in those fields.  Run from the repo root::

    PYTHONPATH=src python tools/record_fixture_journal.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.algorithms import get_algorithm
from repro.cache import clear_caches
from repro.cascade.ic import IndependentCascade
from repro.core.getreal import get_real
from repro.core.strategy import StrategySpace
from repro.exec.executor import build_executor
from repro.graphs.generators import karate_like_fixture
from repro.obs.journal import RunJournal, attached

DEFAULT_PATH = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "run_journal.jsonl"
SEED = 7
PROBABILITY = 0.1


def record(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)  # RunJournal appends
    clear_caches()  # a selection-cache hit would skip the gains batches
    space = StrategySpace(
        [
            get_algorithm("mgic", probability=PROBABILITY),
            get_algorithm("ddic", probability=PROBABILITY),
        ]
    )
    with build_executor("serial", None) as executor, RunJournal(path) as journal:
        with attached(journal):
            get_real(
                karate_like_fixture(),
                IndependentCascade(PROBABILITY),
                space,
                num_groups=2,
                k=3,
                rounds=10,
                rng=SEED,
                executor=executor,
            )


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else DEFAULT_PATH
    record(path)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
