"""reprolint: domain-aware static analysis for the GetReal reproduction.

The Monte-Carlo estimation layer is only trustworthy if it is
deterministic-under-seed and probabilistically sound.  An unseeded
``random.random()`` in a cascade, a float ``==`` on payoffs, or a metric
handle re-created per simulation silently degrades the payoff tensor and
hence the equilibrium Algorithm 1 returns.  These properties do not survive
refactors by reviewer vigilance alone, so this package enforces them
mechanically:

* :mod:`repro.lint.rules` — the per-file AST rules (RP001–RP009, RP017);
* :mod:`repro.lint.project` — the whole-program IR and rules (RP010–RP016);
* :mod:`repro.lint.engine` — the one engine: parse each file once, run
  every rule, apply ``# reprolint: disable=RPxxx`` suppressions, render;
* :mod:`repro.lint.cli` — the ``python -m repro lint`` / ``tools/reprolint``
  front end;
* :mod:`repro.lint.contracts` — opt-in runtime contracts
  (``REPRO_CONTRACTS=1``) asserting cascade invariants during simulation.

See ``docs/static-analysis.md`` for the full rule catalogue with examples.
The package imports no submodule itself, so the simulation code that
imports :mod:`repro.lint.contracts` does not load the linter.
"""
