"""Whole-program IR and rules: facts, symbols, call graph, RP010–RP016.

The engine (:mod:`repro.lint.engine`) parses each file of the package once
and runs every rule; this package holds what it builds on the way:

* :mod:`repro.lint.project.facts` — the one parse per file: per-file
  picklable IR plus the per-file rule findings (extracted in parallel
  across a process pool);
* :mod:`repro.lint.project.symbols` — cross-module name resolution
  (imports, re-exports, star imports, aliases, base-class method lookup);
* :mod:`repro.lint.project.callgraph` — caller→callee edges, reachability,
  call-path traces for findings;
* :mod:`repro.lint.project.rules` — RP010–RP016;
* :mod:`repro.lint.project.baseline` — the checked-in ratchet that pins
  accepted findings while blocking new ones.
"""

from repro.lint.project.baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.project.callgraph import CallGraph, render_trace
from repro.lint.project.facts import ModuleFacts, extract_facts
from repro.lint.project.rules import PROJECT_RULES, Project, ProjectRule
from repro.lint.project.symbols import SymbolTable

__all__ = [
    "DEFAULT_BASELINE",
    "PROJECT_RULES",
    "CallGraph",
    "ModuleFacts",
    "Project",
    "ProjectRule",
    "SymbolTable",
    "apply_baseline",
    "extract_facts",
    "load_baseline",
    "render_trace",
    "write_baseline",
]
