"""The reprolint engine: extract → aggregate → check, one path for every rule.

1. **extract** — every ``.py`` file under the package root is read and
   parsed once (:func:`~repro.lint.project.facts.extract_facts`), which
   records its suppression map, runs the per-file AST rules on that tree,
   and reduces it to picklable :class:`~repro.lint.project.facts.ModuleFacts`.
   This stage fans out over a process pool (``jobs`` workers) once the
   file count justifies the pool start-up cost;
2. **aggregate** — the facts become a
   :class:`~repro.lint.project.symbols.SymbolTable` and a
   :class:`~repro.lint.project.callgraph.CallGraph` (single process, cheap);
3. **check** — the whole-program rules inspect the aggregate; their
   findings join the per-file ones, and one filter applies rule selection
   and ``# reprolint: disable=RPxxx`` suppressions to all of them.

Files that fail to read or parse are **never silently skipped**: each
produces an ``RP999`` finding (never suppressed, never deselected) and
still participates as an empty module, so the CLI exits nonzero.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
from collections import Counter as TallyCounter
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.base import Finding, Rule
from repro.lint.project.callgraph import CallGraph
from repro.lint.project.facts import (
    PARSE_ERROR_CODE,
    ModuleFacts,
    extract_facts,
    parse_error,
)
from repro.lint.project.rules import PROJECT_RULES, Project, ProjectRule
from repro.lint.project.symbols import SymbolTable
from repro.lint.rules import FILE_RULES

#: JSON output schema version; bump on any key change.
JSON_SCHEMA_VERSION = 1

#: Below this file count the pool start-up dominates; extract serially.
_PARALLEL_THRESHOLD = 16

#: The one rule catalogue: per-file and whole-program rules, by code.
RULES: tuple[type[Rule] | type[ProjectRule], ...] = tuple(
    sorted((*FILE_RULES, *PROJECT_RULES), key=lambda rule: rule.code)
)


def rule_by_code(code: str) -> type[Rule] | type[ProjectRule]:
    """Look up a rule class by its ``RPxxx`` code."""
    for rule in RULES:
        if rule.code == code:
            return rule
    raise KeyError(
        f"unknown rule code {code!r}; known: {', '.join(r.code for r in RULES)}"
    )


def select_codes(
    select: Sequence[str] | None = None, ignore: Sequence[str] | None = None
) -> frozenset[str]:
    """The rule codes a run reports; unknown codes raise ``ValueError``."""
    known = {rule.code for rule in RULES}
    for codes in (select, ignore):
        unknown = set(codes or ()) - known
        if unknown:
            raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
    return frozenset((set(select) if select else known) - set(ignore or ()))


def _suppressed(finding: Finding, suppressions: dict[int, set[str] | None]) -> bool:
    if finding.line not in suppressions:
        return False
    codes = suppressions[finding.line]
    return codes is None or finding.code in codes


def check(modules: dict[str, ModuleFacts], codes: frozenset[str]) -> list[Finding]:
    """Stages 2–3: every unsuppressed finding of the rules in *codes*, sorted.

    Parse errors are reported whatever the selection.
    """
    symbols = SymbolTable(modules)
    project = Project(modules=modules, symbols=symbols, callgraph=CallGraph(symbols))
    findings = [f for facts in modules.values() for f in facts.findings]
    for rule_cls in PROJECT_RULES:
        if rule_cls.code in codes:
            findings.extend(rule_cls().check(project))
    suppressions = {facts.path: facts.suppressions for facts in modules.values()}
    return sorted(
        f
        for f in findings
        if f.code == PARSE_ERROR_CODE
        or (f.code in codes and not _suppressed(f, suppressions[f.path]))
    )


def lint_source(
    source: str,
    path: Path | str = "<string>",
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint *source* as a one-module project, scoping rules by *path*."""
    codes = select_codes(select, ignore)
    display = str(path)
    facts = extract_facts(source, Path(display).stem, display)
    return check({facts.module: facts}, codes)


def module_name_for(path: Path, root: Path, package: str) -> str:
    """Dotted module name of *path* relative to the package *root*.

    ``<root>/exec/jobs.py`` → ``<package>.exec.jobs``;
    ``<root>/exec/__init__.py`` → ``<package>.exec``.
    """
    relative = path.resolve().relative_to(root.resolve())
    parts = [package, *relative.parts[:-1]]
    stem = relative.stem
    if stem != "__init__":
        parts.append(stem)
    return ".".join(parts)


def _extract_one(payload: tuple[str, str]) -> ModuleFacts:
    """Worker body: read + parse + extract one file (picklable in and out)."""
    path, module = payload
    try:
        source = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        facts = ModuleFacts(module=module, path=path)
        facts.findings.append(
            parse_error(
                path,
                f"file unreadable: {exc}",
                "fix the file's permissions or encoding; reprolint never "
                "skips files silently",
            )
        )
        return facts
    return extract_facts(source, module, path)


def extract_project(root: Path, jobs: int | None = None) -> dict[str, ModuleFacts]:
    """Stage 1: per-file facts for every module under *root*.

    *jobs* defaults to ``min(cpus, 8)`` workers.
    """
    payloads = [
        (str(f), module_name_for(f, root, root.name)) for f in sorted(root.rglob("*.py"))
    ]
    workers = min(os.cpu_count() or 1, 8) if jobs is None else max(jobs, 1)
    results: list[ModuleFacts]
    if workers > 1 and len(payloads) >= _PARALLEL_THRESHOLD:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(len(payloads) // (workers * 4), 1)
            results = list(pool.map(_extract_one, payloads, chunksize=chunk))
    else:
        results = [_extract_one(p) for p in payloads]
    modules: dict[str, ModuleFacts] = {}
    for facts in results:
        # A package dir and a sibling module can collide only on broken
        # layouts; last write wins deterministically (sorted file order).
        modules[facts.module] = facts
    return modules


@dataclass
class ProjectReport:
    """Outcome of one analysis run (pre-baseline)."""

    findings: list[Finding] = field(default_factory=list)
    parse_errors: list[Finding] = field(default_factory=list)
    modules_analyzed: int = 0

    @property
    def all_findings(self) -> list[Finding]:
        """Rule findings plus parse errors, sorted for rendering."""
        return sorted([*self.findings, *self.parse_errors])


def analyze_project(
    root: Path | str,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    jobs: int | None = None,
) -> ProjectReport:
    """Run every selected rule over the package at *root*."""
    codes = select_codes(select, ignore)
    modules = extract_project(Path(root), jobs=jobs)
    report = ProjectReport(modules_analyzed=len(modules))
    for finding in check(modules, codes):
        if finding.code == PARSE_ERROR_CODE:
            report.parse_errors.append(finding)
        else:
            report.findings.append(finding)
    return report


def format_findings(findings: Sequence[Finding], show_hints: bool = True) -> str:
    """Human-readable report: one line per finding, hint indented below."""
    if not findings:
        return "reprolint: no findings"
    lines: list[str] = []
    for finding in findings:
        lines.append(finding.render())
        if show_hints and finding.hint:
            lines.append(f"    hint: {finding.hint}")
    tally = TallyCounter(f.code for f in findings)
    summary = ", ".join(f"{code}×{count}" for code, count in sorted(tally.items()))
    lines.append(f"reprolint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def format_json(findings: Sequence[Finding]) -> str:
    """Stable JSON document (see ``JSON_SCHEMA_VERSION``) for tooling."""
    tally = TallyCounter(f.code for f in findings)
    document = {
        "version": JSON_SCHEMA_VERSION,
        "findings": [f.as_dict() for f in findings],
        "summary": {
            "total": len(findings),
            "by_code": dict(sorted(tally.items())),
            "files": len({f.path for f in findings}),
        },
    }
    return json.dumps(document, indent=2, sort_keys=False)
