"""SARIF 2.1.0 output for reprolint findings.

SARIF (Static Analysis Results Interchange Format) is the interchange
format code-scanning UIs ingest (GitHub code scanning, VS Code SARIF
viewer).  One ``run`` per invocation, one ``result`` per finding; rule
metadata (name, rationale, fix hint) rides in the tool's rule descriptors
so viewers can show the catalogue inline.

Only the schema subset reprolint needs is emitted, but that subset is
valid against the official 2.1.0 schema: ``version``, ``$schema``,
``runs[].tool.driver`` with ``rules``, and ``runs[].results`` with
``ruleId``/``message``/``locations``.  Cross-module findings attach their
call-path trace as a ``codeFlow``-free ``message`` suffix plus a
``properties.trace`` bag (stable for tooling, ignored by viewers that
don't know it).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from typing import Protocol

from repro.lint.base import Finding


class RuleLike(Protocol):
    """Anything carrying the reprolint rule metadata (per-file or project)."""

    code: str
    name: str
    rationale: str
    hint: str

#: The canonical 2.1.0 schema URI (embedded in every document).
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"

_TOOL_URI = "https://github.com/getreal-repro/repro/blob/main/docs/static-analysis.md"


def _rule_descriptor(rule: RuleLike) -> dict[str, object]:
    return {
        "id": rule.code,
        "name": rule.name,
        "shortDescription": {"text": rule.name},
        "fullDescription": {"text": rule.rationale or rule.name},
        "help": {"text": rule.hint or rule.rationale or rule.name},
        "helpUri": _TOOL_URI,
        "defaultConfiguration": {"level": "error"},
    }


def _result(finding: Finding) -> dict[str, object]:
    message = finding.message
    trace = finding.trace
    if trace:
        message = f"{message} [call path: {trace}]"
    result: dict[str, object] = {
        "ruleId": finding.code,
        "level": "error",
        "message": {"text": message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": max(finding.col, 1),
                    },
                }
            }
        ],
    }
    properties: dict[str, object] = {}
    if trace:
        properties["trace"] = trace
    if finding.hint:
        properties["hint"] = finding.hint
    if properties:
        result["properties"] = properties
    return result


def sarif_document(
    findings: Sequence[Finding],
    rules: Sequence[RuleLike],
) -> dict[str, object]:
    """The SARIF log as a plain dict (see :func:`format_sarif` for text)."""
    used_codes = {f.code for f in findings}
    descriptors = [_rule_descriptor(rule) for rule in rules]
    known_codes = {rule.code for rule in rules}
    # Synthesize descriptors for codes without a catalogue entry (RP999).
    for code in sorted(used_codes - known_codes):
        descriptors.append(
            {
                "id": code,
                "name": "parse-error" if code.startswith("RP99") else code,
                "shortDescription": {"text": code},
                "defaultConfiguration": {"level": "error"},
            }
        )
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "version": "2.0.0",
                        "informationUri": _TOOL_URI,
                        "rules": descriptors,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": [_result(f) for f in sorted(findings)],
            }
        ],
    }


def format_sarif(
    findings: Sequence[Finding],
    rules: Sequence[RuleLike],
) -> str:
    """Serialized SARIF 2.1.0 log for ``--format sarif``."""
    return json.dumps(sarif_document(findings, rules), indent=2)
