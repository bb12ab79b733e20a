"""Engine, CLI, and self-check tests for reprolint."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.base import Finding
from repro.lint.cli import main as lint_main
from repro.lint.engine import (
    JSON_SCHEMA_VERSION,
    analyze_project,
    format_findings,
    format_json,
    lint_source,
)
from repro.lint.project.facts import PARSE_ERROR_CODE, module_parts, parse_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


class TestModuleParts:
    def test_strips_src_repro_prefix(self):
        path = Path("src/repro/cascade/competitive.py")
        assert module_parts(path) == ("cascade", "competitive.py")

    def test_absolute_installed_layout(self):
        path = Path("/site-packages/repro/game/mixed.py")
        assert module_parts(path) == ("game", "mixed.py")

    def test_paths_outside_package_keep_parts(self):
        assert module_parts(Path("game/fixture.py")) == ("game", "fixture.py")


class TestSuppressions:
    def test_specific_codes(self):
        sup = parse_suppressions("x = 1  # reprolint: disable=RP001,RP004\n")
        assert sup == {1: {"RP001", "RP004"}}

    def test_blanket_disable(self):
        sup = parse_suppressions("x = 1  # reprolint: disable\n")
        assert sup == {1: None}

    def test_blanket_disable_silences_all_rules(self):
        found = lint_source(
            "def f(graph, k):  # reprolint: disable\n"
            "    return graph == 0.0  # reprolint: disable\n",
            "core/x.py",
        )
        assert found == []

    def test_suppression_is_line_scoped(self):
        found = lint_source(
            "def f(graph, k):  # reprolint: disable\n"
            "    return graph == 0.0\n",
            "core/x.py",
        )
        assert [f.code for f in found] == ["RP002"]

    def test_unrelated_code_not_suppressed(self):
        found = lint_source(
            "def f(x):  # reprolint: disable=RP001\n    return x\n",
            "core/x.py",
            select=["RP005"],
        )
        assert [f.code for f in found] == ["RP005"]


class TestLintSource:
    def test_syntax_error_yields_parse_finding(self):
        found = lint_source("def broken(:\n", "core/x.py")
        assert [f.code for f in found] == [PARSE_ERROR_CODE]

    def test_unknown_select_code_raises(self):
        with pytest.raises(ValueError, match="RP042"):
            lint_source("x = 1\n", "core/x.py", select=["RP042"])

    def test_ignore_removes_rule(self):
        source = "def f(x):\n    return x == 0.0\n"
        assert {f.code for f in lint_source(source, "core/x.py")} == {
            "RP002",
            "RP005",
        }
        assert {f.code for f in lint_source(source, "core/x.py", ignore=["RP002"])} == {
            "RP005"
        }

    def test_findings_sorted_by_location(self):
        source = (
            "def a(x):\n    return x\n\n"
            "def b(y):\n    return y\n"
        )
        found = lint_source(source, "core/x.py", select=["RP005"])
        assert [f.line for f in found] == [1, 4]


class TestLintPaths:
    def test_directory_walk_and_scoping(self, tmp_path):
        game = tmp_path / "game"
        game.mkdir()
        (game / "bad.py").write_text("def f(x):\n    return x == 0.0\n")
        (tmp_path / "free.py").write_text("def f(x):\n    return x == 0.0\n")
        found = analyze_project(tmp_path, select=["RP002"], jobs=1).findings
        assert len(found) == 1
        assert found[0].path.endswith("bad.py")

    def test_single_file(self, tmp_path, capsys):
        """A file is not a package root: the one CLI path refuses it."""
        target = tmp_path / "core"
        target.mkdir()
        snippet = target / "x.py"
        snippet.write_text("def f(x):\n    return x\n")
        assert lint_main([str(snippet)]) == 2
        assert "one package directory" in capsys.readouterr().err

    def test_several_roots_are_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([str(tmp_path), str(tmp_path)])
        assert excinfo.value.code == 2

    def test_project_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--project", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --project" in capsys.readouterr().err


class TestOutputFormats:
    FINDINGS = [
        Finding(
            path="core/x.py",
            line=3,
            col=5,
            code="RP002",
            message="exact float == comparison",
            hint="use nearly_zero",
        )
    ]

    def test_human_format_contains_location_and_hint(self):
        text = format_findings(self.FINDINGS)
        assert "core/x.py:3:5: RP002 exact float == comparison" in text
        assert "hint: use nearly_zero" in text
        assert "1 finding(s)" in text

    def test_human_format_clean(self):
        assert format_findings([]) == "reprolint: no findings"

    def test_json_schema(self):
        document = json.loads(format_json(self.FINDINGS))
        assert document["version"] == JSON_SCHEMA_VERSION
        assert set(document) == {"version", "findings", "summary"}
        (finding,) = document["findings"]
        assert set(finding) == {"path", "line", "col", "code", "message", "hint"}
        assert finding["line"] == 3
        assert finding["code"] == "RP002"
        summary = document["summary"]
        assert summary["total"] == 1
        assert summary["by_code"] == {"RP002": 1}
        assert summary["files"] == 1

    def test_json_empty_document(self):
        document = json.loads(format_json([]))
        assert document["findings"] == []
        assert document["summary"]["total"] == 0


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        target = tmp_path / "core"
        target.mkdir()
        (target / "ok.py").write_text("def f(x: int) -> int:\n    return x\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        target = tmp_path / "core"
        target.mkdir()
        (target / "bad.py").write_text("def f(x):\n    return x\n")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RP005" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nowhere")]) == 2

    def test_exit_two_on_unknown_code(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "RP042"]) == 2

    def test_json_flag(self, tmp_path, capsys):
        target = tmp_path / "core"
        target.mkdir()
        (target / "bad.py").write_text("def f(x):\n    return x\n")
        assert lint_main([str(tmp_path), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["by_code"] == {"RP005": 1}

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("RP")]
        assert listed == [f"RP{n:03d}" for n in range(1, 18)]


class TestSelfCheck:
    def test_src_tree_is_clean(self):
        """The library passes every rule of its own linter (the baseline is empty)."""
        findings = analyze_project(SRC / "repro", jobs=2).all_findings
        assert findings == [], format_findings(findings)

    def test_module_entry_point(self):
        """``python -m repro lint src`` exits 0 on the shipped tree."""
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(SRC)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_tools_reprolint_entry_point(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "reprolint"), str(SRC)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
