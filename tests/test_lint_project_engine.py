"""Engine, CLI, baseline-ratchet, and SARIF tests for the one reprolint engine."""

import ast
import json
import subprocess
from pathlib import Path

import pytest

from repro.lint.base import Finding
from repro.lint.cli import changed_files
from repro.lint.cli import main as lint_main
from repro.lint.engine import RULES, analyze_project, module_name_for
from repro.lint.project import apply_baseline, load_baseline, write_baseline
from repro.lint.project.baseline import BASELINE_VERSION
from repro.lint.project.facts import PARSE_ERROR_CODE
from repro.lint.sarif import SARIF_VERSION, sarif_document


def make_package(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "mypkg"
    root.mkdir()
    (root / "__init__.py").write_text("", encoding="utf-8")
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        if not (target.parent / "__init__.py").exists():
            (target.parent / "__init__.py").write_text("", encoding="utf-8")
        target.write_text(source, encoding="utf-8")
    return root


VIOLATION = (
    "class SpreadJob:\n"
    "    def run(self, generator):\n"
    "        return default_rng()\n"
)

#: A per-file rule violation (RP002 float equality, scoped to core/).
FILE_VIOLATION = "def f(x: float) -> bool:\n    return x == 0.0\n"


class TestModuleNameFor:
    def test_plain_module(self):
        root = Path("/repo/src/repro")
        path = Path("/repo/src/repro/exec/jobs.py")
        assert module_name_for(path, root, "repro") == "repro.exec.jobs"

    def test_init_is_the_package(self):
        root = Path("/repo/src/repro")
        path = Path("/repo/src/repro/exec/__init__.py")
        assert module_name_for(path, root, "repro") == "repro.exec"

    def test_top_level_init(self):
        root = Path("/repo/src/repro")
        path = Path("/repo/src/repro/__init__.py")
        assert module_name_for(path, root, "repro") == "repro"


class TestAnalyzeProject:
    def test_finds_cross_module_violation(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "util.py": "def helper():\n    return default_rng()\n",
                "jobs.py": (
                    "from mypkg.util import helper\n"
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        return helper()\n"
                ),
            },
        )
        report = analyze_project(root, jobs=1)
        assert report.modules_analyzed == 3
        codes = [f.code for f in report.findings]
        assert codes == ["RP010"]
        assert "mypkg.jobs:SpreadJob.run" in report.findings[0].trace

    def test_parse_error_becomes_rp999(self, tmp_path):
        root = make_package(tmp_path, {"broken.py": "def broken(:\n"})
        report = analyze_project(root, jobs=1)
        assert len(report.parse_errors) == 1
        assert report.parse_errors[0].code == PARSE_ERROR_CODE
        assert "broken.py" in report.parse_errors[0].path

    def test_unreadable_file_becomes_rp999(self, tmp_path):
        root = make_package(tmp_path, {"good.py": "x = 1\n"})
        # a directory named *.py is discovered but cannot be read as a file
        (root / "odd.py").mkdir()
        report = analyze_project(root, jobs=1)
        assert len(report.parse_errors) == 1
        assert "unreadable" in report.parse_errors[0].message

    def test_parallel_extraction_matches_serial(self, tmp_path):
        files = {
            f"mod{i}.py": f"def fn{i}():\n    return {i}\n" for i in range(20)
        }
        files["bad.py"] = VIOLATION
        root = make_package(tmp_path, files)
        serial = analyze_project(root, jobs=1)
        parallel = analyze_project(root, jobs=2)
        assert [f.as_dict() for f in serial.all_findings] == [
            f.as_dict() for f in parallel.all_findings
        ]

    def test_select_and_ignore(self, tmp_path):
        root = make_package(tmp_path, {"bad.py": VIOLATION})
        assert analyze_project(root, jobs=1, select=["RP010"]).findings
        assert not analyze_project(root, jobs=1, ignore=["RP010"]).findings

    def test_file_and_project_rules_report_together(self, tmp_path):
        root = make_package(
            tmp_path, {"bad.py": VIOLATION, "core/calc.py": FILE_VIOLATION}
        )
        report = analyze_project(root, jobs=1)
        assert [f.code for f in report.findings] == ["RP010", "RP002"]
        only_file = analyze_project(root, jobs=1, select=["RP002"])
        assert [f.code for f in only_file.findings] == ["RP002"]

    def test_one_suppression_filter_for_every_rule(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "bad.py": VIOLATION.replace(
                    "default_rng()", "default_rng()  # reprolint: disable=RP010"
                ),
                "core/calc.py": FILE_VIOLATION.replace(
                    "0.0", "0.0  # reprolint: disable=RP002"
                ),
            },
        )
        assert analyze_project(root, jobs=1).findings == []

    def test_each_file_is_parsed_once(self, tmp_path, monkeypatch):
        root = make_package(
            tmp_path, {"bad.py": VIOLATION, "core/calc.py": FILE_VIOLATION}
        )
        calls = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            calls.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        report = analyze_project(root, jobs=1)
        assert len(calls) == report.modules_analyzed == 4
        assert len(set(calls)) == len(calls)


class TestBaselineRatchet:
    def _finding(self, message: str) -> Finding:
        return Finding(
            path="src/x.py", line=3, col=1, code="RP010", message=message, hint=""
        )

    def test_round_trip(self, tmp_path):
        target = tmp_path / "baseline.json"
        findings = [self._finding("a"), self._finding("a"), self._finding("b")]
        write_baseline(target, findings)
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["version"] == BASELINE_VERSION
        baseline = load_baseline(target)
        assert baseline[("src/x.py", "RP010", "a")] == 2
        assert baseline[("src/x.py", "RP010", "b")] == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_malformed_file_raises(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed baseline"):
            load_baseline(target)

    def test_new_finding_not_accepted(self, tmp_path):
        target = tmp_path / "baseline.json"
        write_baseline(target, [self._finding("old")])
        baseline = load_baseline(target)
        new, accepted, stale = apply_baseline(
            [self._finding("old"), self._finding("fresh")], baseline
        )
        assert [f.message for f in new] == ["fresh"]
        assert [f.message for f in accepted] == ["old"]
        assert stale == []

    def test_fixed_finding_goes_stale(self, tmp_path):
        target = tmp_path / "baseline.json"
        write_baseline(target, [self._finding("old")])
        new, accepted, stale = apply_baseline([], load_baseline(target))
        assert new == [] and accepted == []
        assert stale == [("src/x.py", "RP010", "old")]

    def test_duplicate_counts_ratchet(self, tmp_path):
        target = tmp_path / "baseline.json"
        write_baseline(target, [self._finding("a"), self._finding("a")])
        findings = [self._finding("a")] * 3
        new, accepted, stale = apply_baseline(findings, load_baseline(target))
        assert len(accepted) == 2 and len(new) == 1 and stale == []


class TestSarif:
    def _document(self, tmp_path):
        root = make_package(
            tmp_path, {"bad.py": VIOLATION, "broken.py": "def broken(:\n"}
        )
        report = analyze_project(root, jobs=1)
        return sarif_document(report.all_findings, RULES)

    def test_structure_is_valid_2_1_0(self, tmp_path):
        document = self._document(tmp_path)
        assert document["version"] == SARIF_VERSION
        assert "sarif-schema-2.1.0" in document["$schema"]
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert len(rule_ids) == len(set(rule_ids))
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert result["message"]["text"]
            (location,) = result["locations"]
            region = location["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert location["physicalLocation"]["artifactLocation"]["uri"]

    def test_parse_error_rule_synthesized(self, tmp_path):
        document = self._document(tmp_path)
        driver = document["runs"][0]["tool"]["driver"]
        assert PARSE_ERROR_CODE in {r["id"] for r in driver["rules"]}

    def test_trace_in_properties(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "util.py": "def helper():\n    return default_rng()\n",
                "jobs.py": (
                    "from mypkg.util import helper\n"
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        return helper()\n"
                ),
            },
        )
        report = analyze_project(root, jobs=1)
        document = sarif_document(report.all_findings, RULES)
        (result,) = document["runs"][0]["results"]
        assert "SpreadJob.run" in result["properties"]["trace"]
        assert "call path" in result["message"]["text"]

    def test_document_is_json_serializable(self, tmp_path):
        document = self._document(tmp_path)
        assert json.loads(json.dumps(document)) == document


class TestProjectCli:
    def test_clean_package_exits_zero(self, tmp_path, capsys):
        root = make_package(tmp_path, {"ok.py": "def fn():\n    return 1\n"})
        assert lint_main([str(root)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = make_package(tmp_path, {"bad.py": VIOLATION})
        assert lint_main([str(root)]) == 1
        assert "RP010" in capsys.readouterr().out

    def test_parse_error_exits_one(self, tmp_path, capsys):
        root = make_package(tmp_path, {"broken.py": "def broken(:\n"})
        assert lint_main([str(root)]) == 1
        assert PARSE_ERROR_CODE in capsys.readouterr().out

    def test_unknown_code_is_usage_error(self, tmp_path, capsys):
        root = make_package(tmp_path, {"ok.py": "x = 1\n"})
        assert lint_main(["--select", "RP777", str(root)]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_baseline_gate_lifecycle(self, tmp_path, capsys):
        root = make_package(tmp_path, {"bad.py": VIOLATION})
        baseline = tmp_path / "baseline.json"
        args = ["--baseline", str(baseline), str(root)]
        # 1. unbaselined violation fails
        assert lint_main(args) == 1
        # 2. snapshot it
        assert lint_main([*args, "--update-baseline"]) == 0
        # 3. same violation now accepted
        assert lint_main(args) == 0
        capsys.readouterr()
        # 4. fixing the violation leaves a stale entry -> still fails
        (root / "bad.py").write_text(
            "class SpreadJob:\n"
            "    def run(self, generator):\n"
            "        return generator.random()\n",
            encoding="utf-8",
        )
        assert lint_main(args) == 1
        assert "stale baseline entry" in capsys.readouterr().err
        # 5. ratchet forward -> clean again
        assert lint_main([*args, "--update-baseline"]) == 0
        assert lint_main(args) == 0

    def test_show_baselined(self, tmp_path, capsys):
        root = make_package(tmp_path, {"bad.py": VIOLATION})
        baseline = tmp_path / "baseline.json"
        args = ["--baseline", str(baseline), str(root)]
        lint_main([*args, "--update-baseline"])
        capsys.readouterr()
        assert lint_main([*args, "--show-baselined"]) == 0
        assert "RP010" in capsys.readouterr().out

    def test_sarif_output(self, tmp_path, capsys):
        root = make_package(tmp_path, {"bad.py": VIOLATION})
        assert lint_main(["--format", "sarif", str(root)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == SARIF_VERSION

    def test_parse_errors_never_baselined(self, tmp_path, capsys):
        root = make_package(tmp_path, {"broken.py": "def broken(:\n"})
        baseline = tmp_path / "baseline.json"
        args = ["--baseline", str(baseline), str(root)]
        assert lint_main([*args, "--update-baseline"]) == 1
        assert json.loads(baseline.read_text(encoding="utf-8"))["entries"] == []
        assert lint_main(args) == 1

    def test_file_rule_findings_are_baselined(self, tmp_path, capsys):
        root = make_package(tmp_path, {"core/calc.py": FILE_VIOLATION})
        baseline = tmp_path / "baseline.json"
        args = ["--baseline", str(baseline), str(root)]
        assert lint_main(args) == 1
        assert lint_main([*args, "--update-baseline"]) == 0
        assert lint_main(args) == 0

    def test_list_rules_includes_project_catalogue(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RP001", "RP010", "RP015"):
            assert code in out


class TestPerFileCli:
    """Per-file diagnostics (RP999) through the one CLI path."""

    def test_unreadable_file_exits_one_with_diagnostic(self, tmp_path, capsys):
        target = tmp_path / "odd.py"
        target.mkdir()  # directory discovered as a .py path
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert PARSE_ERROR_CODE in out and "unreadable" in out

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == 1
        assert PARSE_ERROR_CODE in capsys.readouterr().out

    def test_sarif_format_in_per_file_mode(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        assert lint_main(["--format", "sarif", str(tmp_path)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["results"][0]["ruleId"] == PARSE_ERROR_CODE


class TestChangedOnly:
    def _git(self, cwd, *args):
        subprocess.run(
            [
                "git",
                "-c",
                "user.email=t@example.com",
                "-c",
                "user.name=t",
                *args,
            ],
            cwd=cwd,
            check=True,
            capture_output=True,
        )

    def test_changed_files_in_fresh_repo(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        tracked = tmp_path / "tracked.py"
        tracked.write_text("x = 1\n", encoding="utf-8")
        self._git(tmp_path, "add", "tracked.py")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        tracked.write_text("x = 2\n", encoding="utf-8")
        (tmp_path / "fresh.py").write_text("y = 1\n", encoding="utf-8")
        changed = changed_files(cwd=tmp_path)
        assert changed is not None
        assert tracked.resolve() in changed
        assert (tmp_path / "fresh.py").resolve() in changed

    def test_outside_git_returns_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nope"))
        assert changed_files(cwd=tmp_path) is None

    def test_cli_reports_nothing_for_unchanged_paths(
        self, tmp_path, capsys, monkeypatch
    ):
        root = make_package(tmp_path, {"bad.py": VIOLATION})
        monkeypatch.setattr(
            "repro.lint.cli.changed_files", lambda cwd=None: set()
        )
        assert lint_main(["--changed-only", str(root)]) == 0

    def test_cli_keeps_findings_in_changed_files(
        self, tmp_path, capsys, monkeypatch
    ):
        root = make_package(tmp_path, {"bad.py": VIOLATION})
        monkeypatch.setattr(
            "repro.lint.cli.changed_files",
            lambda cwd=None: {(root / "bad.py").resolve()},
        )
        assert lint_main(["--changed-only", str(root)]) == 1

    def test_baseline_judged_on_whole_package(self, tmp_path, capsys, monkeypatch):
        root = make_package(tmp_path, {"a.py": VIOLATION, "b.py": VIOLATION})
        baseline = tmp_path / "baseline.json"
        args = ["--baseline", str(baseline), str(root)]
        assert lint_main([*args, "--update-baseline"]) == 0
        monkeypatch.setattr(
            "repro.lint.cli.changed_files",
            lambda cwd=None: {(root / "a.py").resolve()},
        )
        # b.py's accepted finding is neither stale nor dropped from the
        # baseline when only a.py changed.
        assert lint_main([*args, "--changed-only"]) == 0
        assert lint_main([*args, "--changed-only", "--update-baseline"]) == 0
        assert len(json.loads(baseline.read_text(encoding="utf-8"))["entries"]) == 2
        assert "stale" not in capsys.readouterr().err
