"""Engine mechanics: parsing, suppressions, filtering, reporters, and
the ``repro analyze`` CLI contract (exit codes 0 clean / 1 violations /
2 internal or usage error; every run one cold pass)."""

import json
from pathlib import Path

import pytest

from repro.lint import (Analyzer, module_name, render_json, render_text,
                        report_from_json)
from repro.lint.engine import (CODE_BAD_SUPPRESSION,
                               CODE_UNUSED_SUPPRESSION, SourceFile,
                               parse_suppressions)
from repro.cli import main
from repro.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tree(tmp_path, files):
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


class TestModuleName:
    def test_src_resets_package_root(self, tmp_path):
        path = tmp_path / "src" / "repro" / "mem" / "device.py"
        assert module_name(path, tmp_path) == "repro.mem.device"

    def test_init_maps_to_package(self, tmp_path):
        path = tmp_path / "src" / "repro" / "core" / "__init__.py"
        assert module_name(path, tmp_path) == "repro.core"

    def test_plain_tree_keeps_all_parts(self, tmp_path):
        path = tmp_path / "repro" / "sim" / "system.py"
        assert module_name(path, tmp_path) == "repro.sim.system"


class TestSuppressions:
    def test_well_formed_comment_parses(self):
        text = "x = 1  # repro: suppress REPRO101, REPRO104 -- fixture\n"
        suppressed, problems, comments = parse_suppressions(text)
        assert suppressed == {1: {"REPRO101", "REPRO104"}}
        assert problems == []
        assert len(comments) == 1
        assert comments[0].codes == frozenset({"REPRO101", "REPRO104"})
        assert comments[0].justification == "fixture"

    def test_multiple_codes_cover_every_listed_rule(self):
        text = ("import os\n"
                "x = os.urandom(  # repro: suppress REPRO102, REPRO004,"
                " REPRO003 -- fixture\n"
                "    8)\n")
        suppressed, problems, _ = parse_suppressions(text)
        assert problems == []
        assert suppressed[2] == {"REPRO102", "REPRO004", "REPRO003"}

    def test_crlf_line_endings_parse_identically(self):
        unix = "x = 1  # repro: suppress REPRO101 -- fixture\n"
        dos = unix.replace("\n", "\r\n")
        assert parse_suppressions(dos)[0] == parse_suppressions(unix)[0]
        assert parse_suppressions(dos)[1] == []

    def test_comment_on_continuation_line_covers_statement_start(self):
        # The comment sits on line 3 of a parenthesized statement; the
        # suppression must also cover line 1, where statement-anchored
        # rules report, but not the unrelated line 4.
        text = ("value = call(\n"
                "    alpha,\n"
                "    beta,  # repro: suppress REPRO101 -- fixture\n"
                ")\n")
        suppressed, problems, comments = parse_suppressions(text)
        assert problems == []
        assert set(suppressed) == {1, 3}
        assert comments[0].lines == (1, 3)

    def test_missing_justification_is_a_problem(self):
        text = "x = 1  # repro: suppress REPRO101\n"
        suppressed, problems, _ = parse_suppressions(text)
        assert suppressed == {}
        assert len(problems) == 1 and "justification" in problems[0][1]

    def test_missing_codes_is_a_problem(self):
        _, problems, _ = parse_suppressions(
            "x = 1  # repro: suppress -- because\n")
        assert len(problems) == 1 and "no rule codes" in problems[0][1]

    def test_malformed_code_is_a_problem(self):
        _, problems, _ = parse_suppressions(
            "x = 1  # repro: suppress E501 -- because\n")
        assert len(problems) == 1 and "REPRO###" in problems[0][1]

    def test_suppression_inside_string_is_ignored(self):
        text = 'HELP = "write # repro: suppress REPRO101 on the line"\n'
        suppressed, problems, _ = parse_suppressions(text)
        assert suppressed == {} and problems == []

    def test_bad_suppression_surfaces_as_repro010(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1  # repro: suppress REPRO999x\n")
        report = Analyzer(tmp_path).run([bad])
        assert [v.code for v in report.violations] == [CODE_BAD_SUPPRESSION]

    def test_stale_suppression_surfaces_as_repro011(self, tmp_path):
        stale = tmp_path / "stale.py"
        stale.write_text(
            "x = 1  # repro: suppress REPRO003 -- nothing to suppress\n")
        report = Analyzer(tmp_path).run([stale])
        assert [v.code for v in report.violations] \
            == [CODE_UNUSED_SUPPRESSION]
        assert "REPRO003" in report.violations[0].message

    def test_used_suppression_is_not_stale(self, tmp_path):
        used = tmp_path / "used.py"
        used.write_text(
            "x = 1   # repro: suppress REPRO003 -- trailing space kept \n")
        report = Analyzer(tmp_path).run([used])
        assert report.ok and report.suppressed == 1

    def test_stale_check_skipped_under_select(self, tmp_path):
        # With an explicit select, most rules never ran, so "unused"
        # would be meaningless noise.
        stale = tmp_path / "stale.py"
        stale.write_text(
            "x = 1  # repro: suppress REPRO003 -- nothing to suppress\n")
        report = Analyzer(tmp_path, select="REPRO002").run([stale])
        assert report.ok


class TestSourceFile:
    def test_single_parse_and_metadata(self, tmp_path):
        path = tmp_path / "src" / "repro" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text("value = 1\n")
        source = SourceFile(path, tmp_path)
        assert source.module == "repro.mod"
        assert source.tree is not None and source.syntax_error is None
        assert source.ends_with_newline

    def test_syntax_error_recorded_not_raised(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        source = SourceFile(path, tmp_path)
        assert source.tree is None and source.syntax_error is not None
        report = Analyzer(tmp_path).run([path])
        assert any(v.code == "REPRO001" for v in report.violations)


class TestFiltering:
    def _tmp_with_tab(self, tmp_path):
        path = tmp_path / "mixed.py"
        path.write_text("x = '\t'\ny = 1   \n")
        return path

    def test_select_narrows_to_named_codes(self, tmp_path):
        path = self._tmp_with_tab(tmp_path)
        report = Analyzer(tmp_path, select="REPRO002").run([path])
        assert [v.code for v in report.violations] == ["REPRO002"]

    def test_ignore_drops_named_codes(self, tmp_path):
        path = self._tmp_with_tab(tmp_path)
        report = Analyzer(tmp_path, ignore="REPRO002").run([path])
        assert [v.code for v in report.violations] == ["REPRO003"]

    def test_fixture_tree_excluded_by_default(self):
        analyzer = Analyzer(REPO_ROOT)
        files = list(analyzer.python_files())
        assert files, "expected the repo's source roots to be found"
        assert not any("fixtures/analysis" in f.as_posix() for f in files)

    def test_explicitly_named_file_bypasses_excludes(self):
        fixture = REPO_ROOT / "tests" / "fixtures" / "analysis" \
            / "format_bad.py"
        report = Analyzer(REPO_ROOT).run([fixture])
        assert report.files_checked == 1 and not report.ok


class TestReporters:
    def _report(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("x = 1   \n")
        return Analyzer(tmp_path).run([path])

    def test_text_lines_are_clickable(self, tmp_path):
        report = self._report(tmp_path)
        text = render_text(report)
        assert "bad.py:1: REPRO003" in text
        assert "1 problem(s)" in text

    def test_clean_report_says_clean(self, tmp_path):
        (tmp_path / "fine.py").write_text("x = 1\n")
        report = Analyzer(tmp_path).run([tmp_path / "fine.py"])
        assert "1 file(s) clean" in render_text(report)

    def test_json_round_trip(self, tmp_path):
        report = self._report(tmp_path)
        document = json.loads(json.dumps(render_json(report)))
        rebuilt = report_from_json(document)
        assert rebuilt.files_checked == report.files_checked
        assert [v.to_dict() for v in rebuilt.violations] \
            == [v.to_dict() for v in report.violations]
        assert rebuilt.counts == report.counts

    def test_sarif_levels_and_rules(self, tmp_path):
        from repro.lint import render_sarif
        path = tmp_path / "bad.py"
        # REPRO003 (error) plus a stale suppression (REPRO011, advisory).
        path.write_text("x = 1   \n"
                        "y = 2  # repro: suppress REPRO002 -- unused\n")
        report = Analyzer(tmp_path).run([path])
        document = render_sarif(report)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analyze"
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels["REPRO003"] == "error"
        assert levels["REPRO011"] == "warning"
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rules == set(levels)
        location = run["results"][0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "bad.py"

    def test_json_version_mismatch_rejected(self, tmp_path):
        document = render_json(self._report(tmp_path))
        document["version"] = 999
        with pytest.raises(ConfigError):
            report_from_json(document)


class TestAnalyzeExitCodes:
    def test_clean_tree_exits_0(self, tmp_path, capsys):
        root = _tree(tmp_path, {"src/repro/fine.py": "x = 1\n"})
        assert main(["analyze", "--root", str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_1(self, tmp_path, capsys):
        root = _tree(tmp_path, {"src/repro/bad.py": "y = 2   \n"})
        assert main(["analyze", "--root", str(root)]) == 1
        assert "REPRO003" in capsys.readouterr().out

    def test_internal_error_exits_2(self, tmp_path, capsys, monkeypatch):
        root = _tree(tmp_path, {"src/repro/fine.py": "x = 1\n"})
        monkeypatch.setattr(Analyzer, "run",
                            lambda self, paths=None: 1 / 0)
        assert main(["analyze", "--root", str(root)]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_output_file_holds_the_report(self, tmp_path, capsys):
        root = _tree(tmp_path, {"src/repro/bad.py": "y = 2   \n"})
        out = tmp_path / "report.sarif"
        code = main(["analyze", "--root", str(root),
                     "--format", "sarif", "--output", str(out)])
        assert code == 1
        document = json.loads(out.read_text())
        assert document["version"] == "2.1.0"
        results = document["runs"][0]["results"]
        assert results and results[0]["ruleId"] == "REPRO003"


class TestColdRuns:
    """Every run parses every file and runs every pass afresh: no
    result outlives the run that computed it."""

    def test_rerun_reports_what_the_rules_say_now(self, tmp_path, capsys,
                                                  monkeypatch):
        from repro.lint.passes import format as format_pass
        root = _tree(tmp_path, {"src/repro/wide.py": "x = '" + "w" * 29
                                + "'\n"})     # 35 columns
        assert main(["analyze", "--root", str(root)]) == 0
        assert "1 file(s) clean" in capsys.readouterr().out
        monkeypatch.setattr(format_pass, "MAX_LINE", 20)
        assert main(["analyze", "--root", str(root)]) == 1
        assert "REPRO004 line too long (35 > 20)" in capsys.readouterr().out

    def test_run_writes_no_file_under_root(self, tmp_path, capsys):
        root = _tree(tmp_path, {"src/repro/fine.py": "x = 1\n",
                                "src/repro/bad.py": "y = 2   \n"})
        before = sorted(root.rglob("*"))
        assert main(["analyze", "--root", str(root)]) == 1
        assert sorted(root.rglob("*")) == before

    @pytest.mark.parametrize("flag", ["--no-cache", "--changed"])
    def test_retired_flags_are_usage_errors(self, tmp_path, capsys, flag):
        root = _tree(tmp_path, {"src/repro/fine.py": "x = 1\n"})
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", flag, "--root", str(root)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
