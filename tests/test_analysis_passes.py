"""The pass families, driven through the known-bad fixture tree.

Every family has a bad fixture whose rules must fire and a suppressed
twin that must come back clean (violations converted to suppressions),
plus the repo-wide gate: the analyzer must be clean on this repository.
"""

from pathlib import Path

from repro.lint import Analyzer, builtin_passes, rule_catalog

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"


def run_fixture(name, select):
    """Analyze one fixture file with one family's codes selected."""
    analyzer = Analyzer(FIXTURES, select=select, exclude=())
    return analyzer.run([FIXTURES / name])


def fired(report):
    return sorted({violation.code for violation in report.violations})


FORMAT = "REPRO001,REPRO002,REPRO003,REPRO004,REPRO005"
DETERMINISM = "REPRO101,REPRO102,REPRO103,REPRO104"
LAYERING = "REPRO201,REPRO202,REPRO203"
SHRED = "REPRO301,REPRO302,REPRO303"
METRICS = "REPRO401"
METRICS_DYN = "REPRO401,REPRO402"
CONCURRENCY = "REPRO501"
RACES = "REPRO511,REPRO512"
WIRE = "REPRO601,REPRO602,REPRO603"
TAINT = "REPRO111,REPRO112"


class TestFormatFamily:
    def test_bad_fixture_fires(self):
        report = run_fixture("format_bad.py", FORMAT)
        assert fired(report) == ["REPRO002", "REPRO003", "REPRO004",
                                 "REPRO005"]

    def test_suppressed_twin_is_clean(self):
        report = run_fixture("format_ok.py", FORMAT)
        assert report.ok and report.suppressed >= 4


class TestDeterminismFamily:
    def test_bad_fixture_fires(self):
        report = run_fixture("repro/sim/det_bad.py", DETERMINISM)
        assert fired(report) == ["REPRO101", "REPRO102", "REPRO103",
                                 "REPRO104"]

    def test_suppressed_twin_is_clean(self):
        report = run_fixture("repro/sim/det_ok.py", DETERMINISM)
        assert report.ok and report.suppressed >= 4


class TestLayeringFamily:
    def test_bad_fixture_fires(self):
        report = run_fixture("repro/mem/layer_bad.py", LAYERING)
        assert fired(report) == ["REPRO201", "REPRO202"]

    def test_suppressed_twin_is_clean(self):
        report = run_fixture("repro/mem/layer_ok.py", LAYERING)
        assert report.ok and report.suppressed >= 2

    def test_local_import_bad_fixture_fires(self):
        report = run_fixture("repro/sim/local_import_bad.py", LAYERING)
        assert fired(report) == ["REPRO203"]
        # exec and cli laundered; TYPE_CHECKING and downward are exempt.
        assert len(report.violations) == 2

    def test_local_import_suppressed_twin_is_clean(self):
        report = run_fixture("repro/sim/local_import_ok.py", LAYERING)
        assert report.ok and report.suppressed == 1

    def test_import_graph_cli(self, capsys):
        from repro.cli import main
        assert main(["analyze", "--import-graph", "dot",
                     str(REPO_ROOT / "src" / "repro" / "sim")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph repro_imports {")
        assert '"repro.sim" -> "repro.core"' in out

    def test_import_graph_renders_dot(self):
        from repro.lint.passes.layering import render_import_graph
        analyzer = Analyzer(REPO_ROOT)
        dot = render_import_graph(
            analyzer.source_files([REPO_ROOT / "src" / "repro"]))
        assert dot.startswith("digraph repro_imports {")
        assert dot.rstrip().endswith("}")
        assert '"repro.core" -> "repro.cache"' in dot
        # The suppressed config->serialization local edge shows up
        # dashed+red.
        assert ('"repro.config" -> "repro.serialization" '
                "[style=dashed, color=red, penwidth=2];") in dot
        # No *module-level* upward (solid red) edges exist in the tree.
        for line in dot.splitlines():
            if "color=red" in line:
                assert "style=dashed" in line


class TestShredFamily:
    def test_bad_fixture_fires_outside_seam(self):
        report = run_fixture("repro/kernel/shred_bad.py", SHRED)
        assert fired(report) == ["REPRO301", "REPRO303"]

    def test_bare_zero_inside_seam_fires(self):
        report = run_fixture("repro/core/iv.py", SHRED)
        assert fired(report) == ["REPRO302"]
        assert report.suppressed == 1   # the justified twin in the file

    def test_suppressed_twin_is_clean(self):
        report = run_fixture("repro/kernel/shred_ok.py", SHRED)
        assert report.ok and report.suppressed >= 2


class TestMetricsFamily:
    def test_bad_fixture_fires(self):
        report = run_fixture("repro/sim/metrics_bad.py", METRICS)
        assert fired(report) == ["REPRO401"]
        assert len(report.violations) == 3   # two names + one prefix kwarg

    def test_suppressed_twin_is_clean(self):
        report = run_fixture("repro/sim/metrics_ok.py", METRICS)
        assert report.ok and report.suppressed == 1


class TestConcurrencyFamily:
    def test_bad_fixture_fires(self):
        report = run_fixture("repro/exec/conc_bad.py", CONCURRENCY)
        assert fired(report) == ["REPRO501"]
        assert len(report.violations) == 2   # both unguarded globals

    def test_suppressed_twin_is_clean(self):
        report = run_fixture("repro/exec/conc_ok.py", CONCURRENCY)
        assert report.ok and report.suppressed == 1


class TestMetricsDynamicNames:
    def test_bad_fixture_fires(self):
        report = run_fixture("repro/sim/metrics_dyn_bad.py", METRICS_DYN)
        assert fired(report) == ["REPRO401", "REPRO402"]
        # Loop binding resolved to the drifted name; two advisories.
        assert len(report.violations) == 3
        resolved = [v for v in report.violations if v.code == "REPRO401"]
        assert "bogus.prefix.count" in resolved[0].message

    def test_suppressed_twin_is_clean(self):
        report = run_fixture("repro/sim/metrics_dyn_ok.py", METRICS_DYN)
        assert report.ok and report.suppressed == 1


class TestRacesFamily:
    def test_bad_fixture_fires(self):
        report = run_fixture("repro/exec/races_bad.py", RACES)
        assert fired(report) == ["REPRO511", "REPRO512"]
        outlier = [v for v in report.violations if v.code == "REPRO511"]
        assert "2 of 3 write sites" in outlier[0].message

    def test_suppressed_twin_is_clean(self):
        report = run_fixture("repro/exec/races_ok.py", RACES)
        assert report.ok and report.suppressed >= 2


class TestWireSchemaFamily:
    def test_bad_fixture_fires(self):
        report = run_fixture("repro/exec/wire_bad.py", WIRE)
        assert fired(report) == ["REPRO601", "REPRO602", "REPRO603"]

    def test_suppressed_twin_is_clean(self):
        report = run_fixture("repro/exec/wire_ok.py", WIRE)
        assert report.ok and report.suppressed >= 3

    def test_incomplete_universe_skips_cross_file_rules(self):
        # CI smoke jobs analyze subsets of the real protocol modules;
        # the completeness gate must not claim missing readers/writers
        # when it cannot see the whole conversation.
        analyzer = Analyzer(REPO_ROOT, select=WIRE)
        report = analyzer.run([
            REPO_ROOT / "src" / "repro" / "exec" / "wire.py",
            REPO_ROOT / "src" / "repro" / "exec" / "cluster.py",
        ])
        assert {v.code for v in report.violations} <= {"REPRO603"}


class TestTaintFamily:
    def test_bad_fixture_fires(self):
        report = run_fixture("repro/sim/taint_bad.py", TAINT)
        assert fired(report) == ["REPRO111", "REPRO112"]
        # Interprocedural: the source is inside _stamp(), two hops away.
        flagged = [v for v in report.violations if v.code == "REPRO111"]
        assert any("time.time()" in v.message for v in flagged)
        # clean() takes injected values — flow-aware, so not flagged.
        assert all(v.line < 39 for v in report.violations)

    def test_suppressed_twin_is_clean(self):
        report = run_fixture("repro/sim/taint_ok.py", TAINT)
        assert report.ok and report.suppressed >= 3


class TestRepoGate:
    def test_repository_is_analyzer_clean(self):
        """The shipped tree passes its own checker (tools/analyze.py)."""
        report = Analyzer(REPO_ROOT).run()
        assert report.violations == [], "\n".join(
            violation.render() for violation in report.violations)
        assert report.files_checked > 100


class TestCatalog:
    def test_every_pass_code_is_catalogued(self):
        catalog = rule_catalog()
        for analysis_pass in builtin_passes():
            for code in analysis_pass.codes:
                assert code in catalog
                assert catalog[code]["pass"] == analysis_pass.name

    def test_codes_are_unique_across_families(self):
        seen = {}
        for analysis_pass in builtin_passes():
            for code in analysis_pass.codes:
                assert seen.setdefault(code, analysis_pass.name) \
                    == analysis_pass.name
        assert "REPRO010" in rule_catalog()
