"""Incremental result cache and the analyze CLI contract.

Covers the digest-keyed per-file cache, the salt that ties cached
results to pass versions, the warm-run speedup acceptance gate, and
the CLI exit codes (0 clean / 1 violations / 2 internal or usage
error) including ``--changed``.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

from repro.lint import Analyzer
from repro.lint.cache import AnalysisCache
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tree(tmp_path, files):
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


class TestAnalysisCache:
    def test_store_then_lookup_hits(self, tmp_path):
        cache = AnalysisCache(tmp_path / "c.json", salt="s1")
        cache.store("mod.py", "digest-a", [(1, "REPRO003", "m", "mod.py")],
                    {}, [])
        entry = cache.lookup("mod.py", "digest-a")
        assert entry is not None
        assert entry["emissions"][0][1] == "REPRO003"

    def test_changed_digest_misses(self, tmp_path):
        cache = AnalysisCache(tmp_path / "c.json", salt="s1")
        cache.store("mod.py", "digest-a", [], {}, [])
        assert cache.lookup("mod.py", "digest-b") is None

    def test_salt_change_invalidates_everything(self, tmp_path):
        path = tmp_path / "c.json"
        cache = AnalysisCache(path, salt="s1")
        cache.store("mod.py", "digest-a", [], {}, [])
        cache.save()
        assert AnalysisCache(path, salt="s1").lookup(
            "mod.py", "digest-a") is not None
        assert AnalysisCache(path, salt="s2").lookup(
            "mod.py", "digest-a") is None

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        cache = AnalysisCache(path, salt="s1")
        assert cache.lookup("mod.py", "digest-a") is None

    def test_prune_drops_departed_files(self, tmp_path):
        cache = AnalysisCache(tmp_path / "c.json", salt="s1")
        cache.store("keep.py", "d", [], {}, [])
        cache.store("gone.py", "d", [], {}, [])
        cache.prune({"keep.py"})
        assert cache.lookup("keep.py", "d") is not None
        assert cache.lookup("gone.py", "d") is None


class TestIncrementalRuns:
    def _project(self, tmp_path):
        return _tree(tmp_path, {
            "src/repro/alpha.py": "x = 1\n",
            "src/repro/beta.py": "y = 2   \n",   # REPRO003
        })

    def test_warm_run_reparses_nothing_and_agrees(self, tmp_path):
        root = self._project(tmp_path)
        cache = root / "cache.json"
        cold = Analyzer(root, cache_path=cache).run()
        warm = Analyzer(root, cache_path=cache).run()
        assert cold.files_reparsed == 2 and warm.files_reparsed == 0
        assert [v.to_dict() for v in warm.violations] \
            == [v.to_dict() for v in cold.violations]

    def test_edited_file_is_the_only_per_file_reparse(self, tmp_path):
        # Project passes reparse the whole set when any digest moves,
        # so observe per-file incrementality with a per-file pass only.
        from repro.lint.passes.format import FormatPass
        root = self._project(tmp_path)
        cache = root / "cache.json"
        Analyzer(root, passes=[FormatPass()], cache_path=cache).run()
        (root / "src/repro/alpha.py").write_text("x = 3\n")
        rerun = Analyzer(root, passes=[FormatPass()],
                         cache_path=cache).run()
        assert rerun.files_reparsed == 1

    def test_any_edit_invalidates_the_project_digest(self, tmp_path):
        root = self._project(tmp_path)
        cache = root / "cache.json"
        Analyzer(root, cache_path=cache).run()
        (root / "src/repro/alpha.py").write_text("x = 3\n")
        rerun = Analyzer(root, cache_path=cache).run()
        # Project passes need every AST back, and the rerun still
        # reports the untouched file's finding.
        assert rerun.files_reparsed == 2
        assert [v.path for v in rerun.violations] == ["src/repro/beta.py"]

    def test_pass_version_bump_invalidates(self, tmp_path, monkeypatch):
        root = self._project(tmp_path)
        cache = root / "cache.json"
        Analyzer(root, cache_path=cache).run()
        from repro.lint.passes.format import FormatPass
        monkeypatch.setattr(FormatPass, "version", FormatPass.version + 1)
        rerun = Analyzer(root, cache_path=cache).run()
        assert rerun.files_reparsed == 2

    def test_directory_cache_path_uses_default_filename(self, tmp_path):
        root = self._project(tmp_path)
        Analyzer(root, cache_path=root).run()
        assert (root / ".repro-analysis-cache.json").exists()

    def test_warm_run_is_at_least_5x_faster_on_the_repo(self, tmp_path):
        """Acceptance: incremental re-analysis beats cold by >= 5x."""
        cache = tmp_path / "cache.json"
        start = time.perf_counter()
        cold = Analyzer(REPO_ROOT, cache_path=cache).run()
        cold_secs = time.perf_counter() - start
        start = time.perf_counter()
        warm = Analyzer(REPO_ROOT, cache_path=cache).run()
        warm_secs = time.perf_counter() - start
        assert warm.files_reparsed == 0
        assert warm.counts == cold.counts
        assert warm_secs * 5 <= cold_secs, \
            f"warm {warm_secs:.3f}s vs cold {cold_secs:.3f}s"


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

    def test_changed_without_git_exits_2(self, tmp_path, capsys):
        root = _tree(tmp_path, {"src/repro/fine.py": "x = 1\n"})
        assert main(["analyze", "--changed", "--root", str(root)]) == 2
        assert "--changed needs git" in capsys.readouterr().err

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


class TestChangedMode:
    def _git_root(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/stable.py": "a = 1   \n",   # pre-existing REPRO003
            "src/repro/edited.py": "b = 2\n",
        })
        env_git = ["git", "-C", str(root), "-c", "user.name=t",
                   "-c", "user.email=t@t"]
        subprocess.run(["git", "-C", str(root), "init", "-q"], check=True)
        subprocess.run(["git", "-C", str(root), "add", "-A"], check=True)
        subprocess.run(env_git + ["commit", "-qm", "seed"], check=True)
        return root

    def test_changed_scopes_findings_to_edited_files(self, tmp_path,
                                                     capsys):
        root = self._git_root(tmp_path)
        (root / "src/repro/edited.py").write_text("b = 3   \n")
        assert main(["analyze", "--changed", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "edited.py" in out and "stable.py" not in out

    def test_no_changes_exits_0_without_analyzing(self, tmp_path, capsys):
        root = self._git_root(tmp_path)
        assert main(["analyze", "--changed", "--root", str(root)]) == 0
        assert "no changed .py files" in capsys.readouterr().out
