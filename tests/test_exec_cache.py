"""The persistent result cache: hits, misses, invalidation, corruption."""

import json

import pytest

from repro.exec import (ResultCache, default_cache, default_cache_dir,
                        spec_experiment)
from repro.sim.system import SystemReport


def tiny_report(**overrides):
    fields = dict(name="r", shredder=False, instructions=100, cycles=50.0,
                  ipc=2.0, memory_reads=7, memory_writes=3)
    fields.update(overrides)
    report = SystemReport(**fields)
    report.extra["counter_hits"] = 1.0
    return report


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", salt="test-salt")


@pytest.fixture
def experiment():
    return spec_experiment("GCC", cores=1, scale=0.1)


class TestHitMiss:
    def test_miss_then_hit(self, cache, experiment):
        assert cache.get(experiment) is None
        assert cache.stats.misses == 1
        report = tiny_report()
        cache.put(experiment, report)
        assert cache.get(experiment) == report
        assert cache.stats.memory_hits == 1
        assert experiment in cache
        assert len(cache) == 1

    def test_disk_round_trip(self, cache, experiment, tmp_path):
        cache.put(experiment, tiny_report())
        # A fresh instance has an empty memory layer: must hit disk.
        fresh = ResultCache(cache.directory, salt="test-salt")
        restored = fresh.get(experiment)
        assert restored == tiny_report()
        assert fresh.stats.disk_hits == 1
        assert isinstance(restored.extra, dict)

    def test_salt_partitions_entries(self, cache, experiment):
        cache.put(experiment, tiny_report())
        other = ResultCache(cache.directory, salt="other-salt")
        assert other.get(experiment) is None

    def test_name_does_not_partition(self, cache, experiment):
        cache.put(experiment, tiny_report())
        relabelled = experiment.with_updates(name="different-label")
        assert cache.get(relabelled) is not None


class TestInvalidation:
    def test_invalidate_one(self, cache, experiment):
        other = experiment.with_updates(policy="increment-major")
        cache.put(experiment, tiny_report())
        cache.put(other, tiny_report(name="other"))
        cache.invalidate(experiment)
        assert cache.get(experiment) is None
        assert cache.get(other) is not None

    def test_clear_all(self, cache, experiment):
        cache.put(experiment, tiny_report())
        cache.invalidate()
        assert len(cache) == 0
        assert cache.get(experiment) is None

    def test_clear_memory_keeps_disk(self, cache, experiment):
        cache.put(experiment, tiny_report())
        cache.clear_memory()
        assert cache.get(experiment) is not None
        assert cache.stats.disk_hits == 1


class TestCorruption:
    def test_malformed_json_is_a_miss_and_removed(self, cache, experiment):
        cache.put(experiment, tiny_report())
        path = cache.path(experiment)
        path.write_text("{truncated garbage")
        cache.clear_memory()
        assert cache.get(experiment) is None
        assert cache.stats.corrupt_entries == 1
        assert not path.exists()

    def test_wrong_format_version_is_a_miss(self, cache, experiment):
        cache.put(experiment, tiny_report())
        path = cache.path(experiment)
        document = json.loads(path.read_text())
        document["format"] = 99
        path.write_text(json.dumps(document))
        cache.clear_memory()
        assert cache.get(experiment) is None

    def test_missing_result_key_is_a_miss(self, cache, experiment):
        path = cache.path(experiment)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"format": 1}))
        assert cache.get(experiment) is None

    def test_corrupted_entry_recovers_by_rerunning(self, cache):
        """End to end: a corrupt file must fall back to re-execution."""
        from repro.exec import Runner
        experiment = spec_experiment("GCC", cores=1, scale=0.1)
        runner = Runner(cache=cache)
        first = runner.run([experiment])[0]
        cache.path(experiment).write_text("not json at all")
        cache.clear_memory()
        second = Runner(cache=cache).run([experiment])[0]
        assert second == first
        assert cache.get(experiment) == first


class TestSweep:
    def populate(self, cache, count, base_time=1_000_000.0):
        """Write ``count`` entries with strictly increasing mtimes."""
        import os
        experiments = []
        for i in range(count):
            experiment = spec_experiment("GCC", cores=1, scale=0.1 + i * 0.01)
            cache.put(experiment, tiny_report(name=f"r{i}"))
            path = cache.path(experiment)
            os.utime(path, (base_time + i, base_time + i))
            experiments.append(experiment)
        return experiments

    def entry_size(self, cache, experiment):
        return cache.path(experiment).stat().st_size

    def test_no_bounds_reports_only(self, cache):
        self.populate(cache, 3)
        result = cache.sweep()
        assert result.examined == 3
        assert result.removed == 0
        assert result.kept == 3
        assert len(cache) == 3

    def test_max_bytes_keeps_newest(self, cache):
        experiments = self.populate(cache, 4)
        budget = self.entry_size(cache, experiments[3]) \
            + self.entry_size(cache, experiments[2])
        result = cache.sweep(max_bytes=budget)
        assert result.removed == 2
        assert result.kept == 2
        # The two *newest* entries survive.
        assert cache.get(experiments[3]) is not None
        assert cache.get(experiments[2]) is not None
        assert cache.get(experiments[0]) is None
        assert cache.get(experiments[1]) is None

    def test_max_age_drops_old_entries(self, cache):
        experiments = self.populate(cache, 3, base_time=1_000_000.0)
        two_days = 2 * 86400.0
        result = cache.sweep(max_age_days=1.0,
                             now=1_000_000.0 + 1 + two_days)
        # Entries at t, t+1, t+2 against a cutoff of t+1+day... all of
        # them are older than one day relative to `now`.
        assert result.removed == 3
        assert len(cache) == 0

    def test_max_age_keeps_young_entries(self, cache):
        experiments = self.populate(cache, 3, base_time=1_000_000.0)
        result = cache.sweep(max_age_days=1.0, now=1_000_000.0 + 2 + 3600)
        assert result.removed == 0
        assert all(cache.get(e) is not None for e in experiments)

    def test_sweep_evicts_memory_layer_too(self, cache):
        experiments = self.populate(cache, 2)
        assert cache.sweep(max_bytes=0).removed == 2
        # No disk entry AND no stale memory entry.
        assert cache.get(experiments[0]) is None
        assert cache.stats.memory_hits == 0

    def test_combined_bounds(self, cache):
        experiments = self.populate(cache, 4, base_time=1_000_000.0)
        size = self.entry_size(cache, experiments[0])
        result = cache.sweep(max_bytes=3 * size, max_age_days=1.0,
                             now=1_000_000.0 + 2 + 86400.0)
        # Age kills entries 0 and 1; size alone would have kept 3.
        assert result.removed == 2
        assert cache.get(experiments[3]) is not None
        assert cache.get(experiments[0]) is None

    def test_sweep_result_describe(self, cache):
        self.populate(cache, 2)
        text = cache.sweep(max_bytes=0).describe()
        assert "swept 2 of 2 entries" in text


class TestDirectoryResolution:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        assert default_cache().directory == tmp_path / "custom"

    def test_default_cache_follows_env_changes(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        first = default_cache()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        second = default_cache()
        assert first.directory != second.directory

    def test_repo_local_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        (tmp_path / "pyproject.toml").write_text("")
        monkeypatch.chdir(tmp_path)
        assert default_cache_dir() == tmp_path / ".repro-cache"

    def test_home_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.chdir(tmp_path)
        assert default_cache_dir() == tmp_path / "xdg" / "repro"
