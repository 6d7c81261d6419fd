"""The analysis layer: figure builders and table rendering."""

from dataclasses import replace

import pytest

from repro.analysis import (ablation_policies, fig12_counter_cache_sweep,
                            fig4_memset, fig5_zeroing_writes, render_table,
                            table2_mechanisms)
from repro.analysis.figures import study_summary, fig8_to_11_study
from repro.config import KB, bench_config
from repro.exec.cache import default_cache


@pytest.fixture(autouse=True)
def fresh_memory_cache():
    default_cache().clear_memory()
    yield
    default_cache().clear_memory()


SMALL = dict(config=None)


class TestFig4:
    def test_rows_and_monotonicity(self):
        rows = fig4_memset([256 * 1024, 512 * 1024])
        assert len(rows) == 2
        assert rows[1]["first_memset_ns"] > rows[0]["first_memset_ns"]
        for row in rows:
            assert row["first_memset_ns"] > row["second_memset_ns"]
            assert 0 < row["kernel_fraction"] < 1


class TestFig5:
    def test_each_config_gets_its_own_rows(self):
        config = bench_config()
        big_pages = replace(config, kernel=replace(config.kernel,
                                                   page_size=8 * KB))
        rows = fig5_zeroing_writes(["PAGERANK"], num_nodes=200,
                                   config=config)
        big_rows = fig5_zeroing_writes(["PAGERANK"], num_nodes=200,
                                       config=big_pages)
        assert big_rows[0]["writes_temporal"] != rows[0]["writes_temporal"]
        assert fig5_zeroing_writes(["PAGERANK"], num_nodes=200,
                                   config=config) == rows


class TestStudy:
    def test_small_study_shapes(self):
        results = fig8_to_11_study(benchmarks=["H264", "LBM"], scale=0.3,
                                   cores=2)
        assert [r.workload for r in results] == ["H264", "LBM"]
        by_name = {r.workload: r for r in results}
        assert by_name["H264"].write_savings > by_name["LBM"].write_savings
        for result in results:
            assert result.read_speedup > 1.0
            assert result.relative_ipc > 1.0

    def test_summary_fields(self):
        results = fig8_to_11_study(benchmarks=["H264"], scale=0.2, cores=2)
        summary = study_summary(results)
        assert set(summary) == {
            "avg_write_savings_pct", "avg_read_savings_pct",
            "avg_read_speedup", "geo_read_speedup",
            "avg_ipc_improvement_pct", "max_ipc_improvement_pct"}


class TestFig12:
    def test_miss_rate_decreases_with_size(self):
        rows = fig12_counter_cache_sweep([4 * 1024, 64 * 1024],
                                         benchmark="GEMS", scale=0.3)
        assert rows[0]["miss_rate"] >= rows[1]["miss_rate"]
        assert all(0 <= row["miss_rate"] <= 1 for row in rows)


class TestTable2:
    def test_feature_matrix(self):
        rows = table2_mechanisms(pages=6)
        by_mech = {row["mechanism"]: row for row in rows}
        assert set(by_mech) == {"temporal", "nontemporal", "dma",
                                "rowclone", "shred"}
        assert by_mech["shred"]["no_memory_writes"]
        assert not by_mech["nontemporal"]["no_memory_writes"]
        assert by_mech["nontemporal"]["no_cache_pollution"]
        assert not by_mech["temporal"]["no_cache_pollution"]
        assert not by_mech["temporal"]["persistent"]
        assert by_mech["shred"]["latency_ns_per_page"] < \
            by_mech["nontemporal"]["latency_ns_per_page"]


class TestAblation:
    def test_policies_contrast(self):
        rows = ablation_policies(pages=4, shreds_per_page=80)
        by_policy = {row["policy"]: row for row in rows}
        assert by_policy["major-reset-minors"]["reads_return_zero"]
        assert not by_policy["increment-major"]["reads_return_zero"]
        assert not by_policy["increment-minors"]["reads_return_zero"]
        # Option one burns minor space: it must re-encrypt far more often.
        assert by_policy["increment-minors"]["reencryptions"] > \
            by_policy["increment-major"]["reencryptions"]
        assert by_policy["increment-minors"]["reencryptions"] > \
            by_policy["major-reset-minors"]["reencryptions"]


class TestRenderTable:
    def test_renders_columns(self):
        text = render_table([{"a": 1, "b": 2.5}, {"a": 10, "b": True}],
                            title="T")
        assert "T" in text and "a" in text and "b" in text
        assert "yes" in text

    def test_empty(self):
        assert "(no rows)" in render_table([])

    def test_column_selection(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "b" in text and "a" not in text.splitlines()[0]
