"""Tests for cache eviction (``repro-eds cache gc``) and its parsers."""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.engine.cache import (
    ResultCache,
    parse_age,
    parse_size,
)
from repro.engine.records import ResultRecord


def _record(key: str, index: int) -> dict:
    """A minimal valid record of *key*, as the cache stores it."""
    return ResultRecord(
        key=key, algorithm="port_one", graph_family="cycle",
        graph_label=f"cycle-{index}", num_nodes=4, num_edges=4,
        max_degree=2, solution_size=2, optimum=0, optimum_exact=False,
        ratio_num=0, ratio_den=1, rounds=1, extra={"payload": "x" * 100},
    ).to_json_dict()


def _fill(cache: ResultCache, count: int, *, base_time: float) -> list[str]:
    """Write *count* records with mtimes base_time, base_time+10, …"""
    keys = []
    for i in range(count):
        key = f"{i:02x}" + "0" * 62
        cache.put(key, _record(key, i))
        stamp = base_time + 10 * i
        os.utime(cache.path_for(key), (stamp, stamp))
        keys.append(key)
    return keys


class TestParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2048", 2048),
            ("1K", 1024),
            ("1KiB", 1024),
            ("1.5MB", int(1.5 * 1024 ** 2)),
            ("2GiB", 2 * 1024 ** 3),
            (" 64 KB ", 64 * 1024),
        ],
    )
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("300", 300.0),
            ("90s", 90.0),
            ("5m", 300.0),
            ("12h", 12 * 3600.0),
            ("7d", 7 * 86400.0),
            ("2w", 14 * 86400.0),
        ],
    )
    def test_parse_age(self, text, expected):
        assert parse_age(text) == expected

    @pytest.mark.parametrize(
        "text", ["", "abc", "5x", "-3", "1.2.3K", "1e309", "inf", "nan"]
    )
    def test_bad_sizes_rejected(self, text):
        with pytest.raises(ValueError):
            parse_size(text)

    def test_bad_age_rejected(self):
        with pytest.raises(ValueError):
            parse_age("7y")


class TestGcPolicy:
    def test_gc_needs_a_bound(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).gc()

    def test_age_eviction(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 5, base_time=1000.0)
        # now=1100: ages are 100, 90, 80, 70, 60 — evict older than 75s
        report = cache.gc(max_age=75, now=1100.0)
        assert report.removed == 3
        assert report.kept == 2
        assert cache.get(keys[0]) is None
        assert cache.get(keys[4]) is not None

    def test_size_eviction_drops_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 4, base_time=1000.0)
        sizes = [cache.path_for(k).stat().st_size for k in keys]
        budget = sizes[2] + sizes[3]  # room for exactly the newest two
        report = cache.gc(max_bytes=budget, now=2000.0)
        assert report.removed == 2
        assert report.freed_bytes == sizes[0] + sizes[1]
        assert cache.get(keys[0]) is None and cache.get(keys[1]) is None
        assert cache.get(keys[2]) is not None
        assert report.kept_bytes <= budget

    def test_size_budget_already_met_is_a_no_op(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 3, base_time=1000.0)
        report = cache.gc(max_bytes=10 ** 9, now=2000.0)
        assert report.removed == 0 and report.kept == 3

    def test_combined_age_then_size(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 6, base_time=1000.0)
        size = cache.path_for(keys[0]).stat().st_size
        # age pass removes the two oldest; size pass trims down to two
        report = cache.gc(max_bytes=2 * size, max_age=35, now=1060.0)
        assert report.removed == 4
        assert report.kept == 2
        assert cache.get(keys[5]) is not None

    def test_zero_budget_clears_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 3, base_time=1000.0)
        report = cache.gc(max_bytes=0, now=2000.0)
        assert report.removed == 3 and report.kept == 0
        assert len(cache) == 0

    def test_gc_report_format(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 2, base_time=1000.0)
        text = cache.gc(max_age=0, now=9999.0).format()
        assert "evicted 2 record(s)" in text
        assert "kept 0 record(s)" in text


class TestGcCommand:
    def test_cli_gc_by_size(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "--degrees", "2", "--sizes", "12",
                     "--seeds", "1", "--quiet", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", cache_dir,
                     "--max-size", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out and "kept 0 record(s)" in out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries:         0" in capsys.readouterr().out

    def test_cli_gc_by_age_keeps_fresh_records(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "--degrees", "2", "--sizes", "12",
                     "--seeds", "1", "--quiet", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", cache_dir,
                     "--max-age", "1d"]) == 0
        out = capsys.readouterr().out
        assert "evicted 0 record(s)" in out

    def test_cli_gc_requires_a_bound(self, capsys, tmp_path):
        code = main(["cache", "gc", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "--max-size and/or --max-age" in capsys.readouterr().err

    def test_cli_gc_rejects_bad_size(self, capsys, tmp_path):
        code = main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-size", "lots"])
        assert code == 2
        assert "cannot parse size" in capsys.readouterr().err
