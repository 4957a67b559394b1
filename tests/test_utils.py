"""Tests for the timing and memory helpers."""

from __future__ import annotations

import pytest

from repro.utils.memory import human_bytes, index_size_report
from repro.utils.timing import Timer, time_callable


class TestTimer:
    def test_measures_elapsed_time(self):
        with Timer() as timer:
            total = sum(range(100_000))
        assert total > 0
        assert timer.wall_seconds >= 0.0
        assert timer.cpu_seconds >= 0.0
        assert timer.wall_ms == pytest.approx(timer.wall_seconds * 1000)
        assert timer.cpu_ms == pytest.approx(timer.cpu_seconds * 1000)

    def test_time_callable_returns_result(self):
        result, timer = time_callable(lambda: 21 * 2, repeats=3)
        assert result == 42
        assert timer.wall_seconds >= 0.0

    def test_time_callable_validation(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)


class TestMemoryHelpers:
    def test_human_bytes_units(self):
        assert human_bytes(512) == "512.00 B"
        assert human_bytes(2048) == "2.00 KB"
        assert human_bytes(5 * 1024**2) == "5.00 MB"
        assert human_bytes(3 * 1024**3) == "3.00 GB"
        assert human_bytes(2 * 1024**4) == "2.00 TB"

    def test_human_bytes_negative_rejected(self):
        with pytest.raises(ValueError):
            human_bytes(-1)

    def test_index_size_report_total(self):
        report = index_size_report({"bfus": 1024, "names": 1024})
        assert report["total"] == "2.00 KB"
        assert set(report) == {"bfus", "names", "total"}
