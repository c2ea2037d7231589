"""Tests for record()'s two clocks: call counts and wall-clock self time."""

import numpy as np
import pytest

from repro.observability.profiling import CLOCKS, record

FIXTURE = "util;repro.util._fixture:"


class TestResolveClock:
    def test_unknown_spec_rejected(self):
        ran = []
        with pytest.raises(ValueError, match="unknown clock"):
            record(lambda: ran.append(1), clock="tick")
        assert ran == []  # rejected before the work runs
        assert CLOCKS == ("deterministic", "wall")


class TestDeterministicClock:
    def test_weights_are_repro_call_counts_only(self, repro_code):
        ns = repro_code(
            """
            import numpy as np

            def f(values):
                return np.sum(values)
            """
        )
        result, profile = record(lambda: [ns["f"]([1, 2]) for _ in range(4)])
        assert result == [3, 3, 3, 3]
        assert profile.unit == "calls"
        assert profile.rows == {FIXTURE + "f": 4}  # numpy is not repro code


class TestWallClock:
    def test_outside_code_is_grouped_by_package(self):
        def work():
            return sorted(np.arange(2000).tolist())

        _, profile = record(work, clock="wall")
        components = set(profile.by_component())
        assert "builtins" in components  # sorted() is a C function
        assert components <= {"builtins", "numpy", "stdlib", "tests", "other"}
        assert all(weight > 0 for weight in profile.rows.values())
