"""Tests for profile counters, diffs, and regression attribution."""

import pytest

from repro.observability.profiling import (
    Profile,
    attribute,
    components_from_counters,
    diff_profiles,
    format_attribution,
    format_profile_diff,
    format_profile_report,
    profile_counters,
)


def build_profile(sim=100, core=50, clock="deterministic", label="p"):
    return Profile(
        label,
        clock,
        {
            "core;repro.core.enactor:MoteurEnactor._invoke": core,
            "sim;repro.sim.engine:Engine.schedule": sim // 2,
            "sim;repro.sim.engine:Engine.step": sim - sim // 2,
        },
    )


class TestProfileCounters:
    def test_counters_carry_self_micros_and_calls(self):
        # the weight is self microseconds under the wall clock and the
        # call count under the deterministic one
        for clock in ("wall", "deterministic"):
            counters = profile_counters(build_profile(clock=clock))
            assert counters == {"perf.profile.core": 50.0, "perf.profile.sim": 100.0}

    def test_components_from_counters_is_the_inverse(self):
        counters = profile_counters(build_profile())
        assert components_from_counters(counters) == {"core": 50.0, "sim": 100.0}

    def test_non_profile_and_unknown_keys_ignored(self):
        table = components_from_counters(
            {
                "perf.events_per_sec": 9.0,
                "perf.profile.sim": 5.0,
                "perf.profile.sim.calls": 1.0,
                "perf.profile.sim.bogus.key": 1.0,
            }
        )
        assert table == {"sim": 5.0}


class TestAttribute:
    def test_worst_regression_ranks_first(self):
        base = profile_counters(build_profile(sim=100, core=50))
        cand = profile_counters(build_profile(sim=120, core=200))
        deltas = attribute(base, cand)
        assert deltas[0].name == "core"
        assert deltas[0].delta == pytest.approx(150.0)
        assert deltas[1].name == "sim"

    def test_one_sided_components_count_from_zero(self):
        deltas = attribute({}, {"perf.profile.cache": 30.0})
        assert len(deltas) == 1
        assert deltas[0].baseline == 0.0
        assert deltas[0].candidate == pytest.approx(30.0)

    def test_empty_when_no_breakdown_on_either_side(self):
        assert attribute({"perf.events_per_sec": 1.0}, {}) == []


class TestFormatAttribution:
    def test_names_the_regressed_component(self):
        base = profile_counters(build_profile(sim=100, core=50))
        cand = profile_counters(build_profile(sim=100, core=150))
        lines = format_attribution(attribute(base, cand))
        assert lines[0].startswith("top regressed components")
        assert any("core" in line for line in lines[1:])
        assert not any("sim:" in line for line in lines)

    def test_empty_when_nothing_regressed(self):
        counters = profile_counters(build_profile())
        assert format_attribution(attribute(counters, counters)) == []


class TestDiffProfiles:
    def test_components_scopes_and_counters(self):
        # the scopes are function rows; under the deterministic clock a
        # row's weight is a call counter (Engine.schedule: heap pushes)
        base = build_profile(sim=100, core=50, label="base")
        cand = build_profile(sim=102, core=90, label="cand")
        diff = diff_profiles(base, cand)
        assert diff.top_component.name == "core"
        moves = {d.name: d.delta for d in diff.functions}
        assert moves == {
            "core;repro.core.enactor:MoteurEnactor._invoke": 40,
            "sim;repro.sim.engine:Engine.schedule": 1,
            "sim;repro.sim.engine:Engine.step": 1,
        }
        assert diff.functions[0].name == "core;repro.core.enactor:MoteurEnactor._invoke"

    def test_top_component_none_when_nothing_grew(self):
        profile = build_profile()
        assert diff_profiles(profile, profile).top_component is None


class TestFormatting:
    def test_report_mentions_components_scopes_and_churn(self):
        # call counts replace the churn counters: Engine.schedule calls
        # are the heap pushes
        text = format_profile_report(build_profile(label="r"))
        assert "profile: r" in text
        assert "total=150 calls" in text
        assert "component" in text and "functions" in text
        assert "sim;repro.sim.engine:Engine.step" in text
        assert any(
            line.split()[:2] == ["sim;repro.sim.engine:Engine.schedule", "50"]
            for line in text.splitlines()
        )

    def test_diff_warns_on_clock_mismatch(self):
        wall_side = build_profile(clock="wall")
        text = format_profile_diff(diff_profiles(wall_side, build_profile()))
        assert "WARNING: clocks differ" in text
