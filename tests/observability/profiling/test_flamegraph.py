"""Collapsed-stack export tests: strict round-trips and byte-identity.

The byte-identity tests are the acceptance criterion for the
deterministic clock: two identically seeded bronze enactments must
produce the same profile JSON and the same collapsed stacks, byte for
byte, even when an enactment of a different size ran before them in
the same process.
"""

import pytest

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core.config import OptimizationConfig
from repro.grid.testbeds import egee_like_testbed
from repro.observability.profiling import (
    Profile,
    ProfilerError,
    parse_collapsed,
    record,
    to_collapsed,
)
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams


def sample_profile():
    return Profile(
        "sample",
        "wall",
        {
            "broker;repro.grid.broker:ResourceBroker._choose": 7,
            "cache;repro.cache:ResultCache.lookup": 3,
            "core;repro.core.enactor:MoteurEnactor._invoke": 25,
            "sim;repro.sim.engine:Engine.step": 10,
        },
    )


def expected_weights(profile):
    return {tuple(key.split(";")): weight for key, weight in profile.rows.items()}


def bronze(seed=42, pairs=2):
    engine = Engine()
    streams = RandomStreams(seed=seed)
    grid = egee_like_testbed(
        engine, streams, n_sites=6, workers_per_ce=40, with_background_load=False
    )
    app = BronzeStandardApplication(engine, grid, streams)
    return app.enact(OptimizationConfig.sp_dp(), n_pairs=pairs)


def profiled_bronze(seed=42, pairs=2):
    """One deterministic-clock bronze enactment; returns the Profile."""
    return record(lambda: bronze(seed, pairs), "bronze smoke")[1]


class TestCollapsed:
    def test_roundtrip_through_strict_parser(self):
        profile = sample_profile()
        assert parse_collapsed(to_collapsed(profile)) == expected_weights(profile)

    def test_weights_are_self_time_micros(self):
        weights = parse_collapsed(to_collapsed(sample_profile()))
        assert weights[("sim", "repro.sim.engine:Engine.step")] == 10
        assert weights[("core", "repro.core.enactor:MoteurEnactor._invoke")] == 25

    def test_zero_weight_stacks_dropped(self, repro_code):
        ns = repro_code("def instant():\n    pass\n")
        _, profile = record(ns["instant"], clock="wall")
        assert all(weight > 0 for weight in profile.rows.values())
        parse_collapsed(to_collapsed(profile))  # rejects any zero weight
        assert to_collapsed(Profile("empty", "wall", {})) == ""

    def test_lines_sorted_and_newline_terminated(self):
        text = to_collapsed(sample_profile())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines == sorted(lines)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("stackonly", "not 'stack weight'"),
            ("a;b twelve", "not an integer"),
            ("a;b 0", "must be positive"),
            ("a;;b 3", "empty frame"),
            ("a 1\na 2", "duplicate stack"),
        ],
    )
    def test_strict_parser_rejects(self, bad, message):
        with pytest.raises(ProfilerError, match=message):
            parse_collapsed(bad)


class TestByteIdentity:
    """Two identically seeded runs -> identical bytes, everywhere."""

    def test_profiles_and_flamegraphs_are_byte_identical(self):
        first = profiled_bronze(seed=42)
        second = profiled_bronze(seed=42)
        assert first.to_json() == second.to_json()
        assert to_collapsed(first) == to_collapsed(second)

    def test_byte_identical_after_a_larger_enactment_in_process(self):
        first = profiled_bronze(seed=42)
        bronze(seed=42, pairs=5)  # leaves abandoned simulation processes
        second = profiled_bronze(seed=42)
        assert first.to_json() == second.to_json()

    def test_different_seeds_still_roundtrip(self):
        profile = profiled_bronze(seed=7)
        assert parse_collapsed(to_collapsed(profile)) == expected_weights(profile)

    def test_bronze_profile_names_hot_components(self):
        components = profiled_bronze(seed=42).by_component()
        for name in ("sim", "core", "grid", "apps"):
            assert components[name] > 0
