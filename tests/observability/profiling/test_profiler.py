"""Tests for record() and the Profile it returns."""

import json
import sys
import time

import pytest

from repro.observability import InstrumentationBus
from repro.observability.profiling import Profile, ProfilerError, record
from repro.sim.engine import Engine

FIXTURE = "util;repro.util._fixture:"


class TestScopeAccounting:
    def test_repeat_calls_share_one_node(self, repro_code):
        ns = repro_code("def f():\n    return 1\n")
        _, profile = record(lambda: [ns["f"]() for _ in range(5)])
        assert profile.rows == {FIXTURE + "f": 5}

    def test_same_name_under_different_parents_is_two_nodes(self):
        # pstats keys rows by co_name, which would fold every __init__
        # of sim/engine.py into one row; co_qualname keeps them apart.
        engine = Engine()

        def work():
            for _ in range(3):
                engine.timeout(1.0)
            engine.event()

        _, profile = record(work)
        inits = {
            key: weight
            for key, weight in profile.rows.items()
            if key.startswith("sim;repro.sim.engine:") and "__init__" in key
        }
        assert len(inits) >= 2, inits
        if sys.version_info >= (3, 11):
            assert inits["sim;repro.sim.engine:Timeout.__init__"] == 3
            assert inits["sim;repro.sim.engine:Event.__init__"] == 4

    def test_count_accumulates(self, repro_code):
        # two lambdas of one function share a qualname, hence a row
        ns = repro_code(
            """
            def g():
                first = lambda: 1
                second = lambda: 2
                return first() + second()
            """
        )
        _, profile = record(lambda: [ns["g"]() for _ in range(3)])
        assert profile.rows[FIXTURE + "g.<locals>.<lambda>"] == 6
        assert profile.rows[FIXTURE + "g"] == 3

    def test_child_time_subtracted_from_parent_self(self, repro_code):
        ns = repro_code(
            """
            import time

            def parent():
                time.sleep(0.05)
            """
        )
        _, profile = record(ns["parent"], clock="wall")
        sleep = profile.rows["builtins;builtins:<built-in method time.sleep>"]
        assert sleep >= 40_000
        assert profile.rows.get(FIXTURE + "parent", 0) < sleep / 2

    def test_scope_context_manager_closes_on_exception(self):
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            record(boom)
        assert sys.getprofile() is None
        _, profile = record(lambda: None)  # a closed profiler frees the slot
        assert profile.rows == {}


class TestDeterminismTraps:
    def test_module_bodies_do_not_count(self, repro_code):
        # a lazy import runs a <module> body inside the window
        module = repro_code("def f():\n    return 1\n\nf()\n", run=False)
        _, profile = record(lambda: exec(module, {}))
        assert profile.rows == {FIXTURE + "f": 1}

    def test_earlier_garbage_is_not_finalised_inside_the_window(self, repro_code):
        ns = repro_code(
            """
            class Leaky:
                def __init__(self):
                    self.cycle = self

                def __del__(self):
                    pass

            def leak(n):
                for _ in range(n):
                    Leaky()
            """
        )
        ns["leak"](5000)  # earlier work leaves collectable cycles behind
        _, profile = record(lambda: ns["leak"](10))
        assert profile.rows[FIXTURE + "Leaky.__del__"] == 10


class TestCallCountsReplaceChurnCounters:
    def test_engine_and_bus_calls_are_the_heap_and_span_traffic(self):
        engine = Engine()
        bus = InstrumentationBus()
        collector = bus.collector()

        def work():
            for i in range(4):
                engine.timeout(float(i))
                bus.end(bus.begin("s", "test", 0.0), 1.0)
            engine.run()

        _, profile = record(work)
        rows = profile.rows
        assert rows["sim;repro.sim.engine:Engine.schedule"] == engine.events_scheduled
        assert rows["sim;repro.sim.engine:Engine.step"] == engine.events_processed
        assert (
            rows["observability;repro.observability.bus:InstrumentationBus.begin"]
            == len(collector.spans)
        )


def wall_profile():
    return Profile(
        "sample",
        "wall",
        {
            "cache;repro.cache:ResultCache.lookup": 500,
            "core;repro.core.enactor:MoteurEnactor._invoke": 2000,
            "sim;repro.sim.engine:Engine.step": 1000,
            "sim;repro.sim.engine:Engine.schedule": 300,
        },
    )


class TestSnapshot:
    def test_clock_kind_recorded(self):
        assert record(lambda: None)[1].clock == "deterministic"
        assert record(lambda: None, clock="wall")[1].clock == "wall"

    def test_label_override(self):
        assert record(lambda: None)[1].label == ""
        assert record(lambda: None, "special")[1].label == "special"

    def test_root_cum_is_sum_of_top_level_children(self):
        # collapsed stacks hang each function under its component frame
        profile = wall_profile()
        assert profile.total == sum(profile.by_component().values()) == 3800

    def test_snapshot_is_a_deep_copy(self):
        payload = json.loads(wall_profile().to_json())
        profile = Profile.from_dict(payload)
        payload["rows"]["sim;repro.sim.engine:Engine.step"] = 1
        assert profile == wall_profile()

    def test_snapshot_with_open_scopes_keeps_completed_calls(self, repro_code):
        # simulation processes are generators, many still suspended when
        # an enactment returns: every completed resume counts
        ns = repro_code(
            """
            def process():
                yield 1
                yield 2
                yield 3
            """
        )

        def work():
            generator = ns["process"]()
            next(generator)
            next(generator)
            return generator

        generator, profile = record(work)
        assert profile.rows == {FIXTURE + "process": 2}
        generator.close()


class TestProfileQueries:
    def test_walk_yields_paths_in_name_order(self):
        payload = json.loads(wall_profile().to_json())
        payload["rows"] = dict(reversed(list(payload["rows"].items())))
        paths = list(Profile.from_dict(payload).rows)
        assert paths == sorted(paths)
        assert paths[0] == "cache;repro.cache:ResultCache.lookup"

    def test_by_component_sums_self_times(self):
        assert wall_profile().by_component() == {
            "cache": 500, "core": 2000, "sim": 1300,
        }

    def test_hottest_ranks_by_self_time(self):
        assert [key for key, _ in wall_profile().hottest(2)] == [
            "core;repro.core.enactor:MoteurEnactor._invoke",
            "sim;repro.sim.engine:Engine.step",
        ]


class TestSerialization:
    def test_json_roundtrip(self):
        profile = wall_profile()
        loaded = Profile.from_dict(json.loads(profile.to_json()))
        assert loaded == profile
        assert loaded.to_json() == profile.to_json()

    def test_save_and_load(self, tmp_path):
        path = wall_profile().save(tmp_path / "deep" / "profile.json")
        assert Profile.load(path) == wall_profile()

    def test_load_missing_file_raises_profiler_error(self, tmp_path):
        with pytest.raises(ProfilerError, match="cannot read"):
            Profile.load(tmp_path / "absent.json")

    def test_load_malformed_json_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProfilerError):
            Profile.load(bad)

    def test_unsupported_format_rejected(self):
        with pytest.raises(ProfilerError, match="format"):
            Profile.from_dict({"format": 1, "root": {}, "rows": {}})

    def test_malformed_scope_node_rejected(self):
        for rows, message in [
            ({"no-component-separator": 1}, "malformed row"),
            ({"sim;no-function-separator": 1}, "malformed row"),
            ({"sim;a:b;c": 1}, "malformed row"),
            ({"sim;repro.sim.engine:Engine.step": 0}, "positive integer"),
            ({"sim;repro.sim.engine:Engine.step": 1.5}, "positive integer"),
        ]:
            payload = {"format": Profile.FORMAT, "label": "", "clock": "wall", "rows": rows}
            with pytest.raises(ProfilerError, match=message):
                Profile.from_dict(payload)

    def test_unknown_clock_rejected(self):
        payload = {"format": Profile.FORMAT, "label": "", "clock": "tick", "rows": {}}
        with pytest.raises(ProfilerError, match="clock"):
            Profile.from_dict(payload)


def test_wall_clock_costs_real_time():
    _, profile = record(lambda: time.sleep(0.01), clock="wall")
    assert profile.unit == "us"
    assert profile.total >= 9_000
