"""Tests for the data-plane observability layer (collector, DOT, report)."""

import pytest

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core import OptimizationConfig
from repro.grid.storage import LogicalFile
from repro.grid.testbeds import egee_like_testbed, ideal_testbed
from repro.observability import InstrumentationBus
from repro.observability.dataflow import (
    DataFlowCollector,
    DotParseError,
    TransferRecord,
    bandwidth_profile,
    dataflow_dot,
    format_dataflow_report,
    link_activity,
    parse_dot,
    sample_profile,
    sparkline,
)
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams


def bronze_with_collector(label, pairs=2, seed=42):
    """One instrumented Bronze Standard run with the collector attached."""
    engine = Engine()
    streams = RandomStreams(seed=seed)
    grid = egee_like_testbed(
        engine, streams, n_sites=6, workers_per_ce=40, with_background_load=False
    )
    app = BronzeStandardApplication(engine, grid, streams)
    config = {c.label: c for c in OptimizationConfig.paper_configurations()}[label]
    bus = InstrumentationBus()
    collector = DataFlowCollector().attach(grid)
    bus.subscribe(collector)
    result = app.enact(config, n_pairs=pairs, instrumentation=bus)
    return collector, result


class TestCollectorAccounting:
    def test_ledger_matches_bus_counters_exactly(self):
        collector, result = bronze_with_collector("SP+DP")
        counters = result.metrics.counters
        assert collector.total_bytes == int(counters["bytes.peer_moved"])
        for (src, dst), amount in collector.link_bytes().items():
            assert amount == int(counters[f"bytes.link.{src}.{dst}"])

    def test_purpose_split_sums_to_total(self):
        collector, result = bronze_with_collector("SP+DP")
        purposes = collector.purpose_bytes()
        assert sum(purposes.values()) == collector.total_bytes
        # a non-grouped run stages intermediates site-to-site
        assert purposes.get("intermediate", 0) > 0
        assert purposes["stage-in"] > 0
        counters = result.metrics.counters
        for purpose, amount in purposes.items():
            key = f"bytes.{purpose.replace('-', '_')}"
            assert amount == int(counters[key])

    def test_every_transfer_attributed_to_a_service(self):
        collector, _result = bronze_with_collector("SP+DP")
        assert collector.records
        assert all(record.service for record in collector.records)
        assert all(record.gfn for record in collector.records)

    def test_bytes_are_integers(self):
        collector, _result = bronze_with_collector("SP+DP")
        assert all(isinstance(record.bytes, int) for record in collector.records)

    def test_enactor_moved_and_total_ledger(self):
        _collector, result = bronze_with_collector("SP+DP")
        counters = result.metrics.counters
        assert counters["bytes.enactor_moved"] > 0
        assert counters["bytes.total"] == pytest.approx(
            counters["bytes.peer_moved"] + counters["bytes.enactor_moved"]
        )

    def test_site_gauges_track_registrations(self):
        collector, result = bronze_with_collector("SP+DP")
        assert collector.site_occupancy
        assert sum(collector.site_replicas.values()) >= len(collector.site_occupancy)
        gauges = result.metrics.gauges
        for site, occupancy in collector.site_occupancy.items():
            assert gauges[f"grid.storage.occupancy.{site}"] == occupancy
            assert gauges[f"grid.storage.replicas.{site}"] == collector.site_replicas[site]

    def test_span_cross_check_tally_matches_purposes(self):
        collector, _result = bronze_with_collector("SP+DP")
        purposes = collector.purpose_bytes()
        staged_in = (
            purposes.get("stage-in", 0)
            + purposes.get("intermediate", 0)
            + purposes.get("cache-refill", 0)
        )
        assert collector.phase_bytes["stage_in"] == staged_in
        assert collector.phase_bytes["stage_out"] == purposes.get("stage-out", 0)


def run_staging(grid, staging):
    """Drive one staging generator to completion on the grid's engine."""
    grid.engine.process(staging)
    grid.engine.run()


class TestPurposeClassification:
    def test_cache_refill_purpose(self):
        engine = Engine()
        grid = ideal_testbed(engine, RandomStreams(seed=1))
        collector = DataFlowCollector().attach(grid)
        site = grid.default_site.name
        grid.add_input_file(LogicalFile("gfn://warm", size=1024), cache_refill=True)
        run_staging(grid, grid.stage_in_process(["gfn://warm"], site))
        assert [r.purpose for r in collector.records] == ["cache-refill"]

    def test_minted_output_stages_in_as_intermediate(self):
        engine = Engine()
        grid = ideal_testbed(engine, RandomStreams(seed=1))
        collector = DataFlowCollector().attach(grid)
        site = grid.default_site.name
        produced = LogicalFile("gfn://minted", size=2048)
        run_staging(grid, grid.stage_out_process([produced], site))
        run_staging(grid, grid.stage_in_process(["gfn://minted"], site))
        assert [r.purpose for r in collector.records] == ["stage-out", "intermediate"]

    def test_plain_input_stages_in_as_stage_in(self):
        engine = Engine()
        grid = ideal_testbed(engine, RandomStreams(seed=1))
        collector = DataFlowCollector().attach(grid)
        grid.add_input_file(LogicalFile("gfn://cold", size=512))
        run_staging(grid, grid.stage_in_process(["gfn://cold"], grid.default_site.name))
        assert [r.purpose for r in collector.records] == ["stage-in"]

    def test_stage_out_purpose(self):
        engine = Engine()
        grid = ideal_testbed(engine, RandomStreams(seed=1))
        collector = DataFlowCollector().attach(grid)
        out = LogicalFile("gfn://out", size=256)
        run_staging(grid, grid.stage_out_process([out], grid.default_site.name))
        assert [r.purpose for r in collector.records] == ["stage-out"]

    def test_unattributed_network_watch(self):
        from repro.grid.transfer import NetworkModel

        model = NetworkModel.instantaneous()
        collector = DataFlowCollector().watch_network(model)
        model.transfer_time("a", "b", 99)
        record = collector.records[0]
        assert record.purpose == "stage-in"
        assert record.service is None
        assert record.bytes == 99


class TestGroupingSavings:
    def test_grouping_moves_strictly_fewer_intermediate_bytes(self):
        sp_collector, sp_result = bronze_with_collector("SP")
        jg_collector, jg_result = bronze_with_collector("SP+DP+JG")
        sp_intermediate = sp_collector.purpose_bytes().get("intermediate", 0)
        jg_intermediate = jg_collector.purpose_bytes().get("intermediate", 0)
        assert jg_intermediate < sp_intermediate
        saved = jg_result.metrics.counters["bytes.intermediate_saved_by_grouping"]
        assert saved > 0
        assert sp_result.metrics.counters.get(
            "bytes.intermediate_saved_by_grouping", 0.0
        ) == 0.0

    def test_policies_differ_in_bytes_moved(self):
        """SP vs DP vs JG are quantitatively distinct on the data plane."""
        totals = {}
        for label in ("SP", "DP", "SP+DP+JG"):
            collector, _ = bronze_with_collector(label)
            totals[label] = collector.total_bytes
        assert totals["SP+DP+JG"] < totals["SP"]
        assert len(set(totals.values())) > 1


class TestDotExport:
    def test_round_trip_is_lossless(self):
        collector, _result = bronze_with_collector("SP+DP")
        parsed = parse_dot(dataflow_dot(collector))
        link_bytes = collector.link_bytes()
        counts = collector.link_transfer_counts()
        services = collector.link_service_bytes()
        assert len(parsed["edges"]) == len(link_bytes)
        for src, dst, attrs in parsed["edges"]:
            assert attrs["bytes"] == link_bytes[(src, dst)]
            assert attrs["transfers"] == counts[(src, dst)]
            assert attrs["services"] == services[(src, dst)]

    def test_same_seed_runs_export_identical_dot(self):
        first, _ = bronze_with_collector("SP+DP+JG", seed=7)
        second, _ = bronze_with_collector("SP+DP+JG", seed=7)
        assert dataflow_dot(first) == dataflow_dot(second)

    def test_parser_rejects_missing_trailing_newline(self):
        collector, _ = bronze_with_collector("SP")
        with pytest.raises(DotParseError):
            parse_dot(dataflow_dot(collector).rstrip("\n"))

    def test_parser_rejects_tampered_byte_count(self):
        collector, _ = bronze_with_collector("SP")
        text = dataflow_dot(collector)
        (link, total), *_rest = collector.link_bytes().items()
        with pytest.raises(DotParseError):
            parse_dot(text.replace(f'bytes="{total}"', 'bytes="many"', 1))

    def test_parser_rejects_breakdown_not_summing(self):
        text = (
            "digraph dataflow {\n"
            "  rankdir=LR;\n"
            '  "a" [shape=box];\n'
            '  "b" [shape=box];\n'
            '  "a" -> "b" [label="1.0 KiB", bytes="1024", transfers="1", '
            'services="svc=1"];\n'
            "}\n"
        )
        with pytest.raises(DotParseError, match="does not sum"):
            parse_dot(text)

    def test_parser_rejects_undeclared_site(self):
        text = (
            "digraph dataflow {\n"
            "  rankdir=LR;\n"
            '  "a" [shape=box];\n'
            '  "a" -> "ghost" [label="1 B", bytes="1", transfers="1", '
            'services="s=1"];\n'
            "}\n"
        )
        with pytest.raises(DotParseError, match="undeclared"):
            parse_dot(text)

    def test_parser_rejects_duplicate_edge(self):
        edge = (
            '  "a" -> "a" [label="1 B", bytes="1", transfers="1", services="s=1"];\n'
        )
        text = (
            "digraph dataflow {\n  rankdir=LR;\n"
            '  "a" [shape=box];\n' + edge + edge + "}\n"
        )
        with pytest.raises(DotParseError, match="duplicate edge"):
            parse_dot(text)


class TestReport:
    def test_report_contains_tables_and_sparklines(self):
        collector, result = bronze_with_collector("SP+DP+JG")
        counters = {k: float(v) for k, v in result.metrics.counters.items()}
        report = format_dataflow_report(collector, counters)
        assert "top links by bytes" in report
        assert "top services by bytes" in report
        assert "bytes by purpose:" in report
        assert "storage by site:" in report
        assert "enactor-moved" in report
        assert "|" in report  # sparkline frames

    def test_report_deterministic(self):
        first, result1 = bronze_with_collector("SP+DP", seed=3)
        second, result2 = bronze_with_collector("SP+DP", seed=3)
        c1 = {k: float(v) for k, v in result1.metrics.counters.items()}
        c2 = {k: float(v) for k, v in result2.metrics.counters.items()}
        assert format_dataflow_report(first, c1) == format_dataflow_report(second, c2)

    def test_empty_collector_renders(self):
        report = format_dataflow_report(DataFlowCollector())
        assert "0 transfers" in report


class TestTimelines:
    def records(self):
        return [
            TransferRecord(time=0.0, src="a", dst="b", gfn="g", bytes=100, seconds=10.0),
            TransferRecord(time=5.0, src="a", dst="b", gfn="g", bytes=50, seconds=5.0),
        ]

    def test_bandwidth_profile_is_a_step_function(self):
        profile = bandwidth_profile(self.records())
        # 10 B/s alone, then +10 B/s overlapping, then both drain to 0
        assert profile == [(0.0, 10.0), (5.0, 20.0), (10.0, 0.0)]

    def test_zero_duration_transfers_carry_no_rate(self):
        instant = [
            TransferRecord(time=1.0, src="a", dst="b", gfn="g", bytes=10, seconds=0.0)
        ]
        assert bandwidth_profile(instant) == []

    def test_link_activity_counts_in_flight_transfers(self):
        activity = link_activity(self.records())
        assert max(level for _, level in activity) == 2

    def test_sample_profile_integrates_exactly(self):
        profile = [(0.0, 10.0), (5.0, 20.0), (10.0, 0.0)]
        samples = sample_profile(profile, 0.0, 10.0, 2)
        assert samples == [pytest.approx(10.0), pytest.approx(20.0)]
        # one bucket = the time average over the whole window
        assert sample_profile(profile, 0.0, 10.0, 1) == [pytest.approx(15.0)]

    def test_sample_profile_validates_buckets(self):
        with pytest.raises(ValueError):
            sample_profile([], 0.0, 1.0, 0)

    def test_sparkline_maps_extremes(self):
        strip = sparkline([0.0, 5.0, 10.0], peak=10.0)
        assert len(strip) == 3
        assert strip[0] == " "
        assert strip[2] == "@"

    def test_sparkline_all_zero_is_blank(self):
        assert sparkline([0.0, 0.0]) == "  "
