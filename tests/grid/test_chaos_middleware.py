"""Chaos middleware: retry/failover determinism, outage waits, repair."""

import io
import itertools

import pytest

import repro.grid.job
import repro.grid.storage
from repro.grid.faults import DurabilityFaultModel, FaultModel, OutageSchedule
from repro.grid.job import JobDescription
from repro.grid.middleware import Grid
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement, Site, WorkerNode
from repro.grid.storage import LogicalFile, ReplicaUnavailableError, StorageElement
from repro.grid.transfer import DegradedWindow, LinkParameters, NetworkModel
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams
from repro.util.units import MEBIBYTE


def two_site_grid(engine, streams, **grid_kwargs):
    # least-loaded ranking tie-breaks by CE name, so a single submitted
    # job always lands on ce0 at s0 and remote staging is deterministic
    sites = [
        Site(
            name=f"s{i}",
            computing_elements=[
                ComputingElement(
                    engine, f"ce{i}", f"s{i}", workers=[WorkerNode(f"w{i}", slots=4)]
                )
            ],
            storage_element=StorageElement(f"se{i}", site=f"s{i}"),
        )
        for i in range(2)
    ]
    return Grid(
        engine,
        streams,
        sites=sites,
        overhead=OverheadModel.zero(),
        network=NetworkModel(
            lan=LinkParameters(latency=1.0, bandwidth=10 * MEBIBYTE),
            wan=LinkParameters(latency=5.0, bandwidth=10 * MEBIBYTE),
        ),
        faults=FaultModel.none(),
        **grid_kwargs,
    )


def reset_global_counters():
    """Process-global id counters: reset so traces compare byte-identically."""
    repro.grid.job._job_ids = itertools.count(1)
    repro.grid.storage._file_counter = itertools.count(1)


class TestOutageWaits:
    def test_stage_in_waits_out_an_se_outage(self, engine, streams):
        grid = two_site_grid(
            engine,
            streams,
            outages=OutageSchedule.from_windows({"se1": [(0.0, 500.0)]}),
        )
        file = LogicalFile("gfn://input", size=1 * MEBIBYTE)
        grid.add_input_file(file, site_name="s1")
        handle = grid.submit(
            JobDescription(
                name="j", compute_time=1.0, input_files=(file.gfn,)
            )
        )
        record = engine.run(until=handle.completion)
        # the only replica sat behind a dark SE until t=500
        assert record.makespan > 500.0
        assert record.state.name == "DONE"

    def test_flapping_se_heals_mid_run(self, engine, streams):
        outages = OutageSchedule.none().with_flapping(
            "se1", start=0.0, down=100.0, up=50.0, cycles=3
        )
        grid = two_site_grid(engine, streams, outages=outages)
        file = LogicalFile("gfn://flappy", size=1 * MEBIBYTE)
        grid.add_input_file(file, site_name="s1")
        handle = grid.submit(
            JobDescription(
                name="j", compute_time=1.0, input_files=(file.gfn,)
            )
        )
        record = engine.run(until=handle.completion)
        # stage-in started inside the first down window and resumed in
        # the first up gap [100, 150)
        assert 100.0 < record.makespan < 150.0

    def test_ce_outage_delays_but_never_fails(self, engine, streams):
        grid = two_site_grid(
            engine,
            streams,
            outages=OutageSchedule.from_windows({"ce0": [(0.0, 200.0)]}),
        )
        handle = grid.submit(
            JobDescription(name="j", compute_time=1.0)
        )
        record = engine.run(until=handle.completion)
        assert record.state.name == "DONE"
        assert record.makespan > 200.0


class TestReplicaFailover:
    def test_all_replicas_lost_fails_the_job(self, engine, streams):
        grid = two_site_grid(
            engine,
            streams,
            # durability active => chaos staging paths are exercised
            durability=DurabilityFaultModel(loss_probability=0.0),
            outages=OutageSchedule.from_windows({"unused": [(1.0, 2.0)]}),
        )
        file = LogicalFile("gfn://doomed", size=1 * MEBIBYTE)
        grid.add_input_file(file, site_name="s1")
        for se in grid.catalog.replicas(file.gfn):
            se.mark_lost(file.gfn)
        handle = grid.submit(
            JobDescription(name="j", compute_time=1.0, input_files=(file.gfn,))
        )
        with pytest.raises(ReplicaUnavailableError) as excinfo:
            engine.run(until=handle.completion)
        assert excinfo.value.gfn == "gfn://doomed"
        assert excinfo.value.sites_tried == ("s1",)

    def test_failover_to_surviving_replica(self, engine, streams):
        grid = two_site_grid(
            engine,
            streams,
            outages=OutageSchedule.from_windows({"unused": [(1.0, 2.0)]}),
        )
        file = LogicalFile("gfn://pair", size=1 * MEBIBYTE)
        grid.add_input_file(file, site_name="s0")
        grid.add_input_file(file, site_name="s1")
        # kill the local copy: stage-in must fail over to the remote
        grid.storage_at("s0").mark_lost(file.gfn)
        handle = grid.submit(
            JobDescription(
                name="j", compute_time=1.0, input_files=(file.gfn,)
            )
        )
        record = engine.run(until=handle.completion)
        assert record.state.name == "DONE"
        # WAN latency charged, not LAN: the remote copy was used
        assert record.stage_in_time > 5.0


class TestRepair:
    def test_repair_replicates_to_target(self, engine, streams):
        grid = two_site_grid(
            engine, streams, repair_target=2, repair_interval=50.0
        )
        file = LogicalFile("gfn://precious", size=1 * MEBIBYTE)
        grid.add_input_file(file, site_name="s0")
        assert grid.catalog.healthy_replica_count(file.gfn) == 1
        engine.run(until=200.0)
        assert grid.catalog.healthy_replica_count(file.gfn) == 2
        assert grid.instrumentation is None  # no bus: counters are optional

    def test_repair_emits_repair_purpose_transfers(self, engine, streams):
        from repro.observability.dataflow import DataFlowCollector

        grid = two_site_grid(
            engine, streams, repair_target=2, repair_interval=50.0
        )
        collector = DataFlowCollector().attach(grid)
        file = LogicalFile("gfn://precious", size=1 * MEBIBYTE)
        grid.add_input_file(file, site_name="s0")
        engine.run(until=200.0)
        purposes = {record.purpose for record in collector.records}
        assert purposes == {"repair"}
        assert sum(r.bytes for r in collector.records) == 1 * MEBIBYTE


class TestChaosDeterminism:
    """S3: same seed => byte-identical trace and identical failover order."""

    @staticmethod
    def run_chaotic_bronze(seed):
        from repro.apps.bronze_standard import BronzeStandardApplication
        from repro.core import OptimizationConfig
        from repro.grid.testbeds import chaotic_testbed
        from repro.observability import InstrumentationBus, JsonlExporter
        from repro.observability.dataflow import DataFlowCollector
        from repro.sim.engine import Engine
        from repro.util.rng import RandomStreams

        reset_global_counters()
        engine = Engine()
        streams = RandomStreams(seed=seed)
        grid = chaotic_testbed(engine, streams)
        collector = DataFlowCollector().attach(grid)
        bus = InstrumentationBus()
        buffer = io.StringIO()
        bus.subscribe(JsonlExporter(buffer))
        app = BronzeStandardApplication(engine, grid, streams)
        config = next(
            c
            for c in OptimizationConfig.paper_configurations()
            if c.label == "SP+DP"
        ).with_best_effort()
        result = app.enact(config, n_pairs=3, instrumentation=bus)
        lost = set()
        for items in result.failures.poisoned_lineage().values():
            lost |= set(items)
        failovers = [
            (r.gfn, r.src, r.dst) for r in collector.records if r.purpose == "stage-in"
        ]
        return buffer.getvalue(), frozenset(lost), failovers, result.makespan

    def test_same_seed_is_byte_identical(self):
        trace_a, lost_a, failovers_a, makespan_a = self.run_chaotic_bronze(42)
        trace_b, lost_b, failovers_b, makespan_b = self.run_chaotic_bronze(42)
        assert makespan_a == makespan_b
        assert lost_a == lost_b
        assert failovers_a == failovers_b
        assert trace_a == trace_b

    def test_different_seed_diverges(self):
        _, _, _, makespan_a = self.run_chaotic_bronze(42)
        _, _, _, makespan_b = self.run_chaotic_bronze(7)
        assert makespan_a != makespan_b


class TestBrownOuts:
    """A degraded window prices stage-in on any grid, chaos or not."""

    @staticmethod
    def stage_in_seconds(engine, network):
        site = Site(
            "s0",
            [ComputingElement(engine, "ce0", "s0", workers=[WorkerNode("w0")])],
            StorageElement("se0", site="s0"),
        )
        grid = Grid(
            engine, RandomStreams(seed=0), sites=[site], overhead=OverheadModel.zero(),
            network=network,
        )
        file = LogicalFile("gfn://big", size=50 * MEBIBYTE)
        grid.add_input_file(file)
        handle = grid.submit(JobDescription(name="j", input_files=(file.gfn,)))
        return engine.run(until=handle.completion).stage_in_time

    def test_window_alone_slows_stage_in(self):
        plain = self.stage_in_seconds(Engine(), NetworkModel())
        degraded = self.stage_in_seconds(
            Engine(), NetworkModel(degraded_windows=(DegradedWindow(0.0, 1e6, 2.0),))
        )
        assert plain == pytest.approx(0.6)  # LAN: 0.1 s + 50 MiB at 100 MiB/s
        assert degraded == 2.0 * plain
