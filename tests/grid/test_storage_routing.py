"""Edge cases in storage routing: compute-only sites, replica spread."""

import pytest

from repro.grid.job import JobDescription
from repro.grid.middleware import Grid
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement, Site, WorkerNode
from repro.grid.storage import LogicalFile, StorageElement
from repro.grid.transfer import LinkParameters, NetworkModel
from repro.util.rng import RandomStreams
from repro.util.units import MEBIBYTE


def compute_only_grid(engine, failure_probability=0.0, **grid_kwargs):
    """site0 has storage; site1 is compute-only."""
    ce0 = ComputingElement(engine, "ce0", "site0", workers=[WorkerNode("w0")])
    ce1 = ComputingElement(engine, "ce1", "site1", workers=[WorkerNode("w1", slots=8)])
    se0 = StorageElement("se0", "site0")
    return Grid(
        engine,
        RandomStreams(seed=0),
        sites=[
            Site("site0", [ce0], se0),
            Site("site1", [ce1], storage_element=None),
        ],
        overhead=OverheadModel.zero(),
        network=NetworkModel(
            lan=LinkParameters(latency=0.0, bandwidth=100 * MEBIBYTE),
            wan=LinkParameters(latency=10.0, bandwidth=1 * MEBIBYTE),
            failure_probability=failure_probability,
        ),
        broker_strategy="least-loaded",
        **grid_kwargs,
    )


@pytest.fixture
def two_site_grid(engine):
    return compute_only_grid(engine)


class TestComputeOnlySite:
    def test_outputs_route_to_default_storage(self, engine, two_site_grid):
        # Fill site0 so the broker sends the job to storage-less site1.
        blocker = two_site_grid.submit(JobDescription(name="blocker", compute_time=10**6))
        engine.run(until=1.0)
        out = LogicalFile("gfn://out/result", size=1 * MEBIBYTE)
        handle = two_site_grid.submit(
            JobDescription(name="produce", compute_time=1.0, output_files=(out,))
        )
        record = engine.run(until=handle.completion)
        assert record.computing_element == "ce1"
        # output had to cross the WAN to the default site's SE
        assert record.stage_out_time > 10.0
        replicas = two_site_grid.catalog.replicas(out.gfn)
        assert [se.site for se in replicas] == ["site0"]

    def test_stage_in_from_remote_replica(self, engine, two_site_grid):
        file = LogicalFile("gfn://in/data", size=2 * MEBIBYTE)
        two_site_grid.add_input_file(file)  # lands on site0
        blocker = two_site_grid.submit(JobDescription(name="blocker", compute_time=10**6))
        engine.run(until=1.0)
        handle = two_site_grid.submit(
            JobDescription(name="consume", compute_time=1.0, input_files=(file.gfn,))
        )
        record = engine.run(until=handle.completion)
        assert record.computing_element == "ce1"
        assert record.stage_in_time == pytest.approx(10.0 + 2.0)  # WAN latency + size/bw

    def test_local_replica_cheaper(self, engine, two_site_grid):
        file = LogicalFile("gfn://in/data2", size=2 * MEBIBYTE)
        two_site_grid.add_input_file(file)
        handle = two_site_grid.submit(
            JobDescription(name="local", compute_time=1.0, input_files=(file.gfn,))
        )
        record = engine.run(until=handle.completion)
        assert record.computing_element == "ce0"  # least-loaded picks the free one
        assert record.stage_in_time == pytest.approx(2.0 / 100.0)  # LAN

    @pytest.mark.parametrize(
        "chaos", [{"failure_probability": 1e-9}, {"repair_target": 2}], ids=["faults", "repair"]
    )
    def test_chaos_features_tolerate_storage_less_site(self, engine, chaos):
        grid = compute_only_grid(engine, **chaos)
        assert grid.storage_at("site1") is None
        file = LogicalFile("gfn://in/chaos", size=1 * MEBIBYTE)
        grid.add_input_file(file)
        grid.submit(JobDescription(name="blocker", compute_time=10**6))
        engine.run(until=1.0)
        out = LogicalFile("gfn://out/chaos", size=1 * MEBIBYTE)
        handle = grid.submit(
            JobDescription(
                name="stage", compute_time=1.0, input_files=(file.gfn,), output_files=(out,)
            )
        )
        record = engine.run(until=handle.completion)
        assert record.state.name == "DONE"
        assert record.computing_element == "ce1"
        assert record.stage_in_time == pytest.approx(10.0 + 1.0)  # WAN in
        assert record.stage_out_time == pytest.approx(10.0 + 1.0)  # WAN out
        assert [se.site for se in grid.catalog.replicas(out.gfn)] == ["site0"]
