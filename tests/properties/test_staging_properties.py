"""One staging path: on a fault-free grid the failover generators are
the closed-form transfer sum they replaced.

For random input/output file lists, replica placements and an optional
bandwidth brown-out:

* a job's ``stage_in_time`` / ``stage_out_time`` equal the sum, in
  file order, of each copy's ``raw_transfer_time`` from its closest
  replica (same-site first, else the first SE by name) priced at the
  instant the copy starts;
* clean copies cost no engine events of their own: a job staging five
  files processes as many events as one staging a single file;
* the data-flow collector sees exactly one transfer per file, with the
  right purpose.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.job import JobDescription, JobState
from repro.grid.middleware import Grid
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement, Site, WorkerNode
from repro.grid.storage import LogicalFile, StorageElement
from repro.grid.transfer import DegradedWindow, LinkParameters, NetworkModel
from repro.observability.dataflow import DataFlowCollector
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams
from repro.util.units import MEBIBYTE

N_SITES = 3
SITES = [f"s{i}" for i in range(N_SITES)]

sizes = st.integers(0, 40 * MEBIBYTE)
inputs = st.lists(
    st.tuples(sizes, st.lists(st.sampled_from(SITES), min_size=1, max_size=N_SITES, unique=True)),
    max_size=5,
)
windows = st.none() | st.builds(
    lambda start, length, factor, src, dst: DegradedWindow(start, start + length, factor, src, dst),
    st.floats(0.0, 30.0),
    st.floats(0.1, 60.0),
    st.floats(1.0, 4.0),
    st.none() | st.sampled_from(SITES),
    st.none() | st.sampled_from(SITES),
)


def make_grid(engine, window):
    sites = [
        Site(
            name=name,
            computing_elements=[
                ComputingElement(engine, f"ce{i}", name, workers=[WorkerNode(f"w{i}")])
            ],
            storage_element=StorageElement(f"se{i}", site=name),
        )
        for i, name in enumerate(SITES)
    ]
    network = NetworkModel(
        lan=LinkParameters(latency=0.1, bandwidth=100 * MEBIBYTE),
        wan=LinkParameters(latency=2.0, bandwidth=5 * MEBIBYTE),
        degraded_windows=() if window is None else (window,),
    )
    return Grid(
        engine, RandomStreams(seed=0), sites=sites, overhead=OverheadModel.zero(), network=network
    )


def run_job(window, input_specs, output_sizes):
    """Stage *input_specs* in and *output_sizes* out in one job."""
    engine = Engine()
    grid = make_grid(engine, window)
    collector = DataFlowCollector().attach(grid)
    gfns = []
    for index, (size, replica_sites) in enumerate(input_specs):
        file = LogicalFile(f"gfn://in/{index}", size=size)
        for site in replica_sites:
            grid.add_input_file(file, site_name=site)
        gfns.append(file.gfn)
    outputs = tuple(
        LogicalFile(f"gfn://out/{index}", size=size) for index, size in enumerate(output_sizes)
    )
    handle = grid.submit(
        JobDescription(name="job", compute_time=7.0, input_files=tuple(gfns), output_files=outputs)
    )
    record = engine.run(until=handle.completion)
    return grid, record, collector


def closest_site(replica_sites, site):
    if site in replica_sites:
        return site
    return min(replica_sites, key=lambda s: f"se{SITES.index(s)}")


def closed_form(network, copies, start):
    """Sum of each copy's raw time, priced when the copy starts."""
    total = 0.0
    for src, dst, size in copies:
        total += network.raw_transfer_time(src, dst, size, now=start + total)
    return total


@settings(max_examples=60, deadline=None)
@given(window=windows, input_specs=inputs, output_sizes=st.lists(sizes, max_size=5))
def test_staging_matches_closed_form_sum(window, input_specs, output_sizes):
    grid, record, collector = run_job(window, input_specs, output_sizes)
    site = {ce.name: ce.site for ce in grid.computing_elements}[record.computing_element]
    running = record.last(JobState.RUNNING)
    stage_in = closed_form(
        grid.network,
        [(closest_site(sites, site), site, size) for size, sites in input_specs],
        running,
    )
    assert record.stage_in_time == stage_in
    stage_out = closed_form(
        grid.network,
        [(site, site, size) for size in output_sizes],
        running + stage_in + record.execution_time,
    )
    assert record.stage_out_time == stage_out
    purposes = [(r.purpose, r.gfn) for r in collector.records]
    assert purposes == [("stage-in", f"gfn://in/{i}") for i in range(len(input_specs))] + [
        ("stage-out", f"gfn://out/{i}") for i in range(len(output_sizes))
    ]
    for index in range(len(output_sizes)):
        replicas = grid.catalog.replicas(f"gfn://out/{index}")
        assert [se.site for se in replicas] == [site]


@settings(max_examples=30, deadline=None)
@given(window=windows, size=sizes, replica_site=st.sampled_from(SITES))
def test_clean_copies_cost_no_engine_events(window, size, replica_site):
    def events(n_files):
        grid, _record, _collector = run_job(
            window, [(size, [replica_site])] * n_files, [size] * n_files
        )
        return grid.engine.events_processed

    assert events(5) == events(1)
