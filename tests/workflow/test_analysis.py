"""Tests for workflow graph analysis."""

import pytest

from repro.workflow.analysis import (
    all_paths,
    critical_path,
    critical_path_length,
    find_cycles,
    sequential_chains,
    services_on_critical_path,
    topological_order,
)
from repro.workflow.graph import Processor, Workflow, WorkflowError
from repro.workflow.patterns import (
    chain_workflow,
    diamond_workflow,
    figure1_workflow,
    figure2_workflow,
)


class TestPaths:
    def test_chain_single_path(self, local_factory):
        wf = chain_workflow(local_factory, 3)
        paths = all_paths(wf)
        assert paths == [["input", "P1", "P2", "P3", "result"]]

    def test_figure1_two_paths(self, local_factory):
        wf = figure1_workflow(local_factory)
        paths = {tuple(p) for p in all_paths(wf)}
        assert ("source", "P1", "P2", "sink2") in paths
        assert ("source", "P1", "P3", "sink3") in paths

    def test_cyclic_rejected(self, local_factory):
        wf = figure2_workflow(local_factory)
        with pytest.raises(WorkflowError):
            all_paths(wf)

    def test_isolated_processor_is_one_path(self):
        wf = Workflow()
        wf.add_processor(Processor(name="A", input_ports=("x",), output_ports=("y",)))
        assert all_paths(wf) == [["A"]]


class TestCriticalPath:
    def test_unweighted_counts_services(self, local_factory):
        wf = chain_workflow(local_factory, 4)
        assert services_on_critical_path(wf) == 4

    def test_weighted_picks_heavier_branch(self, engine, local_factory):
        wf = figure1_workflow(local_factory)
        path = critical_path(wf, durations={"P2": 100.0, "P3": 1.0})
        assert "P2" in path and "P3" not in path

    def test_length_sums_durations(self, local_factory):
        wf = chain_workflow(local_factory, 3)
        length = critical_path_length(wf, durations={"P1": 1.0, "P2": 2.0, "P3": 3.0})
        assert length == pytest.approx(6.0)

    def test_diamond_critical_path(self, local_factory):
        wf = diamond_workflow(local_factory)
        path = critical_path(wf, durations={"A": 1, "B": 10, "C": 1, "D": 1})
        assert path == ["source", "A", "B", "D", "sink"]


class TestCycles:
    def test_dag_has_no_cycles(self, local_factory):
        assert find_cycles(chain_workflow(local_factory, 2)) == []

    def test_figure2_loop_found(self, local_factory):
        cycles = find_cycles(figure2_workflow(local_factory))
        assert len(cycles) == 1
        assert set(cycles[0]) == {"P2", "P3"}

    def test_each_cycle_once_from_its_earliest_processor(self):
        wf = Workflow()
        for name in ("A", "B", "C"):
            wf.add_processor(Processor(name=name, input_ports=("x",), output_ports=("y",)))
        for link in ("A:y -> B:x", "B:y -> A:x", "B:y -> C:x", "C:y -> B:x", "C:y -> C:x"):
            wf.add_link(*link.split(" -> "))
        assert find_cycles(wf) == [["A", "B"], ["B", "C"], ["C"]]


class TestTopologicalOrder:
    def test_respects_dependencies(self, local_factory):
        wf = diamond_workflow(local_factory)
        order = topological_order(wf)
        assert order.index("A") < order.index("B")
        assert order.index("B") < order.index("D")
        assert order.index("C") < order.index("D")

    def test_cyclic_rejected(self, local_factory):
        with pytest.raises(WorkflowError):
            topological_order(figure2_workflow(local_factory))

    def test_deterministic(self, local_factory):
        wf = diamond_workflow(local_factory)
        assert topological_order(wf) == topological_order(wf)


class TestSequentialChains:
    def test_chain_workflow_fully_groupable(self, local_factory):
        wf = chain_workflow(local_factory, 3)
        # P3 feeds the sink, so it cannot absorb further, but P1->P2->P3
        # is chainable because each service's outputs go to exactly one
        # service... except P3 whose output goes to a sink.
        chains = sequential_chains(wf)
        assert chains == [["P1", "P2", "P3"]] or chains == [["P1", "P2"]]

    def test_fanout_breaks_chain(self, local_factory):
        wf = figure1_workflow(local_factory)
        # P1 feeds both P2 and P3: nothing to group.
        assert sequential_chains(wf) == []

    def test_sync_processor_never_grouped(self, engine, local_factory):
        from repro.workflow.builder import WorkflowBuilder
        from repro.services.base import LocalService

        wf = (
            WorkflowBuilder()
            .source("s")
            .service("A", LocalService(engine, "A", ("x",), ("y",)))
            .service("B", LocalService(engine, "B", ("x",), ("y",)), synchronization=True)
            .sink("k")
            .connect("s:output", "A:x")
            .connect("A:y", "B:x")
            .connect("B:y", "k:input")
            .build()
        )
        assert sequential_chains(wf) == []

    def test_cross_strategy_breaks_chain(self, engine):
        from repro.workflow.builder import WorkflowBuilder
        from repro.services.base import LocalService

        wf = (
            WorkflowBuilder()
            .source("s")
            .service("A", LocalService(engine, "A", ("x",), ("y",)))
            .service("B", LocalService(engine, "B", ("x",), ("y",)), iteration_strategy="cross")
            .sink("k")
            .connect("s:output", "A:x")
            .connect("A:y", "B:x")
            .connect("B:y", "k:input")
            .build()
        )
        assert sequential_chains(wf) == []

    def test_ungroupable_flag_respected(self, engine):
        from repro.workflow.builder import WorkflowBuilder
        from repro.services.base import LocalService

        wf = (
            WorkflowBuilder()
            .source("s")
            .service("A", LocalService(engine, "A", ("x",), ("y",)), groupable=False)
            .service("B", LocalService(engine, "B", ("x",), ("y",)))
            .sink("k")
            .connect("s:output", "A:x")
            .connect("A:y", "B:x")
            .connect("B:y", "k:input")
            .build()
        )
        assert sequential_chains(wf) == []

    def test_bronze_standard_shape_two_chains(self, engine, streams, ideal_grid):
        from repro.apps.bronze_standard import BronzeStandardApplication

        app = BronzeStandardApplication(engine, ideal_grid, streams)
        chains = sequential_chains(app.workflow)
        assert chains == [["crestLines", "crestMatch"], ["PFMatchICP", "PFRegister"]]


class TestPinnedWalks:
    """Walk orders recorded when networkx computed them: the stdlib
    walks must reproduce them exactly (order included)."""

    @pytest.fixture
    def bronze(self, engine, streams, ideal_grid):
        from repro.apps.bronze_standard import BronzeStandardApplication

        return BronzeStandardApplication(engine, ideal_grid, streams).workflow

    def test_bronze_standard(self, bronze):
        order = [
            "floatingImage", "methodToTest", "referenceImage", "scale", "crestLines",
            "crestMatch", "Baladin", "PFMatchICP", "PFRegister", "Yasmina",
            "MultiTransfoTest", "accuracy_rotation", "accuracy_translation",
        ]
        assert topological_order(bronze) == order
        assert topological_order(bronze, constraints=False) == order
        assert find_cycles(bronze) == []
        assert critical_path(bronze) == [
            "floatingImage", "crestLines", "crestMatch", "PFMatchICP", "PFRegister",
            "MultiTransfoTest", "accuracy_rotation",
        ]
        crest = ["crestLines", "crestMatch"]
        registrations = [["Baladin"], ["Yasmina"], ["PFMatchICP", "PFRegister"]]
        image_middles = [crest + r for r in registrations] + [crest] + registrations
        middles = {
            "referenceImage": image_middles,
            "floatingImage": image_middles,
            "scale": [crest + r for r in registrations] + [crest],
            "methodToTest": [[]],
        }
        assert all_paths(bronze) == [
            [source, *middle, "MultiTransfoTest", sink]
            for source, source_middles in middles.items()
            for sink in ("accuracy_rotation", "accuracy_translation")
            for middle in source_middles
        ]

    def test_diamond(self, local_factory):
        wf = diamond_workflow(local_factory)
        assert topological_order(wf) == ["source", "A", "B", "C", "D", "sink"]
        assert find_cycles(wf) == []
        assert all_paths(wf) == [
            ["source", "A", "B", "D", "sink"],
            ["source", "A", "C", "D", "sink"],
        ]
        assert critical_path(wf) == ["source", "A", "B", "D", "sink"]

    def test_figure2(self, local_factory):
        wf = figure2_workflow(local_factory)
        assert find_cycles(wf) == [["P2", "P3"]]
        for walk in (topological_order, all_paths, critical_path):
            with pytest.raises(WorkflowError):
                walk(wf)
