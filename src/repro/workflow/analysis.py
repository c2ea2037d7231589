"""Workflow graph analysis: paths, critical path, cycles, ordering.

Implements the quantities the performance model of Section 3.5 is
phrased in:

* a **path** is "a set of processors linking an input to an output",
* the **critical path** is "the longest path in terms of execution
  time", and ``n_W`` is the number of services on it,
* cycle detection separates DAG workflows (barrier-capable) from
  loop workflows (Figure 2), and
* topological ordering drives the task-based baseline expansion.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Tuple

from repro.workflow.graph import ProcessorKind, Workflow, WorkflowError

__all__ = [
    "processor_graph",
    "all_paths",
    "critical_path",
    "critical_path_length",
    "services_on_critical_path",
    "find_cycles",
    "topological_order",
    "sequential_chains",
]


def processor_graph(workflow: Workflow, constraints: bool = False) -> Dict[str, List[str]]:
    """Collapse port-level links into processor-level successor lists.

    Keys follow ``workflow.processors`` order; each list holds the
    distinct successors in first-link order.  With ``constraints=True``
    the coordination control links are included as edges too (they
    constrain order like data links do).
    """
    graph: Dict[str, List[str]] = {name: [] for name in workflow.processors}
    edges = [(link.source.processor, link.target.processor) for link in workflow.links]
    if constraints:
        edges.extend(workflow.coordination_constraints)
    for before, after in edges:
        if after not in graph[before]:
            graph[before].append(after)
    return graph


def _kahn_order(graph: Mapping[str, List[str]]) -> List[str]:
    """Kahn's algorithm, the smallest ready name first.

    A cyclic graph leaves its cycles (and everything downstream of
    them) out, so the order is shorter than the graph.
    """
    indegree = {name: 0 for name in graph}
    for successors in graph.values():
        for name in successors:
            indegree[name] += 1
    ready = [name for name, degree in indegree.items() if degree == 0]
    heapq.heapify(ready)
    order: List[str] = []
    while ready:
        name = heapq.heappop(ready)
        order.append(name)
        for successor in graph[name]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, successor)
    return order


def _acyclic_order(graph: Mapping[str, List[str]], caller: str) -> List[str]:
    order = _kahn_order(graph)
    if len(order) < len(graph):
        raise WorkflowError(f"{caller} requires an acyclic workflow")
    return order


def _paths_to(graph: Mapping[str, List[str]], path: List[str], target: str) -> List[List[str]]:
    """Every extension of *path* to *target*, depth first in successor order."""
    if path[-1] == target:
        return [path]
    return [
        found
        for successor in graph[path[-1]]
        for found in _paths_to(graph, path + [successor], target)
    ]


def all_paths(workflow: Workflow) -> List[List[str]]:
    """Every source-to-sink processor path (DAG workflows only)."""
    graph = processor_graph(workflow)
    _acyclic_order(graph, "all_paths")
    sources = [p.name for p in workflow.sources()]
    sinks = [p.name for p in workflow.sinks()]
    if not sources:  # degenerate graphs: start anywhere with no predecessor
        targets = {name for successors in graph.values() for name in successors}
        sources = [n for n in graph if n not in targets]
    if not sinks:
        sinks = [n for n, successors in graph.items() if not successors]
    return [path for src in sources for dst in sinks for path in _paths_to(graph, [src], dst)]


def _duration(
    workflow: Workflow, durations: Optional[Mapping[str, float]], name: str
) -> float:
    if durations is not None and name in durations:
        return float(durations[name])
    return 1.0 if workflow.processor(name).kind is ProcessorKind.SERVICE else 0.0


def critical_path(
    workflow: Workflow, durations: Optional[Mapping[str, float]] = None
) -> List[str]:
    """The source-to-sink path maximizing total duration.

    *durations* maps processor name to its per-invocation execution
    time; missing services default to 1.0 and sources/sinks to 0.0, so
    the unweighted call returns the path with the most services — the
    ``n_W`` of the paper's model under its constant-time hypothesis.
    Ties go to the first predecessor in link order, then to the first
    terminal processor in insertion order.
    """
    graph = processor_graph(workflow)
    best: Dict[str, Tuple[float, List[str]]] = {}
    for name in _acyclic_order(graph, "critical_path"):
        incoming = [best[p] for p in workflow.predecessors(name)]
        if incoming:
            base_cost, base_path = max(incoming, key=lambda item: item[0])
        else:
            base_cost, base_path = 0.0, []
        best[name] = (base_cost + _duration(workflow, durations, name), base_path + [name])
    if not best:
        return []
    # A path links an input to an output: only terminal nodes (no
    # successors) can end the critical path.
    terminals = [n for n, successors in graph.items() if not successors]
    return max((best[n] for n in terminals), key=lambda item: item[0])[1]


def critical_path_length(
    workflow: Workflow, durations: Optional[Mapping[str, float]] = None
) -> float:
    """Total duration along the critical path."""
    return sum(_duration(workflow, durations, name) for name in critical_path(workflow, durations))


def services_on_critical_path(workflow: Workflow) -> int:
    """``n_W``: the number of services on the critical path (Section 3.5.1)."""
    path = critical_path(workflow)
    return sum(
        1 for name in path if workflow.processor(name).kind is ProcessorKind.SERVICE
    )


def find_cycles(workflow: Workflow) -> List[List[str]]:
    """Simple cycles of the data-link graph ([] for DAG workflows).

    Each cycle starts at its earliest processor in insertion order and
    is found once, by a depth-first walk from that processor through
    later ones only.  Processors Kahn's walk orders lie on no cycle.
    """
    graph = processor_graph(workflow)
    ordered = set(_kahn_order(graph))
    rank = {name: index for index, name in enumerate(graph) if name not in ordered}
    cycles: List[List[str]] = []

    def extend(path: List[str]) -> None:
        for successor in graph[path[-1]]:
            if successor == path[0]:
                cycles.append(path)
            elif rank.get(successor, -1) > rank[path[0]] and successor not in path:
                extend(path + [successor])

    for name in rank:
        extend([name])
    return cycles


def topological_order(workflow: Workflow, constraints: bool = True) -> List[str]:
    """A deterministic topological order (lexicographic tie-breaks)."""
    return _acyclic_order(processor_graph(workflow, constraints=constraints), "topological_order")


def sequential_chains(workflow: Workflow) -> List[List[str]]:
    """Maximal chains of service processors eligible for job grouping.

    A link ``u -> v`` is *chainable* when (Section 3.6's conditions made
    precise):

    * ``u`` and ``v`` are both service processors,
    * neither is a synchronization barrier,
    * both are marked groupable,
    * both use the **dot** iteration strategy (a cross product inside a
      group would change the number of invocations, i.e. the semantics),
    * **every** data link out of ``u`` targets ``v`` (so no other
      processor — and no sink — observes u's outputs), and
    * grouping cannot skip data ``v`` needs: this follows from the
      previous bullet since any other u-to-v path would need an extra
      out-edge of ``u``.

    Chains are maximal runs of chainable links; every processor belongs
    to at most one chain.  Returned in workflow insertion order of the
    chain heads; singleton "chains" are omitted.
    """
    next_in_chain: Dict[str, str] = {}
    has_upstream: Dict[str, bool] = {}

    def chainable(u: str, v: str) -> bool:
        pu = workflow.processor(u)
        pv = workflow.processor(v)
        if pu.kind is not ProcessorKind.SERVICE or pv.kind is not ProcessorKind.SERVICE:
            return False
        if pu.synchronization or pv.synchronization:
            return False
        if not (pu.groupable and pv.groupable):
            return False
        if pu.iteration_strategy != "dot" or pv.iteration_strategy != "dot":
            return False
        out_links = workflow.links_out_of(u)
        if not out_links:
            return False
        return all(link.target.processor == v for link in out_links)

    for name in workflow.processors:
        successors = workflow.successors(name)
        if len(successors) == 1 and chainable(name, successors[0]):
            succ = successors[0]
            if succ in next_in_chain.values():
                # succ already claimed by another chain; only one
                # predecessor may claim it (first in insertion order wins)
                continue
            next_in_chain[name] = succ
            has_upstream[succ] = True

    chains: List[List[str]] = []
    for name in workflow.processors:
        if name in next_in_chain and not has_upstream.get(name, False):
            chain = [name]
            while chain[-1] in next_in_chain:
                chain.append(next_in_chain[chain[-1]])
            chains.append(chain)
    return chains
