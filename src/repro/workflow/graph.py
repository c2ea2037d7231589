"""The workflow graph: processors, ports, links, constraints.

Terminology follows Section 2.1 of the paper:

* a **processor** represents an application component (or a data
  source/sink),
* processors carry named **input and output ports**,
* **oriented arrows connect output ports to input ports**,
* **data sources** have no input ports, **data sinks** no output ports,
* **iteration strategies** (dot/cross, Section 2.2) say how a
  multi-port processor combines its input streams,
* **synchronization processors** (Section 2.3) wait for their whole
  input streams (statistical operations like the Bronze Standard's
  MultiTransfoTest),
* **coordination constraints** (Section 4.1) are control links imposing
  execution order without a data dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "ProcessorKind",
    "PortRef",
    "Processor",
    "Link",
    "Workflow",
    "WorkflowError",
    "ITERATION_STRATEGIES",
]

#: the two strategies the paper implements ("sufficient for most applications")
ITERATION_STRATEGIES = ("dot", "cross")


class WorkflowError(ValueError):
    """Structural misuse of the workflow model."""


class ProcessorKind(Enum):
    """The three processor roles."""

    SOURCE = "source"
    SINK = "sink"
    SERVICE = "service"


@dataclass(frozen=True)
class PortRef:
    """A (processor, port) endpoint of a link."""

    processor: str
    port: str

    def __str__(self) -> str:
        return f"{self.processor}:{self.port}"

    @staticmethod
    def parse(text: str) -> "PortRef":
        """Parse ``processor:port`` notation."""
        if ":" not in text:
            raise WorkflowError(f"port reference {text!r} must look like 'processor:port'")
        processor, port = text.split(":", 1)
        if not processor or not port:
            raise WorkflowError(f"empty component in port reference {text!r}")
        return PortRef(processor, port)


@dataclass(frozen=True)
class Processor:
    """One node of the workflow graph.

    ``service`` binds the processor to a live
    :class:`~repro.services.base.Service`; ``service_ref`` keeps a
    symbolic name instead (Scufl documents are symbolic and get bound
    to services through a registry at enactment time).
    """

    name: str
    kind: ProcessorKind = ProcessorKind.SERVICE
    input_ports: Tuple[str, ...] = ()
    output_ports: Tuple[str, ...] = ()
    service: Optional[object] = None  # Service; typed loosely to avoid cycles
    service_ref: Optional[str] = None
    iteration_strategy: str = "dot"
    synchronization: bool = False
    groupable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowError("processor needs a non-empty name")
        if self.iteration_strategy not in ITERATION_STRATEGIES:
            raise WorkflowError(
                f"{self.name}: unknown iteration strategy "
                f"{self.iteration_strategy!r}; options: {ITERATION_STRATEGIES}"
            )
        if self.kind is ProcessorKind.SOURCE and self.input_ports:
            raise WorkflowError(f"source {self.name!r} cannot have input ports")
        if self.kind is ProcessorKind.SINK and self.output_ports:
            raise WorkflowError(f"sink {self.name!r} cannot have output ports")
        if len(set(self.input_ports)) != len(self.input_ports):
            raise WorkflowError(f"{self.name}: duplicate input ports")
        if len(set(self.output_ports)) != len(self.output_ports):
            raise WorkflowError(f"{self.name}: duplicate output ports")
        if self.service is not None:
            svc_in = tuple(self.service.input_ports)
            svc_out = tuple(self.service.output_ports)
            if self.input_ports and tuple(self.input_ports) != svc_in:
                raise WorkflowError(
                    f"{self.name}: declared input ports {self.input_ports} do not "
                    f"match service ports {svc_in}"
                )
            if self.output_ports and tuple(self.output_ports) != svc_out:
                raise WorkflowError(
                    f"{self.name}: declared output ports {self.output_ports} do not "
                    f"match service ports {svc_out}"
                )

    def with_service(self, service: object) -> "Processor":
        """Bind (or rebind) the live service, keeping everything else."""
        return replace(
            self,
            service=service,
            input_ports=tuple(service.input_ports),
            output_ports=tuple(service.output_ports),
        )

    def effective_input_ports(self) -> Tuple[str, ...]:
        """Ports from the service when bound, else the declared ones."""
        if self.service is not None:
            return tuple(self.service.input_ports)
        return self.input_ports

    def effective_output_ports(self) -> Tuple[str, ...]:
        """Ports from the service when bound, else the declared ones."""
        if self.service is not None:
            return tuple(self.service.output_ports)
        return self.output_ports


@dataclass(frozen=True)
class Link:
    """A data dependency: an output port feeding an input port."""

    source: PortRef
    target: PortRef

    def __str__(self) -> str:
        return f"{self.source} -> {self.target}"


class Workflow:
    """A mutable workflow graph under construction, then enacted."""

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._processors: Dict[str, Processor] = {}
        self._links: List[Link] = []
        #: control links: (before, after) processor-name pairs
        self.coordination_constraints: List[Tuple[str, str]] = []

    # -- construction ---------------------------------------------------
    def add_processor(self, processor: Processor) -> Processor:
        """Add a node; duplicate names are an error."""
        if processor.name in self._processors:
            raise WorkflowError(f"duplicate processor name {processor.name!r}")
        self._processors[processor.name] = processor
        return processor

    def add_source(self, name: str, port: str = "output") -> Processor:
        """Convenience: add a data source with one output port."""
        return self.add_processor(
            Processor(name=name, kind=ProcessorKind.SOURCE, output_ports=(port,))
        )

    def add_sink(self, name: str, port: str = "input") -> Processor:
        """Convenience: add a data sink with one input port."""
        return self.add_processor(
            Processor(name=name, kind=ProcessorKind.SINK, input_ports=(port,))
        )

    def add_link(self, source: "PortRef | str", target: "PortRef | str") -> Link:
        """Connect an output port to an input port (``'P1:out'`` notation ok)."""
        src = PortRef.parse(source) if isinstance(source, str) else source
        dst = PortRef.parse(target) if isinstance(target, str) else target
        self._check_endpoint(src, output=True)
        self._check_endpoint(dst, output=False)
        link = Link(source=src, target=dst)
        if link in self._links:
            raise WorkflowError(f"duplicate link {link}")
        self._links.append(link)
        return link

    def add_coordination_constraint(self, before: str, after: str) -> None:
        """Enforce that *after* runs only once *before* is inactive.

        The paper uses Scufl coordination constraints "to identify
        services that require data synchronization" — adding one marks
        the *after* processor as a synchronization barrier with respect
        to *before*.
        """
        for name in (before, after):
            if name not in self._processors:
                raise WorkflowError(f"coordination constraint names unknown processor {name!r}")
        if before == after:
            raise WorkflowError("a coordination constraint cannot be reflexive")
        self.coordination_constraints.append((before, after))

    def replace_processor(self, name: str, processor: Processor) -> None:
        """Swap the node registered under *name* (used by service binding)."""
        if name not in self._processors:
            raise WorkflowError(f"no processor named {name!r}")
        if processor.name != name:
            raise WorkflowError(
                f"replacement must keep the name ({name!r} != {processor.name!r})"
            )
        self._processors[name] = processor

    def _check_endpoint(self, ref: PortRef, output: bool) -> None:
        processor = self._processors.get(ref.processor)
        if processor is None:
            raise WorkflowError(f"link references unknown processor {ref.processor!r}")
        ports = (
            processor.effective_output_ports() if output else processor.effective_input_ports()
        )
        if ref.port not in ports:
            direction = "output" if output else "input"
            raise WorkflowError(
                f"{ref.processor!r} has no {direction} port {ref.port!r} "
                f"(has {list(ports)})"
            )

    # -- inspection --------------------------------------------------------
    @property
    def processors(self) -> Dict[str, Processor]:
        """Name -> processor, insertion-ordered (read via this property)."""
        return dict(self._processors)

    @property
    def links(self) -> List[Link]:
        """All data links, insertion-ordered."""
        return list(self._links)

    def processor(self, name: str) -> Processor:
        """Look up one processor by name."""
        try:
            return self._processors[name]
        except KeyError:
            raise WorkflowError(f"no processor named {name!r}") from None

    def sources(self) -> List[Processor]:
        """All data sources, insertion order."""
        return [p for p in self._processors.values() if p.kind is ProcessorKind.SOURCE]

    def sinks(self) -> List[Processor]:
        """All data sinks, insertion order."""
        return [p for p in self._processors.values() if p.kind is ProcessorKind.SINK]

    def services(self) -> List[Processor]:
        """All service processors, insertion order."""
        return [p for p in self._processors.values() if p.kind is ProcessorKind.SERVICE]

    def links_into(self, processor: str, port: Optional[str] = None) -> List[Link]:
        """Data links targeting *processor* (optionally one port)."""
        return [
            l
            for l in self._links
            if l.target.processor == processor and (port is None or l.target.port == port)
        ]

    def links_out_of(self, processor: str, port: Optional[str] = None) -> List[Link]:
        """Data links leaving *processor* (optionally one port)."""
        return [
            l
            for l in self._links
            if l.source.processor == processor and (port is None or l.source.port == port)
        ]

    def predecessors(self, processor: str) -> List[str]:
        """Distinct upstream processor names (data links only), stable order."""
        seen: Set[str] = set()
        out: List[str] = []
        for link in self.links_into(processor):
            if link.source.processor not in seen:
                seen.add(link.source.processor)
                out.append(link.source.processor)
        return out

    def successors(self, processor: str) -> List[str]:
        """Distinct downstream processor names (data links only), stable order."""
        seen: Set[str] = set()
        out: List[str] = []
        for link in self.links_out_of(processor):
            if link.target.processor not in seen:
                seen.add(link.target.processor)
                out.append(link.target.processor)
        return out

    def is_dag(self) -> bool:
        """True when the data-link graph has no directed cycle."""
        # analysis builds on this module, so import it at call time
        from repro.workflow.analysis import _kahn_order, processor_graph

        return len(_kahn_order(processor_graph(self))) == len(self._processors)

    def copy(self, name: Optional[str] = None) -> "Workflow":
        """Shallow structural copy (processors are immutable, so shared)."""
        duplicate = Workflow(name=name or self.name)
        for processor in self._processors.values():
            duplicate.add_processor(processor)
        for link in self._links:
            duplicate.add_link(link.source, link.target)
        duplicate.coordination_constraints = list(self.coordination_constraints)
        return duplicate

    def __repr__(self) -> str:
        return (
            f"<Workflow {self.name!r} processors={len(self._processors)} "
            f"links={len(self._links)}>"
        )
