"""Typed per-transfer accounting of the data plane.

The grid's seams — :class:`~repro.grid.transfer.NetworkModel` transfer
observers, :class:`~repro.grid.storage.ReplicaCatalog` registration
observers, and the :attr:`~repro.grid.middleware.Grid.transfer_context`
the middleware publishes while timing each stage-in/out — already see
every byte that moves.  The :class:`DataFlowCollector` turns those raw
callbacks into :class:`TransferRecord` rows (src/dst site, GFN, bytes,
seconds, purpose, owning job/service/tenant/run) plus per-site storage
gauges, the substrate the DOT export, the ``report-dataflow`` tables
and the per-link bandwidth timelines are computed from.

Byte *counters* (``bytes.total``, ``bytes.enactor_moved``,
``bytes.link.<src>.<dst>``, ...) do **not** require this collector:
the grid and enactor emit them on the instrumentation bus whenever one
is attached, so every runstore row carries them.  The collector is the
analysis layer on top — attach one when you want the per-transfer
ledger, not just the totals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.observability.bus import Subscriber
from repro.observability.spans import Span

__all__ = ["TransferRecord", "DataFlowCollector", "TRANSFER_PURPOSES"]

#: every purpose a transfer record may carry, in display order
TRANSFER_PURPOSES = ("stage-in", "stage-out", "intermediate", "cache-refill", "repair")

#: service label for transfers observed without a publishing grid
UNATTRIBUTED = "(unattributed)"


@dataclass(frozen=True)
class TransferRecord:
    """One observed data-plane transfer, fully attributed."""

    time: float  # simulated time of the evaluation
    src: str
    dst: str
    gfn: str
    bytes: int
    seconds: float
    purpose: str = "stage-in"
    job_id: Optional[int] = None
    service: Optional[str] = None
    tenant: Optional[str] = None
    run: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-plain form (deterministic key order via dataclass order)."""
        return asdict(self)


class DataFlowCollector(Subscriber):
    """Accounts every transfer the attached grid's data plane performs.

    Usage::

        collector = DataFlowCollector().attach(grid)
        app.enact(config, instrumentation=bus)
        collector.link_bytes()      # {(src, dst): bytes}
        collector.purpose_bytes()   # {"stage-in": ..., "intermediate": ...}

    The collector is also an :class:`InstrumentationBus` subscriber:
    when the grid carries a bus, ``attach`` subscribes it so the
    ``job.stage_in`` / ``job.stage_out`` phase spans can be folded into
    an independent per-phase byte tally (:attr:`phase_bytes`) — a
    cross-check that the span stream and the transfer ledger agree.
    """

    def __init__(self) -> None:
        self.records: List[TransferRecord] = []
        #: site -> bytes resident on its storage element (gauge)
        self.site_occupancy: Dict[str, int] = {}
        #: site -> replica count on its storage element (gauge)
        self.site_replicas: Dict[str, int] = {}
        #: independent tally folded from stage-in/out *spans*
        self.phase_bytes: Dict[str, int] = {"stage_in": 0, "stage_out": 0}
        self._grid = None
        self._clock: Callable[[], float] = lambda: 0.0

    # -- wiring ------------------------------------------------------------
    def attach(self, grid) -> "DataFlowCollector":
        """Observe *grid*: network transfers, registrations, spans."""
        self._grid = grid
        self._clock = lambda: grid.engine.now
        grid.network.add_observer(self._on_network_transfer)
        grid.catalog.add_observer(self._on_catalog_register)
        if grid.instrumentation is not None:
            grid.instrumentation.subscribe(self)
        return self

    def watch_network(self, network, clock: Optional[Callable[[], float]] = None) -> "DataFlowCollector":
        """Observe a bare :class:`NetworkModel` (no grid attribution)."""
        if clock is not None:
            self._clock = clock
        network.add_observer(self._on_network_transfer)
        return self

    # -- raw observers -----------------------------------------------------
    def _on_network_transfer(
        self, src: str, dst: str, size: float, seconds: float
    ) -> None:
        context = self._grid.transfer_context if self._grid is not None else None
        if context is None:
            record = TransferRecord(
                time=self._clock(), src=src, dst=dst, gfn="",
                bytes=int(size), seconds=seconds,
            )
        else:
            record = TransferRecord(
                time=self._clock(),
                src=src,
                dst=dst,
                gfn=context.gfn,
                bytes=int(size),
                seconds=seconds,
                purpose=context.purpose,
                job_id=context.job_id,
                service=context.service,
                tenant=context.tenant,
                run=context.run,
            )
        self.records.append(record)

    def _on_catalog_register(self, file, element) -> None:
        site = element.site
        self.site_replicas[site] = self.site_replicas.get(site, 0) + 1
        self.site_occupancy[site] = self.site_occupancy.get(site, 0) + int(file.size)
        grid = self._grid
        bus = grid.instrumentation if grid is not None else None
        if bus is not None:
            bus.metrics.gauge(f"grid.storage.replicas.{site}").set(
                self.site_replicas[site]
            )
            bus.metrics.gauge(f"grid.storage.occupancy.{site}").set(
                self.site_occupancy[site]
            )

    # -- span subscriber (cross-check tally) -------------------------------
    def on_end(self, span: Span) -> None:
        if span.name == "job.stage_in":
            self.phase_bytes["stage_in"] += int(span.attributes.get("bytes", 0))
        elif span.name == "job.stage_out":
            self.phase_bytes["stage_out"] += int(span.attributes.get("bytes", 0))

    # -- aggregations ------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Every byte the data plane moved (all purposes)."""
        return sum(record.bytes for record in self.records)

    def link_bytes(self) -> Dict[Tuple[str, str], int]:
        """Bytes per directed ``(src, dst)`` site pair, sorted by pair."""
        totals: Dict[Tuple[str, str], int] = {}
        for record in self.records:
            key = (record.src, record.dst)
            totals[key] = totals.get(key, 0) + record.bytes
        return dict(sorted(totals.items()))

    def link_transfer_counts(self) -> Dict[Tuple[str, str], int]:
        """Transfer count per directed site pair, sorted by pair."""
        counts: Dict[Tuple[str, str], int] = {}
        for record in self.records:
            key = (record.src, record.dst)
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def service_bytes(self) -> Dict[str, int]:
        """Bytes per owning service, sorted by name."""
        totals: Dict[str, int] = {}
        for record in self.records:
            name = record.service or UNATTRIBUTED
            totals[name] = totals.get(name, 0) + record.bytes
        return dict(sorted(totals.items()))

    def purpose_bytes(self) -> Dict[str, int]:
        """Bytes per transfer purpose, in :data:`TRANSFER_PURPOSES` order."""
        totals = {purpose: 0 for purpose in TRANSFER_PURPOSES}
        for record in self.records:
            totals[record.purpose] = totals.get(record.purpose, 0) + record.bytes
        return {purpose: total for purpose, total in totals.items() if total}

    def link_service_bytes(self) -> Dict[Tuple[str, str], Dict[str, int]]:
        """Per-link byte totals broken down by owning service."""
        result: Dict[Tuple[str, str], Dict[str, int]] = {}
        for record in self.records:
            services = result.setdefault((record.src, record.dst), {})
            name = record.service or UNATTRIBUTED
            services[name] = services.get(name, 0) + record.bytes
        return {
            link: dict(sorted(services.items()))
            for link, services in sorted(result.items())
        }

    def link_records(self, src: str, dst: str) -> List[TransferRecord]:
        """All records over one directed link, observation order."""
        return [r for r in self.records if r.src == src and r.dst == dst]
