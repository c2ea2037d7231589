"""Iteration strategies: provenance-aware dot and cross products.

Section 2.2: "When a service owns two input ports or more, an iteration
strategy defines the composition rule for the data coming from all
input ports pairwise":

* **dot product** — pair items "in their order of definition",
  producing ``min(n, m)`` results.  Under data+service parallelism,
  items arrive out of order, so the pairing is driven by provenance
  compatibility (lineages agree on every shared source, see
  :func:`repro.core.provenance.compatible`) rather than raw arrival
  rank — this is exactly the causality problem Section 4.1 solves with
  history trees.
* **cross product** — combine every item of each port with every item
  of every other port, producing ``n × m`` results.

:class:`IterationEngine` is the incremental combiner a processor state
owns: tokens are *offered* one at a time and the engine returns the
newly fireable input bindings, deterministically.

Dot-product matching is indexed, not scanned.  A newly arrived token
picks, port by port, the earliest-arrived buffered token compatible
with everything chosen so far.  The chosen tokens are pairwise
compatible, so a candidate is compatible with all of them exactly when
its lineage, projected on the sources it shares with their merged
lineage, equals the merged lineage's projection.  Each port therefore
groups its unconsumed tokens by lineage source set and, per group and
shared-source tuple, keeps an index from projection to the arrival
numbers of the tokens holding it, ascending (built on first use).  One
dictionary lookup per group finds the partner; the lowest arrival
number across groups breaks ties, which is the token the greedy
arrival-order scan picks.  Consuming a token bisects it out of every
index of its group.  An offer costs O(ports × source sets) lookups, and
the indices hold only unconsumed tokens.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count, product
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple

from repro.core.tokens import DataToken

__all__ = ["IterationEngine", "Binding", "expected_bindings"]

#: one fireable set of inputs: port -> token
Binding = Dict[str, DataToken]


class _SourceGroup:
    """One port's unconsumed tokens whose lineages cover the same sources.

    A group outlives its last token: the source sets a port sees are
    fixed by the workflow, and a refilled group keeps its indices.
    """

    __slots__ = ("sources", "entries", "indices")

    def __init__(self, sources: Tuple[str, ...]) -> None:
        #: the lineage sources of every token here, sorted
        self.sources = sources
        #: arrival number -> token, in arrival order
        self.entries: Dict[int, DataToken] = {}
        #: shared-source tuple -> projection -> arrival numbers, ascending
        self.indices: Dict[Tuple[str, ...], Dict[tuple, List[int]]] = {}

    def first_match(self, merged: Mapping[str, FrozenSet[int]]) -> Optional[int]:
        """Arrival number of the earliest token agreeing with *merged*
        on every shared source."""
        shared = tuple(filter(merged.__contains__, self.sources))
        index = self.indices.get(shared)
        if index is None:
            index = self.indices[shared] = {}
            for seq, token in self.entries.items():
                index.setdefault(_projection(token, shared), []).append(seq)
        bucket = index.get(tuple(map(merged.__getitem__, shared)))
        return bucket[0] if bucket else None

    def add(self, seq: int, token: DataToken) -> None:
        self.entries[seq] = token
        for shared, index in self.indices.items():
            index.setdefault(_projection(token, shared), []).append(seq)

    def discard(self, seq: int) -> DataToken:
        """Remove token *seq* from the group and from every index
        holding it, and return it.

        Tokens are found by arrival number: they compare by payload,
        and a payload such as a numpy array has no truth value.
        """
        token = self.entries.pop(seq)
        for shared, index in self.indices.items():
            key = _projection(token, shared)
            bucket = index[key]
            del bucket[bisect_left(bucket, seq)]
            if not bucket:
                del index[key]
        return token


def _projection(token: DataToken, shared: Tuple[str, ...]) -> tuple:
    """*token*'s lineage restricted to the sources in *shared*."""
    return tuple(map(token.history.lineage.__getitem__, shared))


class IterationEngine:
    """Incremental dot/cross combiner over a processor's input ports."""

    def __init__(self, ports: Tuple[str, ...], strategy: str) -> None:
        if not ports:
            raise ValueError("an iteration engine needs at least one port")
        if strategy not in ("dot", "cross"):
            raise ValueError(f"unknown strategy {strategy!r} (expected 'dot' or 'cross')")
        self.ports = tuple(ports)
        self.strategy = strategy
        #: dot: per-port unconsumed tokens, grouped by sorted lineage sources
        self._groups: Dict[str, Dict[Tuple[str, ...], _SourceGroup]] = {
            port: {} for port in ports
        }
        #: cross: per-port tokens seen so far
        self._seen: Dict[str, List[DataToken]] = {port: [] for port in ports}
        self._arrivals: Iterator[int] = count()
        self.offered = 0
        self.fired = 0

    def offer(self, port: str, token: DataToken) -> List[Binding]:
        """Feed one token; return bindings that just became fireable."""
        if port not in self.ports:
            raise KeyError(f"unknown port {port!r}; engine ports are {self.ports}")
        self.offered += 1
        if self.strategy == "dot":
            bindings = self._offer_dot(port, token)
        else:
            bindings = self._offer_cross(port, token)
        self.fired += len(bindings)
        return bindings

    # -- dot --------------------------------------------------------------
    def _offer_dot(self, port: str, token: DataToken) -> List[Binding]:
        if len(self.ports) == 1:
            return [{port: token}]
        matches = self._try_match(port, token)
        if matches is None:
            sources = tuple(sorted(token.history.lineage))
            groups = self._groups[port]
            group = groups.get(sources)
            if group is None:
                group = groups[sources] = _SourceGroup(sources)
            group.add(next(self._arrivals), token)
            return []
        binding: Binding = {port: token}
        for other, group, seq in matches:
            binding[other] = group.discard(seq)
        return [binding]

    def _try_match(
        self, port: str, token: DataToken
    ) -> Optional[List[Tuple[str, _SourceGroup, int]]]:
        """Greedy compatibility search seeded by the newly arrived token.

        For each other port, take the earliest-arrived buffered token
        compatible with everything chosen so far.  Greedy matching is
        exact for the tree-shaped dataflows of the paper's applications,
        where lineages on shared sources are equal or disjoint.
        """
        merged = token.history.lineage
        matches = []
        for other in self.ports:
            if other == port:
                continue
            best: Optional[Tuple[int, _SourceGroup]] = None
            for group in self._groups[other].values():
                if not group.entries:
                    continue
                seq = group.first_match(merged)
                if seq is not None and (best is None or seq < best[0]):
                    best = (seq, group)
            if best is None:
                return None
            seq, group = best
            matches.append((other, group, seq))
            merged = {**merged, **group.entries[seq].history.lineage}
        return matches

    # -- cross -------------------------------------------------------------
    def _offer_cross(self, port: str, token: DataToken) -> List[Binding]:
        other_ports = [p for p in self.ports if p != port]
        if not other_ports:
            return [{port: token}]
        pools = [self._seen[p] for p in other_ports]
        bindings: List[Binding] = []
        if all(pools):
            for combination in product(*pools):
                binding: Binding = {port: token}
                binding.update(dict(zip(other_ports, combination)))
                bindings.append(binding)
        # Record the token *after* combining so it never pairs with itself.
        self._seen[port].append(token)
        return bindings

    # -- bookkeeping -----------------------------------------------------------
    def buffered(self, port: str) -> int:
        """Unconsumed (dot) / total seen (cross) tokens on *port*."""
        if self.strategy == "cross":
            return len(self._seen[port])
        return sum(len(group.entries) for group in self._groups[port].values())

    def __repr__(self) -> str:
        counts = {p: self.buffered(p) for p in self.ports}
        return f"<IterationEngine {self.strategy} ports={counts} fired={self.fired}>"


def expected_bindings(strategy: str, per_port_counts: Mapping[str, int]) -> int:
    """How many bindings a full set of streams will produce.

    Dot: ``min`` over ports (the paper's ``min(n, m)``);
    cross: product over ports (the paper's ``n × m``).
    Used by the enactor's stream-completion accounting (barriers and
    synchronization processors need to know when a stream has ended).
    """
    if not per_port_counts:
        return 1  # a no-input service fires exactly once
    counts = list(per_port_counts.values())
    if strategy == "dot":
        return min(counts)
    if strategy == "cross":
        result = 1
        for count in counts:
            result *= count
        return result
    raise ValueError(f"unknown strategy {strategy!r}")
