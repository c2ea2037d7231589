"""Property-based tests for history trees and iteration strategies."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.failures import InvocationFailure
from repro.core.iteration import IterationEngine
from repro.core.provenance import HistoryTree, compatible
from repro.core.tokens import DataToken
from repro.services.base import GridData


def token(source, index):
    return DataToken(GridData(value=index), HistoryTree.leaf(source, index))


def derived(producer, base):
    return DataToken(GridData(value=base.value), HistoryTree.derive(producer, (base.history,)))


class GreedyScan:
    """Reference dot-product matcher: the arrival-order scan over each
    port's buffer that the indexed :class:`IterationEngine` replaced."""

    def __init__(self, ports):
        self.ports = tuple(ports)
        self._buffers = {port: [] for port in ports}

    def offer(self, port, token):
        self._buffers[port].append(token)
        binding = self._try_match(port, token)
        if binding is None:
            return []
        for bport, btoken in binding.items():
            self._buffers[bport].remove(btoken)
        return [binding]

    def _try_match(self, port, token):
        chosen = {port: token}
        for other in self.ports:
            if other == port:
                continue
            found = None
            for candidate in self._buffers[other]:
                if all(compatible(candidate.history, t.history) for t in chosen.values()):
                    found = candidate
                    break
            if found is None:
                return None
            chosen[other] = found
        return chosen

    def buffered(self, port):
        return len(self._buffers[port])


#: sources the ports share (S, T) or may share (U), besides one private
#: source per port, so lineages are shared, partly shared or independent
SHARED_SOURCES = ("S", "T", "U")
POISON = InvocationFailure(processor="P", label="D0", lineage={}, error="lost", failed_at=0.0)


@st.composite
def dot_streams(draw):
    """Ports and a shuffled stream of (port, token) offers to them."""
    ports = ("a", "b", "c")[: draw(st.integers(2, 3))]
    offers = []
    for serial in range(draw(st.integers(0, 24))):
        port = draw(st.sampled_from(ports))
        sources = draw(
            st.lists(st.sampled_from(SHARED_SOURCES + (f"own-{port}",)), max_size=3, unique=True)
        )
        parents = []
        for source in sources:
            if draw(st.booleans()):
                parents.append(HistoryTree.leaf(source, draw(st.integers(0, 3))))
            else:  # a synchronization barrier's multi-index lineage, D(0-k)
                leaves = [HistoryTree.leaf(source, i) for i in range(draw(st.integers(1, 3)))]
                parents.append(HistoryTree.derive("barrier", tuple(leaves)))
        failure = POISON if draw(st.integers(0, 4)) == 0 else None
        history = HistoryTree.derive(f"P-{port}", tuple(parents))
        offers.append((port, DataToken(GridData(value=serial), history, failure)))
    return ports, draw(st.permutations(offers))


class TestCompatibilityProperties:
    @given(st.integers(0, 50), st.integers(0, 50))
    def test_reflexive_and_symmetric(self, i, j):
        a = HistoryTree.leaf("S", i)
        b = HistoryTree.leaf("S", j)
        assert compatible(a, a)
        assert compatible(a, b) == compatible(b, a)
        assert compatible(a, b) == (i == j)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True))
    def test_derivation_preserves_compatibility(self, indices):
        # Processing never changes what a datum is derived from.
        leaves = [HistoryTree.leaf("S", i) for i in indices]
        processed = [HistoryTree.derive("P", (leaf,)) for leaf in leaves]
        for leaf, proc in zip(leaves, processed):
            assert compatible(leaf, proc)
        for a, pa in zip(leaves, processed):
            for b, pb in zip(leaves, processed):
                assert compatible(pa, pb) == compatible(a, b)

    @given(st.integers(0, 30), st.integers(2, 8))
    def test_deep_chains_keep_identity(self, index, depth):
        node = HistoryTree.leaf("S", index)
        for level in range(depth):
            node = HistoryTree.derive(f"P{level}", (node,))
        assert node.lineage == {"S": frozenset({index})}
        assert node.label() == f"D{index}"


class TestDotProductProperties:
    @given(
        st.integers(1, 10),
        st.integers(1, 10),
        st.randoms(use_true_random=False),
    )
    def test_min_cardinality_under_any_arrival_order(self, n, m, rnd):
        """min(n, m) bindings fire no matter how arrivals interleave."""
        eng = IterationEngine(("a", "b"), "dot")
        offers = [("a", derived("P1", token("S", i))) for i in range(n)]
        offers += [("b", derived("P2", token("S", j))) for j in range(m)]
        rnd.shuffle(offers)
        fired = []
        for port, tok in offers:
            fired.extend(eng.offer(port, tok))
        assert len(fired) == min(n, m)
        # and every binding is causally consistent: same source index
        for binding in fired:
            ia = next(iter(binding["a"].history.lineage["S"]))
            ib = next(iter(binding["b"].history.lineage["S"]))
            assert ia == ib

    @given(st.integers(0, 8), st.integers(0, 8))
    def test_independent_sources_min_cardinality(self, n, m):
        eng = IterationEngine(("a", "b"), "dot")
        fired = 0
        for i in range(n):
            fired += len(eng.offer("a", token("A", i)))
        for j in range(m):
            fired += len(eng.offer("b", token("B", j)))
        assert fired == min(n, m)

    @given(dot_streams())
    def test_indexed_matching_equals_greedy_scan(self, stream):
        ports, offers = stream
        engine, oracle = IterationEngine(ports, "dot"), GreedyScan(ports)
        for port, tok in offers:
            got = [[(p, id(t)) for p, t in b.items()] for b in engine.offer(port, tok)]
            want = [[(p, id(t)) for p, t in b.items()] for b in oracle.offer(port, tok)]
            assert got == want
            assert [engine.buffered(p) for p in ports] == [oracle.buffered(p) for p in ports]


class TestCrossProductProperties:
    @given(st.integers(0, 6), st.integers(0, 6), st.randoms(use_true_random=False))
    def test_cartesian_cardinality_under_any_order(self, n, m, rnd):
        eng = IterationEngine(("a", "b"), "cross")
        offers = [("a", token("A", i)) for i in range(n)]
        offers += [("b", token("B", j)) for j in range(m)]
        rnd.shuffle(offers)
        combos = set()
        for port, tok in offers:
            for binding in eng.offer(port, tok):
                combos.add((binding["a"].value, binding["b"].value))
        assert len(combos) == n * m

    @given(st.integers(1, 5), st.integers(1, 5))
    def test_result_lineage_is_union(self, i, j):
        a = token("A", i)
        b = token("B", j)
        node = HistoryTree.derive("X", (a.history, b.history))
        assert node.lineage == {"A": frozenset({i}), "B": frozenset({j})}
