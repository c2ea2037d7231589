"""Tests for dot/cross iteration strategies."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.iteration import IterationEngine, expected_bindings
from repro.core.provenance import HistoryTree
from repro.core.tokens import DataToken
from repro.services.base import GridData


def token(source, index):
    return DataToken(GridData(value=f"{source}{index}"), HistoryTree.leaf(source, index))


def derived(producer, *parents):
    return DataToken(
        GridData(value=producer), HistoryTree.derive(producer, tuple(p.history for p in parents))
    )


class TestSinglePort:
    def test_every_token_fires(self):
        eng = IterationEngine(("x",), "dot")
        for i in range(3):
            bindings = eng.offer("x", token("S", i))
            assert len(bindings) == 1
            assert bindings[0]["x"].value == f"S{i}"

    def test_cross_same_as_dot_for_single_port(self):
        eng = IterationEngine(("x",), "cross")
        assert len(eng.offer("x", token("S", 0))) == 1


class TestDotProduct:
    def test_in_order_pairing(self):
        eng = IterationEngine(("a", "b"), "dot")
        assert eng.offer("a", token("A", 0)) == []
        bindings = eng.offer("b", token("B", 0))
        assert len(bindings) == 1
        assert bindings[0]["a"].value == "A0"
        assert bindings[0]["b"].value == "B0"

    def test_min_cardinality(self):
        # paper: "producing min(n, m) results"
        eng = IterationEngine(("a", "b"), "dot")
        fired = 0
        for i in range(5):
            fired += len(eng.offer("a", token("A", i)))
        for j in range(3):
            fired += len(eng.offer("b", token("B", j)))
        assert fired == 3
        assert eng.buffered("a") == 2  # two unmatched leftovers

    def test_out_of_order_arrival_matched_by_provenance(self):
        # The Section 4.1 causality problem: items overtake each other
        # under DP+SP; provenance restores correct pairing.
        eng = IterationEngine(("left", "right"), "dot")
        s0, s1 = token("S", 0), token("S", 1)
        left1 = derived("P1", s1)   # item 1 finished P1 first
        left0 = derived("P1", s0)
        right0 = derived("P2", s0)  # item 0 finished P2 first
        right1 = derived("P2", s1)
        assert eng.offer("left", left1) == []
        assert eng.offer("left", left0) == []
        b0 = eng.offer("right", right0)
        assert len(b0) == 1 and b0[0]["left"] is left0  # not left1!
        b1 = eng.offer("right", right1)
        assert len(b1) == 1 and b1[0]["left"] is left1

    def test_independent_sources_pair_positionally(self):
        eng = IterationEngine(("a", "b"), "dot")
        eng.offer("a", token("A", 0))
        eng.offer("a", token("A", 1))
        b0 = eng.offer("b", token("B", 0))
        assert b0[0]["a"].value == "A0"  # arrival order

    def test_three_port_dot(self):
        eng = IterationEngine(("a", "b", "c"), "dot")
        eng.offer("a", token("S", 0))
        eng.offer("b", derived("P", token("S", 0)))
        bindings = eng.offer("c", derived("Q", token("S", 0)))
        assert len(bindings) == 1
        assert set(bindings[0]) == {"a", "b", "c"}

    def test_tokens_consumed_once(self):
        eng = IterationEngine(("a", "b"), "dot")
        eng.offer("a", token("S", 0))
        assert len(eng.offer("b", derived("P", token("S", 0)))) == 1
        # a second b-token for the same item finds no unconsumed partner
        assert eng.offer("b", derived("P", token("S", 0))) == []

    def test_array_payloads_consumed_without_comparison(self):
        # Tokens compare by payload; a numpy payload has no truth value,
        # so consumption must not look for the partner with ==.
        eng = IterationEngine(("left", "right"), "dot")
        s0, s1 = token("S", 0), token("S", 1)
        left1 = DataToken(GridData(value=np.ones(3)), derived("P1", s1).history)
        left0 = DataToken(GridData(value=np.ones(3)), derived("P1", s0).history)
        eng.offer("left", left1)
        eng.offer("left", left0)
        bindings = eng.offer("right", derived("P2", s0))
        assert len(bindings) == 1 and bindings[0]["left"] is left0
        assert eng.buffered("left") == 1
        assert eng.offer("right", derived("P2", s1))[0]["left"] is left1

    def test_equal_tokens_consume_the_matched_object(self):
        eng = IterationEngine(("a", "b"), "dot")
        first, second = token("S", 0), token("S", 0)
        assert first == second and first is not second
        eng.offer("a", first)
        eng.offer("a", second)
        assert eng.offer("b", derived("P", token("S", 0)))[0]["a"] is first
        assert eng.offer("b", derived("P", token("S", 0)))[0]["a"] is second
        assert eng.buffered("a") == 0


class TestDotProductCost:
    @staticmethod
    def lineage_reads_per_offer(monkeypatch, n):
        """Lineage reads per offer for *n* pairs arriving in reverse order."""
        sources = [token("S", i) for i in range(n)]
        offers = [("left", derived("P1", s)) for s in sources]
        offers += [("right", derived("P2", s)) for s in reversed(sources)]
        reads = [0]
        lineage = HistoryTree.lineage

        def counted(tree):
            reads[0] += 1
            return lineage.fget(tree)

        eng = IterationEngine(("left", "right"), "dot")
        with monkeypatch.context() as patch:
            patch.setattr(HistoryTree, "lineage", property(counted))
            fired = sum(len(eng.offer(port, tok)) for port, tok in offers)
        assert fired == n
        return reads[0] / len(offers)

    def test_lineage_reads_per_offer_flat_in_buffer_size(self, monkeypatch):
        small = self.lineage_reads_per_offer(monkeypatch, 100)
        large = self.lineage_reads_per_offer(monkeypatch, 2000)
        assert large <= 1.3 * small, (small, large)


class TestDotProductMemory:
    def test_consumed_tokens_are_released(self):
        # Port c's tokens derive from S and T; offers on a and b look c
        # up by S alone and by T alone, so c's buffer holds two indices
        # and consumption must clear both.
        def pair_source(i):
            parents = (HistoryTree.leaf("S", i), HistoryTree.leaf("T", i))
            return DataToken(GridData(value=f"c{i}"), HistoryTree.derive("X", parents))

        eng = IterationEngine(("c", "a", "b"), "dot")
        # offered first and never matched, it must outlive the others
        leftover = pair_source(9)
        offers = [("c", leftover)] + [("c", pair_source(i)) for i in range(4)]
        offers += [("a", derived("A", token("S", i))) for i in range(4)]
        offers += [("b", derived("B", token("T", i))) for i in reversed(range(4))]
        refs = [weakref.ref(tok) for _, tok in offers]
        fired = [eng.offer(port, tok) for port, tok in offers]
        assert sum(len(bindings) for bindings in fired) == 4
        assert [eng.buffered(port) for port in "cab"] == [1, 0, 0]
        assert "ports={'c': 1, 'a': 0, 'b': 0}" in repr(eng)
        del fired, offers
        gc.collect()
        assert [ref() for ref in refs] == [leftover] + [None] * 12
        # no index still offers a consumed token
        for i in range(4):
            assert eng.offer("b", derived("B", token("T", i))) == []
        assert [eng.buffered(port) for port in "cab"] == [1, 0, 4]


class TestCrossProduct:
    def test_full_cartesian(self):
        # paper: "producing m x n results"
        eng = IterationEngine(("a", "b"), "cross")
        fired = 0
        for i in range(3):
            fired += len(eng.offer("a", token("A", i)))
        for j in range(4):
            fired += len(eng.offer("b", token("B", j)))
        assert fired == 12

    def test_combinations_unique(self):
        eng = IterationEngine(("a", "b"), "cross")
        seen = set()
        for i in range(2):
            for binding in eng.offer("a", token("A", i)):
                seen.add((binding["a"].value, binding["b"].value))
        for j in range(2):
            for binding in eng.offer("b", token("B", j)):
                seen.add((binding["a"].value, binding["b"].value))
        assert seen == {("A0", "B0"), ("A0", "B1"), ("A1", "B0"), ("A1", "B1")}

    def test_interleaved_arrivals(self):
        eng = IterationEngine(("a", "b"), "cross")
        total = 0
        total += len(eng.offer("a", token("A", 0)))  # 0
        total += len(eng.offer("b", token("B", 0)))  # 1
        total += len(eng.offer("a", token("A", 1)))  # 1
        total += len(eng.offer("b", token("B", 1)))  # 2
        assert total == 4


class TestValidation:
    def test_unknown_port_rejected(self):
        eng = IterationEngine(("a",), "dot")
        with pytest.raises(KeyError):
            eng.offer("zzz", token("S", 0))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            IterationEngine(("a",), "zip")

    def test_empty_ports_rejected(self):
        with pytest.raises(ValueError):
            IterationEngine((), "dot")


class TestExpectedBindings:
    def test_dot_is_min(self):
        assert expected_bindings("dot", {"a": 5, "b": 3}) == 3

    def test_cross_is_product(self):
        assert expected_bindings("cross", {"a": 5, "b": 3}) == 15

    def test_no_ports_fires_once(self):
        assert expected_bindings("dot", {}) == 1

    def test_zero_stream(self):
        assert expected_bindings("dot", {"a": 0, "b": 3}) == 0
        assert expected_bindings("cross", {"a": 0, "b": 3}) == 0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            expected_bindings("zip", {"a": 1})
