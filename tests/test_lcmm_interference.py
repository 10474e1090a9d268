"""Tests for repro.lcmm.interference."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lcmm.buffers import CandidateTensor, TensorClass
from repro.lcmm.interference import InterferenceGraph
from repro.lcmm.liveness import LiveRange

from tests.oracles import pairwise_interference


def make_tensor(name: str, start: int, end: int, size: int = 100) -> CandidateTensor:
    return CandidateTensor(
        name=name,
        tensor_class=TensorClass.FEATURE,
        size_bytes=size,
        live_range=LiveRange(start, end),
        affected_nodes=(name,),
    )


class TestConstruction:
    def test_overlapping_tensors_interfere(self):
        g = InterferenceGraph.from_tensors(
            [make_tensor("a", 0, 3), make_tensor("b", 2, 5)]
        )
        assert g.interferes("a", "b")
        assert g.neighbors("a") == {"b"}

    def test_disjoint_tensors_do_not_interfere(self):
        g = InterferenceGraph.from_tensors(
            [make_tensor("a", 0, 1), make_tensor("b", 2, 3)]
        )
        assert not g.interferes("a", "b")
        assert g.edge_count() == 0

    def test_duplicate_tensor_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            InterferenceGraph.from_tensors(
                [make_tensor("a", 0, 1), make_tensor("a", 4, 5)]
            )

    def test_len_counts_tensors(self):
        g = InterferenceGraph.from_tensors(
            [make_tensor("a", 0, 1), make_tensor("b", 0, 1), make_tensor("c", 9, 9)]
        )
        assert len(g) == 3
        assert g.edge_count() == 1


class TestFalseEdges:
    def test_false_edge_forces_interference(self):
        g = InterferenceGraph.from_tensors(
            [make_tensor("a", 0, 1), make_tensor("b", 5, 6)]
        )
        assert not g.interferes("a", "b")
        g.add_false_edge("a", "b")
        assert g.interferes("a", "b")
        assert frozenset(("a", "b")) in g.false_edges()

    def test_false_edge_idempotent(self):
        g = InterferenceGraph.from_tensors(
            [make_tensor("a", 0, 1), make_tensor("b", 5, 6)]
        )
        g.add_false_edge("a", "b")
        g.add_false_edge("b", "a")
        assert g.edge_count() == 1
        assert len(g.false_edges()) == 1

    def test_false_edge_over_real_edge_records_nothing(self):
        g = InterferenceGraph.from_tensors(
            [make_tensor("a", 0, 3), make_tensor("b", 1, 2)]
        )
        g.add_false_edge("a", "b")
        assert g.false_edges() == set()

    def test_self_edge_rejected(self):
        g = InterferenceGraph.from_tensors([make_tensor("a", 0, 1)])
        with pytest.raises(ValueError):
            g.add_false_edge("a", "a")

    def test_unknown_tensor_rejected(self):
        g = InterferenceGraph.from_tensors([make_tensor("a", 0, 1)])
        with pytest.raises(KeyError):
            g.add_false_edge("a", "ghost")


@st.composite
def live_ranges(draw):
    """Tensors over a short schedule, so starts collide, endpoints touch
    and single-step ranges are common."""
    count = draw(st.integers(min_value=0, max_value=14))
    tensors = []
    for i in range(count):
        start = draw(st.integers(min_value=0, max_value=6))
        length = draw(st.integers(min_value=0, max_value=4))
        tensors.append(make_tensor(f"t{i}", start, start + length))
    return tensors


class TestSweepMatchesPairwise:
    @given(live_ranges())
    @settings(max_examples=200, deadline=None)
    def test_adjacency_equals_oracle(self, tensors):
        g = InterferenceGraph.from_tensors(tensors)
        assert list(g.tensors) == [t.name for t in tensors]
        assert {name: g.neighbors(name) for name in g.tensors} == pairwise_interference(
            tensors
        )

    def test_edge_cases_equal_oracle(self):
        # Equal starts, touching endpoints ([0, 2] and [2, 4] share step
        # 2) and single-step ranges, listed out of start order.
        tensors = [
            make_tensor("touch", 2, 4),
            make_tensor("a", 0, 2),
            make_tensor("b", 0, 0),
            make_tensor("point", 4, 4),
            make_tensor("after", 5, 5),
        ]
        g = InterferenceGraph.from_tensors(tensors)
        oracle = pairwise_interference(tensors)
        assert {name: g.neighbors(name) for name in g.tensors} == oracle
        assert oracle["touch"] == {"a", "point"}
        assert oracle["after"] == set()
