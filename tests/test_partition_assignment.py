"""Unit tests for PartitionAssignment and static metrics."""

import pytest

from repro.errors import PartitionError
from repro.partition import PartitionAssignment, edge_cut, load_imbalance
from repro.partition.metrics import (
    concurrency_score,
    cut_fraction,
    external_messages_upper_bound,
    gain_of_move,
    partition_quality,
)


class TestAssignment:
    def test_validate_rejects_out_of_range(self, s27):
        a = PartitionAssignment(s27, 2, [0] * s27.num_gates)
        a.assignment[3] = 7
        with pytest.raises(PartitionError, match="legal range"):
            a.validate()

    def test_validate_rejects_empty_partition(self, s27):
        a = PartitionAssignment(s27, 2, [0] * s27.num_gates)
        with pytest.raises(PartitionError, match="empty"):
            a.validate()

    def test_wrong_length_rejected(self, s27):
        with pytest.raises(PartitionError, match="covers"):
            PartitionAssignment(s27, 2, [0, 1])

    def test_parts_inverse_of_assignment(self, s27):
        a = PartitionAssignment(
            s27, 3, [i % 3 for i in range(s27.num_gates)]
        )
        for part, members in enumerate(a.parts()):
            assert all(a[g] == part for g in members)


class TestMetrics:
    def test_single_partition_has_zero_cut(self, s27):
        a = PartitionAssignment(s27, 1, [0] * s27.num_gates)
        assert edge_cut(a) == 0
        assert cut_fraction(a) == 0.0
        assert external_messages_upper_bound(a) == 0

    def test_cut_counts_cross_edges(self, s27):
        # put one specific gate alone in partition 1
        g = s27.index_of("G9")
        assignment = [0] * s27.num_gates
        assignment[g] = 1
        a = PartitionAssignment(s27, 2, assignment)
        degree = len(s27.fanin(g)) + len(s27.fanout(g))
        assert edge_cut(a) == degree

    def test_perfect_balance_is_one(self, s27):
        # s27 has 17 gates; a 17-way split is perfectly balanced.
        a = PartitionAssignment(s27, 17, list(range(17)))
        assert load_imbalance(a) == pytest.approx(1.0)

    def test_imbalance_grows_with_skew(self, s27):
        n = s27.num_gates
        skew = [0] * (n - 1) + [1]
        a = PartitionAssignment(s27, 2, skew)
        assert load_imbalance(a) == pytest.approx((n - 1) / (n / 2))

    def test_concurrency_bounds(self, medium_circuit):
        import numpy as np

        rng = np.random.default_rng(0)
        a = PartitionAssignment(
            medium_circuit,
            4,
            [int(rng.integers(0, 4)) for _ in range(medium_circuit.num_gates)],
        )
        assert 0.0 < concurrency_score(a) <= 1.0

    def test_quality_dataclass_fields(self, s27):
        a = PartitionAssignment(
            s27, 2, [i % 2 for i in range(s27.num_gates)], algorithm="alt"
        )
        q = partition_quality(a)
        assert q.algorithm == "alt"
        assert q.k == 2
        assert q.edge_cut == edge_cut(a)
        assert sum(q.sizes) == s27.num_gates

    def test_gain_of_move_matches_cut_delta(self, s27):
        assignment = [i % 2 for i in range(s27.num_gates)]
        a = PartitionAssignment(s27, 2, list(assignment))
        before = edge_cut(a)
        gate = s27.index_of("G15")
        gain = gain_of_move(s27, assignment, gate, 1 - assignment[gate])
        assignment[gate] = 1 - assignment[gate]
        after = edge_cut(PartitionAssignment(s27, 2, assignment))
        assert before - after == gain
