"""Tests for SubsidyAssignment."""

import numpy as np
import pytest

from repro.graphs import Graph
from repro.subsidies import SubsidyAssignment


@pytest.fixture
def g():
    return Graph.from_edges([(0, 1, 2.0), (1, 2, 1.0), (0, 2, 3.0)])


class TestValidation:
    def test_basic(self, g):
        s = SubsidyAssignment(g, {(0, 1): 1.5})
        assert s[(1, 0)] == 1.5
        assert s.cost == 1.5

    def test_rejects_non_edge(self, g):
        with pytest.raises(ValueError):
            SubsidyAssignment(g, {(0, 9): 1.0})

    def test_rejects_over_weight(self, g):
        with pytest.raises(ValueError):
            SubsidyAssignment(g, {(1, 2): 1.5})

    def test_rejects_negative(self, g):
        with pytest.raises(ValueError):
            SubsidyAssignment(g, {(1, 2): -0.5})

    def test_clips_roundoff(self, g):
        s = SubsidyAssignment(g, {(1, 2): 1.0 + 1e-9, (0, 1): -1e-9})
        assert s.get((1, 2)) == 1.0
        assert s.get((0, 1)) == 0.0
        assert (0, 1) not in s

    def test_zero_entries_dropped(self, g):
        s = SubsidyAssignment(g, {(0, 1): 0.0})
        assert len(s) == 0

    def test_roundoff_zeros_dropped_before_the_edge_check(self, g):
        s = SubsidyAssignment(g, {(0, 9): 0.0, (5, 5): -1e-7, (0, 1): 1.0})
        assert dict(s.items()) == {(0, 1): 1.0}
        with pytest.raises(ValueError):
            SubsidyAssignment(g, {(0, 9): 1e-9})


class TestMappingProtocol:
    def test_get_default(self, g):
        s = SubsidyAssignment(g, {(0, 1): 1.0})
        assert s.get((1, 2)) == 0.0
        assert s.get((1, 2), 7.0) == 7.0

    def test_canonicalizes_keys(self, g):
        s = SubsidyAssignment(g, {(1, 0): 1.0})
        assert s[(0, 1)] == 1.0
        assert (1, 0) in s

    def test_contains_garbage(self, g):
        s = SubsidyAssignment(g, {})
        assert 42 not in s

    def test_iteration(self, g):
        s = SubsidyAssignment(g, {(0, 1): 1.0, (1, 2): 0.5})
        assert set(s) == {(0, 1), (1, 2)}
        assert len(s) == 2


class TestQuantities:
    def test_cost_on_subset(self, g):
        s = SubsidyAssignment(g, {(0, 1): 1.0, (1, 2): 0.5})
        assert s.cost_on([(0, 1)]) == 1.0
        assert s.cost_on([(0, 1), (0, 2)]) == 1.0

    def test_fraction(self, g):
        s = SubsidyAssignment(g, {(0, 1): 1.0})
        assert s.fraction_of(4.0) == 0.25
        with pytest.raises(ValueError):
            s.fraction_of(0.0)

    def test_all_or_nothing_detection(self, g):
        assert SubsidyAssignment(g, {(1, 2): 1.0}).is_all_or_nothing()
        assert SubsidyAssignment(g, {}).is_all_or_nothing()
        assert not SubsidyAssignment(g, {(0, 1): 1.0}).is_all_or_nothing()

    def test_subsidized_edges(self, g):
        s = SubsidyAssignment(g, {(0, 1): 2.0})
        assert s.subsidized_edges() == ((0, 1),)


class TestConstructors:
    def test_zero(self, g):
        assert SubsidyAssignment.zero(g).cost == 0.0

    def test_full_on(self, g):
        s = SubsidyAssignment.full_on(g, [(0, 1), (1, 2)])
        assert s.cost == 3.0
        assert s.is_all_or_nothing()

    def test_from_vector(self, g):
        s = SubsidyAssignment.from_vector(g, [(0, 1), (1, 2)], np.array([0.5, 1.0]))
        assert s.cost == 1.5

    def test_from_vector_validates_as_the_constructor_does(self, g):
        """Round-off in [-tol, 0] drops, anything beyond tol still raises."""
        edges = [(0, 1), (1, 2), (0, 2)]
        s = SubsidyAssignment.from_vector(g, edges, np.array([-1e-7, 1.0 + 1e-7, 0.0]))
        assert dict(s.items()) == {(1, 2): 1.0}
        with pytest.raises(ValueError):
            SubsidyAssignment.from_vector(g, edges, np.array([0.0, -1e-5, 0.0]))
        with pytest.raises(ValueError):
            SubsidyAssignment.from_vector(g, edges, np.array([0.0, 0.0, 3.1]))
        # zip semantics: a longer vector (LP (2)'s potentials) is cut off
        s = SubsidyAssignment.from_vector(g, edges[:1], np.array([0.5, 9.0]))
        assert dict(s.items()) == {(0, 1): 0.5}

    def test_combined_with(self, g):
        a = SubsidyAssignment(g, {(0, 1): 0.5})
        b = SubsidyAssignment(g, {(0, 1): 0.5, (1, 2): 1.0})
        c = a.combined_with(b)
        assert c[(0, 1)] == 1.0
        assert c.cost == 2.0

    def test_combined_rejects_overflow(self, g):
        a = SubsidyAssignment(g, {(1, 2): 1.0})
        with pytest.raises(ValueError):
            a.combined_with(a)
