from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from memlit.relation import Relation, first_extension, ordered_extensions

from support import (
    compose,
    is_irreflexive_and_acyclic,
    linear_extensions,
    reachable_pairs,
    restrict,
    transitive_closure,
    union,
)


def rel(universe, pairs=()):
    return Relation.of(universe, pairs)


class TestClosure:
    def test_two_step_chain(self):
        r = rel(range(3), [(0, 1), (1, 2)])
        assert transitive_closure(r).pairs == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_empty(self):
        r = rel(range(4))
        assert transitive_closure(r).pairs == frozenset()

    def test_four_cycle_reaches_everything(self):
        r = rel(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        expected = frozenset(itertools.product(range(4), repeat=2))
        assert transitive_closure(r).pairs == expected
        assert reachable_pairs(range(4), r.pairs) == expected

    def test_universe_preserved(self):
        r = rel(range(5), [(0, 1)])
        assert transitive_closure(r).universe == frozenset(range(5))


class TestAcyclicity:
    def test_dag(self):
        assert is_irreflexive_and_acyclic(rel(range(3), [(0, 1), (0, 2), (1, 2)]))

    def test_self_loop(self):
        assert not is_irreflexive_and_acyclic(rel(range(2), [(0, 0)]))

    def test_long_cycle(self):
        assert not is_irreflexive_and_acyclic(rel(range(3), [(0, 1), (1, 2), (2, 0)]))


class TestAlgebra:
    def test_union(self):
        a = rel(range(3), [(0, 1)])
        b = rel(range(3), [(1, 2)])
        assert union(a, b).pairs == frozenset({(0, 1), (1, 2)})

    def test_compose(self):
        a = rel(range(3), [(0, 1)])
        b = rel(range(3), [(1, 2)])
        assert compose(a, b).pairs == frozenset({(0, 2)})

    def test_universe_mismatch_raises(self):
        with pytest.raises(ValueError):
            union(rel(range(2)), rel(range(3)))
        with pytest.raises(ValueError):
            compose(rel(range(2)), rel(range(3)))

    def test_restrict_keeps_universe(self):
        r = rel(range(4), [(0, 1), (1, 2), (2, 3)])
        s = restrict(r, lambda e: e != 1)
        assert s.universe == r.universe
        assert s.pairs == frozenset({(2, 3)})

    def test_pairs_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            Relation(frozenset({0}), frozenset({(0, 1)}))


class TestLinearExtensions:
    def test_antichain_gives_all_permutations(self):
        orders = list(linear_extensions(rel(range(3)), range(3)))
        assert sorted(orders) == sorted(itertools.permutations(range(3)))

    def test_chain_gives_single_order(self):
        r = rel(range(3), [(0, 1), (1, 2)])
        assert list(linear_extensions(r, range(3))) == [(0, 1, 2)]

    def test_every_extension_respects_partial(self):
        r = rel(range(4), [(0, 2), (1, 3)])
        for order in linear_extensions(r, range(4)):
            assert order.index(0) < order.index(2)
            assert order.index(1) < order.index(3)

    def test_deterministic_first_order(self):
        r = rel(range(4), [(2, 0)])
        assert next(iter(linear_extensions(r, range(4)))) == (1, 2, 0, 3)

    def test_cyclic_constraint_raises_eagerly(self):
        r = rel(range(2), [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            linear_extensions(r, range(2))

    def test_elements_outside_universe_raise(self):
        with pytest.raises(ValueError):
            linear_extensions(rel(range(2)), [0, 5])

    def test_subset_ignores_outside_constraints(self):
        r = rel(range(4), [(0, 3), (1, 2)])
        assert list(linear_extensions(r, [1, 2])) == [(1, 2)]


small_relations = st.builds(
    lambda n, pairs: rel(range(n), {(a % n, b % n) for a, b in pairs}),
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
)


@given(small_relations)
def test_closure_matches_reachability_oracle(r):
    assert transitive_closure(r).pairs == reachable_pairs(r.universe, r.pairs)


@given(small_relations)
def test_closure_is_idempotent_and_monotone(r):
    c = transitive_closure(r)
    assert r.pairs <= c.pairs
    assert transitive_closure(c).pairs == c.pairs


@given(small_relations)
def test_extensions_linearize_acyclic_relations(r):
    elements = sorted(r.universe)
    proper = Relation.of(r.universe, {(a, b) for a, b in r.pairs if a != b})
    if not is_irreflexive_and_acyclic(proper):
        with pytest.raises(ValueError):
            linear_extensions(r, elements)
        return
    seen = 0
    for order in linear_extensions(r, elements):
        seen += 1
        pos = {e: i for i, e in enumerate(order)}
        assert all(pos[a] < pos[b] for a, b in r.pairs if a != b)
        if seen >= 24:
            break
    assert seen >= 1


@st.composite
def predecessor_masks(draw):
    """Up to six keys with random predecessor masks.  Half the draws take
    each key's predecessors from the keys before it in a random order, so
    they are acyclic; the rest may set any key's bit, its own included."""
    keys = draw(st.lists(st.integers(0, 9), unique=True, max_size=6))
    ranked = draw(st.booleans())
    preds = {}
    for i, k in enumerate(keys):
        allowed = keys[:i] if ranked else keys
        preds[k] = sum(1 << j for j in draw(st.sets(st.sampled_from(allowed)))) if allowed else 0
    return preds


@given(predecessor_masks())
def test_first_extension_is_the_first_ordered_extension(preds):
    first = first_extension(preds)
    constraint = rel(preds, {(a, b) for b, mask in preds.items() for a in preds if mask >> a & 1})
    assert (first is None) == (not is_irreflexive_and_acyclic(constraint))
    if first is None:
        with pytest.raises(ValueError):
            ordered_extensions(preds)
    else:
        assert first == next(ordered_extensions(preds))
