from __future__ import annotations

import itertools

from hypothesis import given, strategies as st

from memlit.relation import first_extension, ordered_extensions

from support import (
    compose,
    is_irreflexive_and_acyclic,
    reachable_pairs,
    restrict,
    transitive_closure,
)


class TestClosure:
    def test_two_step_chain(self):
        r = frozenset({(0, 1), (1, 2)})
        assert transitive_closure(r) == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_empty(self):
        assert transitive_closure(frozenset()) == frozenset()

    def test_four_cycle_reaches_everything(self):
        r = frozenset({(0, 1), (1, 2), (2, 3), (3, 0)})
        expected = frozenset(itertools.product(range(4), repeat=2))
        assert transitive_closure(r) == expected
        assert reachable_pairs(range(4), r) == expected

    def test_isolated_elements_add_no_pairs(self):
        r = frozenset({(0, 1)})
        assert transitive_closure(r) == r
        assert reachable_pairs(range(5), r) == r


class TestAcyclicity:
    def test_dag(self):
        assert is_irreflexive_and_acyclic(frozenset({(0, 1), (0, 2), (1, 2)}))

    def test_self_loop(self):
        assert not is_irreflexive_and_acyclic(frozenset({(0, 0)}))

    def test_long_cycle(self):
        assert not is_irreflexive_and_acyclic(frozenset({(0, 1), (1, 2), (2, 0)}))


class TestAlgebra:
    def test_compose(self):
        assert compose(frozenset({(0, 1)}), frozenset({(1, 2)})) == frozenset({(0, 2)})

    def test_restrict(self):
        r = frozenset({(0, 1), (1, 2), (2, 3)})
        assert restrict(r, lambda e: e != 1) == frozenset({(2, 3)})


def masks(pairs, n):
    """Predecessor masks over range(n): b's mask sets a's bit for each (a, b)."""
    return {b: sum(1 << a for a in range(n) if (a, b) in pairs) for b in range(n)}


class TestLinearExtensions:
    def test_antichain_gives_all_permutations(self):
        assert list(ordered_extensions(masks(frozenset(), 3))) == list(itertools.permutations(range(3)))

    def test_chain_gives_single_order(self):
        preds = masks(frozenset({(0, 1), (1, 2)}), 3)
        assert list(ordered_extensions(preds)) == [(0, 1, 2)]
        assert first_extension(preds) == (0, 1, 2)

    def test_every_extension_respects_partial(self):
        orders = list(ordered_extensions(masks(frozenset({(0, 2), (1, 3)}), 4)))
        assert len(orders) == 6
        for order in orders:
            assert order.index(0) < order.index(2)
            assert order.index(1) < order.index(3)

    def test_deterministic_first_order(self):
        preds = masks(frozenset({(2, 0)}), 4)
        assert next(ordered_extensions(preds)) == first_extension(preds) == (1, 2, 0, 3)

    def test_cyclic_constraint_yields_nothing(self):
        preds = {0: 0b10, 1: 0b01}
        assert list(ordered_extensions(preds)) == []
        assert first_extension(preds) is None

    def test_cycle_among_later_keys_yields_no_prefix(self):
        # 0 is free, but 1 and 2 wait on each other: no order, not even (0,).
        preds = {0: 0, 1: 0b100, 2: 0b010}
        assert list(ordered_extensions(preds)) == []
        assert first_extension(preds) is None

    def test_empty_constraint_has_one_empty_order(self):
        assert list(ordered_extensions({})) == [()]
        assert first_extension({}) == ()


# (n, a relation over range(n))
small_relations = st.builds(
    lambda n, pairs: (n, frozenset((a % n, b % n) for a, b in pairs)),
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
)


@given(small_relations)
def test_closure_matches_reachability_oracle(nr):
    n, r = nr
    assert transitive_closure(r) == reachable_pairs(range(n), r)


@given(small_relations)
def test_closure_is_idempotent_and_monotone(nr):
    _, r = nr
    c = transitive_closure(r)
    assert r <= c
    assert transitive_closure(c) == c


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


def constraint(preds):
    """The (a, b) pairs the masks state: a before b."""
    return frozenset((a, b) for b, mask in preds.items() for a in preds if mask >> a & 1)


@given(predecessor_masks())
def test_extensions_linearize_acyclic_relations(preds):
    pairs = constraint(preds)
    orders = list(itertools.islice(ordered_extensions(preds), 24))
    if not is_irreflexive_and_acyclic(pairs):
        assert orders == []
        return
    assert orders and orders == sorted(set(orders))
    for order in orders:
        assert sorted(order) == sorted(preds)
        pos = {e: i for i, e in enumerate(order)}
        assert all(pos[a] < pos[b] for a, b in pairs)


@given(predecessor_masks())
def test_first_extension_is_the_first_ordered_extension(preds):
    first = first_extension(preds)
    assert (first is None) == (not is_irreflexive_and_acyclic(constraint(preds)))
    if first is None:
        assert list(ordered_extensions(preds)) == []
    else:
        assert first == next(ordered_extensions(preds))
