"""Finite binary relations over integer event ids.

Every operation preserves the universe; mixing relations over different
universes raises ValueError.  Universes here are tiny (one id per event, a
few dozen at most), so closures run on dense bitmasks.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass


@dataclass(frozen=True)
class Relation:
    universe: frozenset[int]
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for a, b in self.pairs:
            if a not in self.universe or b not in self.universe:
                raise ValueError(f"pair ({a}, {b}) outside universe")

    @classmethod
    def of(cls, universe: Iterable[int], pairs: Iterable[tuple[int, int]] = ()) -> "Relation":
        return cls(frozenset(universe), frozenset(pairs))

    @classmethod
    def empty(cls, universe: Iterable[int]) -> "Relation":
        return cls(frozenset(universe), frozenset())

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs

    def successors(self, a: int) -> set[int]:
        return {y for x, y in self.pairs if x == a}


def _adjacency(r: Relation) -> tuple[list[int], dict[int, int], list[int]]:
    nodes = sorted(r.universe)
    index = {n: i for i, n in enumerate(nodes)}
    adj = [0] * len(nodes)
    for a, b in r.pairs:
        adj[index[a]] |= 1 << index[b]
    return nodes, index, adj


def transitive_closure(r: Relation) -> Relation:
    nodes, _, adj = _adjacency(r)
    n = len(nodes)
    # Floyd-Warshall, one bitmask row per node.
    for k in range(n):
        bit = 1 << k
        reach_k = adj[k]
        for i in range(n):
            if adj[i] & bit:
                adj[i] |= reach_k
    pairs = set()
    for i in range(n):
        row = adj[i]
        j = 0
        while row:
            if row & 1:
                pairs.add((nodes[i], nodes[j]))
            row >>= 1
            j += 1
    return Relation(r.universe, frozenset(pairs))


def is_irreflexive_and_acyclic(r: Relation) -> bool:
    closed = transitive_closure(r)
    return all(a != b for a, b in closed.pairs)


def union(r: Relation, s: Relation) -> Relation:
    if r.universe != s.universe:
        raise ValueError("universe mismatch in union")
    return Relation(r.universe, r.pairs | s.pairs)


def compose(r: Relation, s: Relation) -> Relation:
    if r.universe != s.universe:
        raise ValueError("universe mismatch in compose")
    by_src: dict[int, list[int]] = {}
    for b, c in s.pairs:
        by_src.setdefault(b, []).append(c)
    pairs = {(a, c) for a, b in r.pairs for c in by_src.get(b, ())}
    return Relation(r.universe, frozenset(pairs))


def restrict(r: Relation, keep: Callable[[int], bool]) -> Relation:
    return Relation(r.universe, frozenset((a, b) for a, b in r.pairs if keep(a) and keep(b)))


def linear_extensions(partial: Relation, elements: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """All total orders over `elements` consistent with `partial`, lazily.

    Deterministic: at each step candidates are tried in ascending id order.
    Raises ValueError if `elements` strays outside the universe or the
    restriction of `partial` to `elements` is cyclic.
    """
    elems = sorted(set(elements))
    if not set(elems) <= partial.universe:
        raise ValueError("elements outside universe")
    index = {e: i for i, e in enumerate(elems)}
    preds = dict.fromkeys(range(len(elems)), 0)
    for a, b in partial.pairs:
        if a in index and b in index and a != b:
            preds[index[b]] |= 1 << index[a]
    # ordered_extensions is called, and a cycle reported, right here
    return (tuple(elems[i] for i in order) for order in ordered_extensions(preds))


def ordered_extensions(preds: Mapping[int, int]) -> Iterator[tuple[int, ...]]:
    """All total orders over the keys of `preds` that place each key after
    every key whose bit its mask sets, lazily and in lexicographic order.

    Keys are non-negative and masks set only bits of keys.  Raises
    ValueError at once if the constraint is cyclic.
    """
    elems = sorted(preds)
    placed = 0
    left = elems
    while left:
        ready = [e for e in left if not preds[e] & ~placed]
        if not ready:
            raise ValueError("cyclic constraint has no linear extension")
        for e in ready:
            placed |= 1 << e
        left = [e for e in left if not placed >> e & 1]

    acc: list[int] = []

    def generate(remaining: list[int], placed: int) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield tuple(acc)
            return
        for e in remaining:
            if not preds[e] & ~placed:
                acc.append(e)
                yield from generate([x for x in remaining if x != e], placed | 1 << e)
                acc.pop()

    return generate(elems, 0)
