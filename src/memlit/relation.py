"""Finite binary relations over integer event ids, and ordered linear
extensions of a partial order given as predecessor bitmasks.

`Relation` is the value type of the sb, sw and hb that `check_axioms`
returns; the axiom kernel itself works on bitmask rows.  The seq_cst order
S is `first_extension`, in one pass, or one of `ordered_extensions`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
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

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs


def first_extension(preds: Mapping[int, int]) -> tuple[int, ...] | None:
    """The first of `ordered_extensions(preds)`: at each step the smallest key
    whose predecessors are placed.  None exactly when the constraint is cyclic."""
    left, order, placed = sorted(preds), [], 0
    while left:
        for e in left:
            if not preds[e] & ~placed:
                break
        else:
            return None
        left.remove(e)
        order.append(e)
        placed |= 1 << e
    return tuple(order)


def ordered_extensions(preds: Mapping[int, int]) -> Iterator[tuple[int, ...]]:
    """All total orders over the keys of `preds` that place each key after
    every key whose bit its mask sets, lazily and in lexicographic order.

    Keys are non-negative and masks set only bits of keys.  Raises
    ValueError at once if the constraint is cyclic.
    """
    if first_extension(preds) is None:
        raise ValueError("cyclic constraint has no linear extension")
    return _extensions(preds)


def _extensions(preds: Mapping[int, int]) -> Iterator[tuple[int, ...]]:
    """`ordered_extensions` without its cycle check: a cyclic constraint yields nothing."""
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

    return generate(sorted(preds), 0)
