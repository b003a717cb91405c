"""Ordered linear extensions of a partial order given as predecessor
bitmasks.

The seq_cst order S is `first_extension`, in one pass, or one of
`ordered_extensions`; a location's modification orders are all of
`ordered_extensions`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping


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

    Keys are non-negative and masks set only bits of keys.  A cyclic
    constraint yields nothing.
    """
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
