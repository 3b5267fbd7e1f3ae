"""Shared sampling utilities for the workload generators."""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate
from typing import Generic, List, Sequence, Tuple, TypeVar

T = TypeVar("T")


class WeightedTable(Generic[T]):
    """Draws from ``[(weight, item), ...]`` pairs, built once.

    A draw scales one ``rng.random()`` by the weights' ``sum()`` and
    takes the first item whose cumulative weight, accumulated from
    ``0.0`` in table order, reaches it: one bisect, and the same floats
    and the same item as a scan of the table.  A point that rounding
    puts past the last cumulative weight takes the last item.
    """

    def __init__(self, table: Sequence[Tuple[float, T]]) -> None:
        if not table:
            raise ValueError("need at least one item")
        weights = [weight for weight, _item in table]
        if min(weights) < 0:
            raise ValueError("weights must be non-negative")
        self._scale = sum(weights)
        self._cumulative = list(accumulate(weights, initial=0.0))[1:]
        # One slot past the end, for a point beyond the last weight.
        self._items: List[T] = [item for _weight, item in table]
        self._items.append(self._items[-1])

    def draw(self, rng: random.Random) -> T:
        return self._items[
            bisect_left(self._cumulative, rng.random() * self._scale)
        ]


class ZipfSampler(WeightedTable[T]):
    """Samples items with Zipf-like weights: p(rank r) ∝ 1/(r+1)**skew.

    Compiler output concentrates on a few registers (stack pointer,
    return address, first temporaries) and a few opcodes; a Zipf rank
    distribution over a preference-ordered list reproduces that skew.
    The weights are normalised, so a draw bisects at ``rng.random()``
    itself.
    """

    def __init__(self, items: Sequence[T], skew: float) -> None:
        weights = [1.0 / (rank + 1) ** skew for rank in range(len(items))]
        total = sum(weights)
        super().__init__(
            [(weight / total, item) for weight, item in zip(weights, items)]
        )
        self._scale = 1

    sample = WeightedTable.draw


def weighted_choice(rng: random.Random, table: Sequence[Tuple[float, T]]) -> T:
    """Choose from ``[(weight, item), ...]`` pairs: one
    :class:`WeightedTable` draw, for a table built per call."""
    return WeightedTable(table).draw(rng)
