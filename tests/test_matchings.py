"""The shared matchings walk on a table it can be checked against by hand.

The table lists the noncrossing perfect matchings of 2m points: a span
``(lo, hi)`` of even length opens with an arc from ``lo`` to any ``k`` at
odd distance, which leaves two spans of even length to match.
"""

from collections import Counter
from itertools import product
from math import comb

import pytest

from ddna.core import matchings


def perfect(span):
    lo, hi = span
    return [(lo, k) for k in range(lo + 1, hi + 1, 2)]


def brute_force(m):
    """Every balanced bracket line of length 2m, read as its matching."""
    found = []
    for line in product("()", repeat=2 * m):
        stack, arcs = [], []
        for position, bracket in enumerate(line, 1):
            if bracket == "(":
                stack.append(position)
            elif stack:
                arcs.append((stack.pop(), position))
            else:
                break
        else:
            if not stack:
                found.append(tuple(sorted(arcs)))
    return sorted(found)


@pytest.mark.parametrize("shortcut", [False, True], ids=["choices", "first"])
@pytest.mark.parametrize("m", range(8))
def test_walk_lists_every_noncrossing_perfect_matching_in_sorted_order(m, shortcut):
    n = 2 * m
    first = {(lo, hi): (lo, lo + 1) for lo in range(1, n) for hi in range(lo + 1, n + 1, 2)}
    calls = Counter()

    def choices(span):
        calls[span] += 1
        return perfect(span)

    listed = list(map(tuple, matchings((1, n), choices, first if shortcut else None)))
    assert listed == brute_force(m)
    assert len(listed) == comb(2 * m, m) // (m + 1)  # the Catalan number
    assert max(calls.values(), default=0) <= 2  # no span's choices listed more than twice
