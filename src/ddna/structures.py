"""Enumeration, counting, and maximum-bond folding of secondary structures.

The set of secondary structures on a word is exactly its set of
generalized elements in the diagram calculus.  A fold configuration adds
one physical knob: ``min_loop`` requires at least that many unpaired
slots strictly between the two ends of every arc (``j - i - 1 >=
min_loop``), which for noncrossing structures is the usual minimum
hairpin-loop size.  ``min_loop = 0`` is the pure calculus.

Enumeration yields each structure exactly once, lazily, in lexicographic
order of the sorted arc list, starting with the empty structure.
Counting uses an interval recursion and never materializes structures,
so it scales to words far beyond what enumeration can cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import SecondaryStructure, canonical_word, is_complementary


@dataclass(frozen=True)
class FoldConfig:
    """Folding constraints; ``min_loop`` is the per-arc unpaired-slot minimum."""

    min_loop: int = 0

    def __post_init__(self) -> None:
        if self.min_loop < 0:
            raise ValueError(f"min_loop must be >= 0, got {self.min_loop}")


DEFAULT = FoldConfig()


def is_member(structure: SecondaryStructure, cfg: FoldConfig = DEFAULT) -> bool:
    """True iff the structure is valid and every arc respects ``min_loop``.

    Accepts unchecked structures, so it can reject crossing or
    non-complementary arc sets rather than assuming constructor
    validation already ran.
    """
    if structure.violations():
        return False
    return all(j - i - 1 >= cfg.min_loop for i, j in structure.arcs)


def _pair_table(word: str, cfg: FoldConfig) -> list[list[bool]]:
    n = len(word)
    table = [[False] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(i + cfg.min_loop + 1, n + 1):
            table[i][j] = is_complementary(word[i - 1], word[j - 1])
    return table


def enumerate_structures(
    word: str, cfg: FoldConfig = DEFAULT
) -> Iterator[SecondaryStructure]:
    """Yield every structure on ``word`` once, in lexicographic arc order.

    The generator walks the prefix tree of sorted arc lists: every prefix
    of a valid sorted arc list is itself valid, so emitting each node
    before its extensions produces exactly the lexicographic order.  The
    empty structure always comes first.
    """
    word = canonical_word(word)
    n = len(word)
    pairable = _pair_table(word, cfg)
    used = [False] * (n + 1)
    arcs: list[tuple[int, int]] = []

    def crosses(i: int, j: int) -> bool:
        # Committed arcs all precede (i, j) lexicographically, so the only
        # possible crossing pattern is a < i < b < j.
        return any(a < i < b < j for a, b in arcs)

    def extend(min_i: int, min_j: int) -> Iterator[SecondaryStructure]:
        yield SecondaryStructure.unchecked(word, arcs)
        for i in range(min_i, n + 1):
            if used[i]:
                continue
            j_start = max(i + cfg.min_loop + 1, min_j if i == min_i else 0)
            for j in range(j_start, n + 1):
                if used[j] or not pairable[i][j] or crosses(i, j):
                    continue
                arcs.append((i, j))
                used[i] = used[j] = True
                yield from extend(i, j + 1)
                used[i] = used[j] = False
                arcs.pop()

    return extend(1, 2)


def count_structures(word: str, cfg: FoldConfig = DEFAULT) -> int:
    """Number of structures on ``word``, by interval recursion.

    ``N(i, j) = N(i+1, j) + sum over pairable k of N(i+1, k-1) * N(k+1, j)``
    with ``N = 1`` on empty intervals; equals ``len(list(enumerate_structures(...)))``.
    """
    word = canonical_word(word)
    n = len(word)
    pairable = _pair_table(word, cfg)
    # counts[i][j] for the closed interval i..j; empty intervals are 1.
    counts = [[1] * (n + 2) for _ in range(n + 2)]
    for span in range(2, n + 1):
        for i in range(1, n - span + 2):
            j = i + span - 1
            total = counts[i + 1][j]
            for k in range(i + cfg.min_loop + 1, j + 1):
                if pairable[i][k]:
                    inner = counts[i + 1][k - 1] if k - 1 >= i + 1 else 1
                    outer = counts[k + 1][j] if k + 1 <= j else 1
                    total += inner * outer
            counts[i][j] = total
    return counts[1][n] if n else 1


def max_bond(
    word: str, cfg: FoldConfig = DEFAULT
) -> tuple[int, list[SecondaryStructure]]:
    """Maximum bond count over all structures, with every witness.

    Witnesses are returned sorted by their arc lists; ties are not
    broken, since the maximal structures form a set, not a single fold.
    """
    word = canonical_word(word)
    n = len(word)
    pairable = _pair_table(word, cfg)

    best: dict[tuple[int, int], int] = {}

    def bonds(i: int, j: int) -> int:
        if j - i + 1 <= cfg.min_loop:
            return 0
        if (i, j) in best:
            return best[i, j]
        value = bonds(i + 1, j)
        for k in range(i + cfg.min_loop + 1, j + 1):
            if pairable[i][k]:
                value = max(value, 1 + bonds(i + 1, k - 1) + bonds(k + 1, j))
        best[i, j] = value
        return value

    witnesses_memo: dict[tuple[int, int], list[tuple[tuple[int, int], ...]]] = {}

    def witnesses(i: int, j: int) -> list[tuple[tuple[int, int], ...]]:
        # All arc lists on i..j attaining bonds(i, j), each sorted: an arc
        # at i comes before the arcs inside it, which come before those
        # after it.  The branches below are disjoint (they differ in what
        # happens at position i), so no deduplication is needed.  Tuples,
        # not sets, keep the memo small: it holds every interval's witnesses.
        if j - i + 1 <= cfg.min_loop:
            return [()]
        if (i, j) in witnesses_memo:
            return witnesses_memo[i, j]
        target = bonds(i, j)
        found = []
        if bonds(i + 1, j) == target:
            found.extend(witnesses(i + 1, j))
        for k in range(i + cfg.min_loop + 1, j + 1):
            if pairable[i][k] and 1 + bonds(i + 1, k - 1) + bonds(k + 1, j) == target:
                arc = ((i, k),)
                for inner in witnesses(i + 1, k - 1):
                    head = arc + inner
                    found.extend(head + outer for outer in witnesses(k + 1, j))
        witnesses_memo[i, j] = found
        return found

    if n == 0:
        return 0, [SecondaryStructure("", frozenset())]
    top = bonds(1, n)
    # Sorted arc lists order the witnesses as sorted_arcs() would.
    return top, [SecondaryStructure.unchecked(word, arcs) for arcs in sorted(witnesses(1, n))]
