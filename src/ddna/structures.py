"""Enumeration, counting, and maximum-bond folding of secondary structures.

The set of secondary structures on a word is exactly its set of
generalized elements in the diagram calculus.  A fold configuration adds
one physical knob: ``min_loop`` requires at least that many unpaired
slots strictly between the two ends of every arc (``j - i - 1 >=
min_loop``), which for noncrossing structures is the usual minimum
hairpin-loop size.  ``min_loop = 0`` is the pure calculus.

Enumeration yields each structure exactly once, lazily, in lexicographic
order of the sorted arc list, starting with the empty structure.
Counting and maximum bonds fill interval tables bottom-up over partner
lists and never materialize structures; witnesses are listed from an
explicit stack, so no algorithm here recurses.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from .core import ALPHABET, SecondaryStructure, canonical_word, complement


@dataclass(frozen=True)
class FoldConfig:
    """Folding constraints; ``min_loop`` is the per-arc unpaired-slot minimum."""

    min_loop: int = 0

    def __post_init__(self) -> None:
        value = self.min_loop
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"min_loop must be a nonnegative integer, got {value!r}")


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


def _partners(word: str, cfg: FoldConfig) -> list[list[int]]:
    """``partners[i]``: ascending positions ``k >= i + min_loop + 1`` pairing with ``i``."""
    mates = {complement(x): [k for k, y in enumerate(word, 1) if y == x] for x in ALPHABET}
    return [[]] + [
        mates[x][bisect_left(mates[x], i + cfg.min_loop + 1):] for i, x in enumerate(word, 1)
    ]


def enumerate_structures(
    word: str, cfg: FoldConfig = DEFAULT
) -> Iterator[SecondaryStructure]:
    """Yield every structure on ``word`` once, in lexicographic arc order.

    The generator walks the prefix tree of sorted arc lists: every prefix
    of a valid sorted arc list is itself valid, so emitting each node
    before its extensions produces exactly the lexicographic order.  The
    empty structure always comes first.  The word is checked on the call.
    """
    word = canonical_word(word)
    return _walk(word, _partners(word, cfg))


def _walk(word: str, partners: list[list[int]]) -> Iterator[SecondaryStructure]:
    n = len(word)

    def extensions(start: int, ends: tuple) -> Iterator[tuple[int, int, tuple]]:
        # Committed arcs all start before i, so (i, j) extends them iff j lies
        # below the innermost right end still open at i; as i < j, i is free.
        # ``ends`` links those ends innermost first, ``(end, rest)``, to n + 1.
        for i in range(start, n + 1):
            while ends[0] < i:
                ends = ends[1]
            for j in partners[i]:
                if j >= ends[0]:
                    break
                yield i, j, (j, ends)

    arcs: list[tuple[int, int]] = []
    yield SecondaryStructure.unchecked(word, arcs)
    stack = [extensions(1, (n + 1, None))]  # stack[d] extends arcs[:d]; no recursion
    while stack:
        for i, j, ends in stack[-1]:
            arcs.append((i, j))
            yield SecondaryStructure.unchecked(word, arcs)
            stack.append(extensions(i + 1, ends))
            break
        else:
            stack.pop()
            del arcs[-1:]  # the frame's arc; the root frame has none


def count_structures(word: str, cfg: FoldConfig = DEFAULT) -> int:
    """Number of structures on ``word``, by an interval table filled bottom-up.

    ``N(i, j) = N(i+1, j) + sum over partners k <= j of i of N(i+1, k-1) * N(k+1, j)``
    with ``N = 1`` on empty intervals; equals ``len(list(enumerate_structures(...)))``.
    """
    word = canonical_word(word)
    n = len(word)
    partners = _partners(word, cfg)
    # counts[i][j] for the closed interval i..j; empty intervals (j < i) hold 1.
    counts = [[1] * (n + 2) for _ in range(n + 2)]
    for i in range(n, 0, -1):
        row, below = counts[i], counts[i + 1]
        for j in range(i + 1, n + 1):
            total = below[j]
            for k in partners[i]:
                if k > j:
                    break
                total += below[k - 1] * counts[k + 1][j]
            row[j] = total
    return counts[1][n]


def max_bond(
    word: str, cfg: FoldConfig = DEFAULT
) -> tuple[int, list[SecondaryStructure]]:
    """Maximum bond count over all structures, with every witness.

    Witnesses are returned sorted by their arc lists; ties are not
    broken, since the maximal structures form a set, not a single fold.
    """
    word = canonical_word(word)
    n = len(word)
    partners = _partners(word, cfg)
    # best[i][j]: most bonds on the closed interval i..j, filled like counts.
    best = [[0] * (n + 2) for _ in range(n + 2)]
    for i in range(n, 0, -1):
        row, below = best[i], best[i + 1]
        for j in range(i + 1, n + 1):
            value = below[j]
            for k in partners[i]:
                if k > j:
                    break
                bonds = 1 + below[k - 1] + best[k + 1][j]
                if bonds > value:
                    value = bonds
            row[j] = value

    def first_arcs(i: int, j: int) -> list[tuple[int, int]]:
        # The arcs (p, k) that open some witness on i..j, in sorted order: p
        # runs over the positions that keep best[p][j] at the target.
        target, arcs, p = best[i][j], [], i
        while best[p][j] == target:
            for k in partners[p]:
                if k > j:
                    break
                if 1 + best[p + 1][k - 1] + best[k + 1][j] == target:
                    arcs.append((p, k))
            p += 1
        return arcs

    # witnesses[i, j]: every sorted arc list on i..j with best[i][j] > 0 arcs,
    # in sorted order, grouped by first arc; an interval with no bonds has only
    # the empty list, ``empty``.  An explicit stack fills the memo in
    # post-order, so long stems cannot overflow the recursion limit.  Tuples,
    # not sets, keep the memo small: it holds every interval's witnesses.
    empty = [()]
    witnesses: dict[tuple[int, int], list[tuple[tuple[int, int], ...]]] = {}
    stack = [(1, n, None)] if best[1][n] else []
    while stack:
        i, j, firsts = stack.pop()
        if (i, j) in witnesses:
            continue
        if firsts is None:  # first visit: list the intervals this one reads
            firsts = first_arcs(i, j)
            stack.append((i, j, firsts))
            for p, k in firsts:
                for a, b in ((p + 1, k - 1), (k + 1, j)):
                    if best[a][b] and (a, b) not in witnesses:
                        stack.append((a, b, None))
            continue
        found = []
        for p, k in firsts:
            outers = witnesses.get((k + 1, j), empty)
            for inner in witnesses.get((p + 1, k - 1), empty):
                head = ((p, k),) + inner
                found.extend(head + outer for outer in outers)
        witnesses[i, j] = found

    listed = witnesses.get((1, n), empty)
    return best[1][n], [SecondaryStructure.unchecked(word, arcs) for arcs in listed]
