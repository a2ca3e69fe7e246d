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
lists and never materialize structures; the maximum-bond table counts
its witnesses in the same loop.  Witnesses are streamed: the
sub-intervals the whole word reads keep a memo of their witnesses,
filled from an explicit stack, and the whole word's witnesses are built
from it one at a time and never stored.  No algorithm here recurses.
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


def _fill(
    word: str, cfg: FoldConfig, counted: bool
) -> tuple[list[list[int]], list[list[int]], list[list[int]] | None]:
    """``partners`` of the canonical ``word``, with ``best[i][j]``, the most
    bonds on the closed interval i..j, and, if ``counted``, ``ways[i][j]``,
    the number of structures on i..j with that many bonds, filled in the
    same loop (else ``None``).

    ``ways`` sums the products of the branches that reach the maximum, so it
    counts witnesses without listing them.  Listing does not need it, and
    counting makes the loop about 40% slower, so it is filled only on request.
    """
    n = len(word)
    partners = _partners(word, cfg)
    best = [[0] * (n + 2) for _ in range(n + 2)]
    # Empty intervals hold one structure, the empty one.
    ways = [[1] * (n + 2) for _ in range(n + 2)] if counted else None
    for i in range(n, 0, -1):
        row, below = best[i], best[i + 1]
        for j in range(i + 1, n + 1):
            value, total = below[j], ways[i + 1][j] if counted else 0
            for k in partners[i]:
                if k > j:
                    break
                bonds = 1 + below[k - 1] + best[k + 1][j]
                if bonds >= value:  # a new maximum restarts the count, a tie adds to it
                    if bonds > value:
                        value, total = bonds, 0
                    if counted:
                        total += ways[i + 1][k - 1] * ways[k + 1][j]
            row[j] = value
            if counted:
                ways[i][j] = total
    return partners, best, ways


def count_max_bond(word: str, cfg: FoldConfig = DEFAULT) -> tuple[int, int]:
    """Maximum bond count and the number of witnesses, none of them listed.

    Equals ``(bonds, len(witnesses))`` for ``max_bond``, in the time of
    filling the table, however many witnesses there are.

    >>> count_max_bond("AT" * 4)
    (4, 14)
    """
    word = canonical_word(word)
    _, best, ways = _fill(word, cfg, True)
    n = len(word)
    return best[1][n], ways[1][n]


def max_bond(
    word: str, cfg: FoldConfig = DEFAULT
) -> tuple[int, list[SecondaryStructure]]:
    """Maximum bond count over all structures, with every witness.

    Witnesses are returned sorted by their arc lists; ties are not
    broken, since the maximal structures form a set, not a single fold.
    Every witness has the maximum number of arcs.
    """
    witnesses = list(max_bond_witnesses(word, cfg))
    return len(witnesses[0].arcs), witnesses


def max_bond_witnesses(
    word: str, cfg: FoldConfig = DEFAULT
) -> Iterator[SecondaryStructure]:
    """Yield every maximum-bond structure on ``word`` once, in the order of
    :func:`max_bond`; there is always at least one.

    The word is checked and the table filled on the call.  The witnesses of
    the sub-intervals the whole word reads are listed before the first
    one is yielded, and each is shared by every witness built on it; the
    witnesses of the whole word are built one at a time and never stored.
    """
    word = canonical_word(word)
    partners, best, _ = _fill(word, cfg, False)
    return _witnesses(word, partners, best)


def _witnesses(
    word: str, partners: list[list[int]], best: list[list[int]]
) -> Iterator[SecondaryStructure]:
    n = len(word)
    if not best[1][n]:
        yield SecondaryStructure.unchecked(word, ())
        return

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

    def reads(firsts: list[tuple[int, int]], j: int) -> Iterator[tuple[int, int]]:
        # The intervals with bonds inside and after each first arc on ..j.
        for p, k in firsts:
            for a, b in ((p + 1, k - 1), (k + 1, j)):
                if best[a][b]:
                    yield a, b

    # memo[i, j]: every sorted arc list on i..j with best[i][j] > 0 arcs, in
    # sorted order, grouped by first arc; an interval with no bonds has only
    # the empty list, ``empty``.  An explicit stack fills the memo in
    # post-order, so long stems cannot overflow the recursion limit.  Tuples,
    # not sets, keep the memo small: it holds every sub-interval's witnesses.
    empty = [()]
    memo: dict[tuple[int, int], list[tuple[tuple[int, int], ...]]] = {}
    roots = first_arcs(1, n)
    stack = [(a, b, None) for a, b in reads(roots, n)]
    while stack:
        i, j, firsts = stack.pop()
        if (i, j) in memo:
            continue
        if firsts is None:  # first visit: list the intervals this one reads
            firsts = first_arcs(i, j)
            stack.append((i, j, firsts))
            stack.extend((a, b, None) for a, b in reads(firsts, j) if (a, b) not in memo)
            continue
        found = []
        for p, k in firsts:
            outers = memo.get((k + 1, j), empty)
            heads = [((p, k),) + inner for inner in memo.get((p + 1, k - 1), empty)]
            found += [head + outer for head in heads for outer in outers]
        memo[i, j] = found

    # The whole word's witnesses, in the same order, each built as it goes out.
    unchecked = SecondaryStructure.unchecked
    for p, k in roots:
        outers = memo.get((k + 1, n), empty)
        for inner in memo.get((p + 1, k - 1), empty):
            head = ((p, k),) + inner
            for outer in outers:
                yield unchecked(word, head + outer)
