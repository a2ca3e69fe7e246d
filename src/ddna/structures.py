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
lists and never materialize structures.  Counting packs each row of its
table into one integer, a fixed-width slot per interval end; its
recurrence is linear in whole rows, so each partner costs one
big-integer multiply, not one per cell.  Slots of one bit per letter fit
most words; a row that overflows them shows it past its top slot, and the
finished rows are re-packed at the width of ``3**n``, which bounds every
count.  The maximum-bond table counts its witnesses in the same loop.
Witnesses are streamed off the table by the walk the grammar's proofs
also use, :func:`ddna.core.matchings`: the first is yielded once the
table is filled, only intervals with a few witnesses keep them, and none
of the whole word's is stored.  No algorithm here recurses.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

from .core import ALPHABET, SecondaryStructure, canonical_word, complement, matchings


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
    """Number of structures on ``word``, by a table filled bottom-up in packed rows.

    ``N(i, j) = N(i+1, j) + sum over partners k <= j of i of N(i+1, k-1) * N(k+1, j)``
    with ``N = 1`` on empty intervals; equals ``len(list(enumerate_structures(...)))``.

    Row ``i`` is one integer whose slot ``j - i + 1`` holds ``N(i, j)`` for
    ``j = i-1 .. n``; slot 0 is the empty interval's 1.  The recurrence is
    linear in whole rows: ``row_i = 1 + (row_{i+1} << b) + sum over partners
    k of (N(i+1, k-1) * row_{k+1}) << ((k-i+1) * b)`` for ``b`` bits per
    slot, one big-integer multiply per partner, and ``k <= j`` needs no test
    because ``row_{k+1}`` has no slot below ``j = k``.  ``N(i, j)`` grows
    with ``j``, so a slot of row ``i`` overflows exactly when the row
    reaches past its top slot.  Slots start at one bit per letter; the
    first row that overflows them re-packs the finished rows at the width of
    ``3**n``, which no count reaches (each is at most a Motzkin number), and
    is computed again.  No other row is filled twice.

    >>> count_structures("ACGT")
    4
    """
    word = canonical_word(word)
    n = len(word)
    partners = _partners(word, cfg)
    size = (n + 7) // 8  # bytes per slot
    rows = [1] * (n + 2)  # rows[n + 1] holds only the empty interval
    i = n
    while i:
        bits = 8 * size
        below = rows[i + 1]
        terms, last = 0, n + 1
        if partners[i]:
            # N(i+1, k-1) is slot k-i-1 of ``below``.  The partner terms are
            # summed from the last k down, each shifted by the gap to the next.
            digits = below.to_bytes((n - i + 1) * size, "little")
            for k in reversed(partners[i]):
                at = (k - i - 1) * size
                inner = int.from_bytes(digits[at : at + size], "little")
                terms = (terms << (last - k) * bits) + inner * rows[k + 1]
                last = k
        row = 1 + ((below + (terms << (last - i) * bits)) << bits)
        if row >> (n - i + 2) * bits:  # overflow: widen the finished rows, redo row i
            wide = ((3**n).bit_length() + 7) // 8
            for k in range(i + 1, n + 2):
                digits = rows[k].to_bytes((n - k + 2) * size, "little")
                packed = bytearray((n - k + 2) * wide)
                for b in range(size):  # byte b of every slot at once
                    packed[b::wide] = digits[b::size]
                rows[k] = int.from_bytes(packed, "little")
            size = wide
            continue
        rows[i] = row
        i -= 1
    return rows[1] >> n * 8 * size


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

    The word is checked and the table filled on the call.  The witnesses
    are the matchings :func:`ddna.core.matchings` lists over ``best``: the
    first follows each interval's first co-optimal arc, and later ones
    share the intervals with few witnesses.  Each is built as it goes out
    and never stored.
    """
    word = canonical_word(word)
    partners, best, _ = _fill(word, cfg, False)

    def choices(span: tuple[int, int]) -> list[tuple[int, int]]:
        # The arcs (p, k) that open some witness on i..j, in sorted order: p
        # runs over the positions that keep best[p][j] at the target.  An
        # interval with no bonds has only the empty witness.
        i, j = span
        target, arcs, p = best[i][j], [], i
        while target and best[p][j] == target:
            for k in partners[p]:
                if k > j:
                    break
                if 1 + best[p + 1][k - 1] + best[k + 1][j] == target:
                    arcs.append((p, k))
            p += 1
        return arcs

    arcs = matchings((1, len(word)), choices)
    return map(SecondaryStructure.unchecked, repeat(word), arcs)
