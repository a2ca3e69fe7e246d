"""Words over the DNA alphabet and secondary structures on them.

A word is a plain ``str`` over ``{A, C, G, T}``, read 5'-to-3'; the empty
string is the monoid unit.  A secondary structure on a word is a set of
base pairs ``(i, j)`` with ``i < j``, written with 1-based positions, such
that every position sits in at most one pair, no two pairs cross
(``i < k < j < l`` is forbidden), and paired letters are Watson-Crick
complements.  Positions stay 1-based everywhere in the public API and in
the serialized formats; only raw string indexing is 0-based.

The module also owns the dot-bracket text encoding: two lines, the
sequence and then a balanced bracket string of the same length, with
``.`` marking unpaired positions.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import index
from typing import Callable, Iterable, Iterator, Mapping

ALPHABET = "ACGT"

_COMPLEMENT = {"A": "T", "T": "A", "C": "G", "G": "C"}
PAIR_TYPE = {"A": "AT", "T": "AT", "C": "CG", "G": "CG"}  # a pair's type, by either letter
_DROP_ALPHABET = str.maketrans("", "", ALPHABET)
_DUAL = str.maketrans("ACGT", "TGCA")


class AlphabetError(ValueError):
    """A letter outside {A, C, G, T} appeared in a word."""


class DotBracketError(ValueError):
    """Malformed dot-bracket text (length mismatch, unbalanced brackets, ...)."""


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken invariant, with enough detail to point at the offender."""

    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


class StructureError(ValueError):
    """A secondary structure failed validation; carries every violation."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


def canonical_word(text: str) -> str:
    """Uppercase ``text`` and check it against the four-letter alphabet.

    >>> canonical_word("acGT")
    'ACGT'
    """
    word = text.upper()
    bad = list(dict.fromkeys(word.translate(_DROP_ALPHABET)))
    if bad:
        raise AlphabetError(f"invalid letters {bad!r}; words use only A, C, G, T")
    return word


def complement(base: str) -> str:
    """Watson-Crick partner of one base: A<->T, C<->G.

    >>> complement("A")
    'T'
    """
    try:
        return _COMPLEMENT[base]
    except KeyError:
        raise AlphabetError(f"invalid base {base!r}") from None


def reverse_complement(word: str) -> str:
    """Letterwise complement of ``word`` read in reverse.

    This is the dual of a word: the strand that pairs with it in
    antiparallel orientation.

    >>> reverse_complement("ACG")
    'CGT'
    >>> reverse_complement("")
    ''
    """
    return canonical_word(word)[::-1].translate(_DUAL)


def is_complementary(a: str, b: str) -> bool:
    return _COMPLEMENT.get(a) == b


def pair_class(a: str, b: str) -> str:
    """Classify a complementary pair as ``"AT"`` or ``"CG"``."""
    if not is_complementary(a, b):
        raise ValueError(f"{a!r}-{b!r} is not a Watson-Crick pair")
    return PAIR_TYPE[a]


def arc_depths(arcs: list[tuple[int, int]]) -> dict[tuple[int, int], int] | None:
    """Nesting depth of each arc (1 for innermost, growing outward), or
    ``None`` when two arcs cross (``i < k < j < l``).

    ``arcs`` must be sorted, with ``i < j`` in each.  One stack sweep, so
    the cost is O(m) for m arcs.  Two arcs that share their left end also
    give ``None``; no valid arc set has them.
    """
    depths: dict[tuple[int, int], int] = {}
    # Open arcs, with ends non-increasing toward the top, so only the top
    # can cross the next arc; beside each, the deepest depth inside it.
    stack: list[tuple[int, int]] = []
    inner: list[int] = []
    for arc in arcs + [(math.inf, math.inf)]:  # the sentinel closes every arc
        while stack and stack[-1][1] <= arc[0]:
            depth = inner.pop() + 1
            depths[stack.pop()] = depth
            if inner and inner[-1] < depth:
                inner[-1] = depth
        if stack and stack[-1][1] < arc[1]:
            return None
        stack.append(arc)
        inner.append(0)
    return depths


def structure_violations(word: str, arcs: Iterable[tuple[int, int]]) -> list[Violation]:
    """Check the secondary-structure invariants, returning every failure.

    ``word`` must already be canonical.  Checks, in order: index ranges and
    ``i < j``, one pair per position, complementarity, and the no-crossing
    rule.  Costs O(n + m log m) for n positions and m arcs, plus the
    crossing pairs listed once :func:`arc_depths` rejects the arcs.
    """
    arcs = sorted(set(arcs))
    # The per-arc range and uniqueness scans run only once a count shows a failure.
    checkable, violations = well_formed_arcs(arcs, len(word), "arc")
    ends = [p for arc in checkable for p in arc]
    if len(set(ends)) < len(ends):
        seen: dict[int, tuple[int, int]] = {}
        for i, j in checkable:
            for p in (i, j):
                if p in seen and seen[p] != (i, j):
                    violations.append(
                        Violation("uniqueness", f"position {p} in both {seen[p]} and ({i},{j})")
                    )
                seen.setdefault(p, (i, j))
    violations.extend(typing_violations(word, checkable, "complementarity", "arc"))
    violations.extend(crossing_violations(checkable, "crossing", "arcs"))
    return violations


def well_formed_arcs(
    arcs: list[tuple[int, int]], n: int, name: str
) -> tuple[list[tuple[int, int]], list[Violation]]:
    """The sorted ``arcs`` that lie in ``1..n`` with ``i < j``, and an
    ``index-range`` or ``arc-order`` violation for each other arc, in list
    order.  The per-arc scan runs only once a count shows a failure."""
    kept = [(i, j) for i, j in arcs if 1 <= i < j <= n]
    if len(kept) == len(arcs):
        return kept, []
    return kept, [
        Violation("index-range", f"{name} ({i},{j}) outside 1..{n}")
        if not (1 <= i <= n and 1 <= j <= n)
        else Violation("arc-order", f"{name} ({i},{j}) needs i < j")
        for i, j in arcs
        if not 1 <= i < j <= n
    ]


def typing_violations(
    word: str, arcs: list[tuple[int, int]], rule: str, name: str
) -> list[Violation]:
    """A ``rule`` violation for each of the well-formed ``arcs`` whose letters
    in ``word`` are not Watson-Crick complements, in list order."""
    return [
        Violation(rule, f"{name} ({i},{j}) pairs {word[i - 1]} with {word[j - 1]}")
        for i, j in arcs
        if _COMPLEMENT.get(word[i - 1]) != word[j - 1]
    ]


def crossing_violations(arcs: list[tuple[int, int]], rule: str, name: str) -> list[Violation]:
    """Every crossing pair of the sorted ``arcs``, with ``i < j`` in each, in
    list order: each arc against the arcs that start strictly inside it.
    Pairs are listed only once :func:`arc_depths` rejects the arcs."""
    if arc_depths(arcs) is not None:
        return []
    starts = [i for i, _ in arcs]
    return [
        Violation(rule, f"{name} ({i},{j}) and ({k},{l}) cross")
        for i, j in arcs
        for k, l in arcs[bisect_right(starts, i) : bisect_left(starts, j)]
        if l > j
    ]


def spanned_anchors(arcs: list[tuple[int, int]], anchors: list[int]) -> list[tuple[int, int, int]]:
    """Each arc ``(i, j)`` with each anchor ``k`` strictly inside it, as
    ``(i, j, k)`` in arc order, then anchor list order.  Bisects a sorted index
    of the anchors: O((m + a) log a) for m arcs and a anchors, plus the output."""
    order = sorted(range(len(anchors)), key=anchors.__getitem__)
    keys = [anchors[x] for x in order]
    return [
        (i, j, anchors[x])
        for i, j in arcs
        for x in sorted(order[bisect_right(keys, i) : bisect_left(keys, j)])
    ]


SHARED = 16  # a span with at most this many matchings is listed once and shared


def matchings(
    root: tuple[int, int],
    choices: Callable[[tuple[int, int]], list[tuple[int, int]]],
    first: Mapping[tuple[int, int], tuple[int, int] | None] | None = None,
) -> Iterator[list[tuple[int, int]]]:
    """Yield the noncrossing matchings of the closed span ``root``, ``(lo,
    hi)``, one list of sorted arcs reused between yields, in sorted order.

    An interval table describes them.  An arc ``(p, k)`` of a span ``(lo,
    hi)`` leaves ``lo..p-1`` unmatched and the spans ``(p+1, k-1)`` inside
    it and ``(k+1, hi)`` after it to match.  ``choices(span)`` lists every
    arc that opens one of the span's matchings, ascending; an empty list
    means its only matching is the empty one.  ``first``, a shortcut, maps
    a span to its first choice (falsy for none) without listing the rest.
    The first matching takes each span's first choice.  Later ones
    backtrack to the last span with another choice, and a span with at
    most :data:`SHARED` matchings is then listed once, from an explicit
    stack, and taken whole: one with a single matching costs no decision.
    No span's choices are listed more than twice.  Nothing recurses.
    """
    arcs: list = []
    # One entry per span decided: (span, index of its option, its options --
    # None where ``first`` chose, until backtracking --, whether they are
    # whole matchings, the spans left after it, len(arcs)): what backtracking restores.
    decisions: list = []
    todo = (root, None) if root[0] <= root[1] else None  # spans left, as (span, rest)
    while todo is not None:  # the first matching takes each span's first choice
        span, todo = todo
        options = choices(span) if first is None else None
        arc = first[span] if options is None else options and options[0]
        if arc:
            decisions.append((span, 0, options, False, todo, len(arcs)))
            arcs.append(arc)
            p, k = arc
            if k < span[1]:
                todo = ((k + 1, span[1]), todo)
            if k > p + 1:
                todo = ((p + 1, k - 1), todo)
    yield arcs
    # Spans met after the first matching are listed on first use: span ->
    # (True, its matchings as arc tuples), or past SHARED (False, its choices).
    lists: dict = {}
    empty = (True, [()])

    def listed(top: tuple[int, int]) -> tuple[bool, list]:
        stack = [(top, None)]
        while stack:
            span, options = stack.pop()
            if span in lists:
                continue
            hi = span[1]
            if options is None:  # first visit: list its parts first
                options = choices(span)
                if not options:
                    lists[span] = empty
                    continue
                stack.append((span, options))
                for p, k in options:
                    if k > p + 1:
                        stack.append(((p + 1, k - 1), None))
                    if k < hi:
                        stack.append(((k + 1, hi), None))
                continue
            found = []
            for arc in options:
                p, k = arc  # each nonempty part is listed by now
                shared, inners = lists.get((p + 1, k - 1), empty)
                also, outers = lists.get((k + 1, hi), empty)
                if not (shared and also) or len(found) + len(inners) * len(outers) > SHARED:
                    lists[span] = (False, options)
                    break
                found += [(arc,) + inner + outer for inner in inners for outer in outers]
            else:
                lists[span] = (True, found)
        return lists[top]

    while True:
        while decisions:
            span, i, options, whole, todo, size = decisions.pop()
            if options is None:
                options = choices(span)
            if i + 1 < len(options):
                break
        else:
            return
        del arcs[size:]
        todo = (span, todo)
        i += 1
        while todo is not None:
            span, todo = todo
            if not i:
                whole, options = lists.get(span) or listed(span)
            if whole:
                if todo is None:  # the last span varies fastest
                    size = len(arcs)
                    for entry in options:
                        arcs[size:] = entry
                        yield arcs
                    break
                if len(options) > 1:
                    decisions.append((span, i, options, True, todo, len(arcs)))
                arcs += options[i]
                i = 0
                continue
            arc = options[i]
            decisions.append((span, i, options, False, todo, len(arcs)))
            i = 0
            arcs.append(arc)
            p, k = arc
            if k < span[1]:
                todo = ((k + 1, span[1]), todo)
            if k > p + 1:
                todo = ((p + 1, k - 1), todo)
        else:
            yield arcs


@dataclass(frozen=True, slots=True)
class SecondaryStructure:
    """A noncrossing Watson-Crick matching on one word.

    Instances are immutable, and the public constructor validates them.
    Operations trust valid operands and build their results without
    validating again.  The two fields live in slots, not an instance dict,
    so the many witnesses of a fold stay small.  ``arcs`` always reads as
    a frozenset, but a structure from :meth:`unchecked` may hold its arcs
    as a tuple until the first read, which builds the set and stores it
    in the tuple's place.  Two threads racing on that first read may each
    build an equal set; either one is kept.
    """

    word: str
    arcs: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        _set_word(self, canonical_word(self.word))
        _set_arcs(self, frozenset((index(i), index(j)) for i, j in _raw_arcs(self)))
        violations = structure_violations(self.word, self.arcs)
        if violations:
            raise StructureError(violations)

    @classmethod
    def unchecked(cls, word: str, arcs: Iterable[tuple[int, int]]) -> "SecondaryStructure":
        """Build from a canonical ``word`` and ``(i, j)`` tuples without
        validating: a frozenset of arcs is shared as it is, anything else is
        stored as a tuple, and the set is built on the first read of
        ``arcs``.  So a listed structure that is only written out, as by
        :func:`emit_dotbracket`, never builds one.  A value not derived from
        valid operands must have no :meth:`violations` before an operation
        uses it."""
        self = object.__new__(cls)
        _set_word(self, word)
        _set_arcs(self, arcs if isinstance(arcs, frozenset) else tuple(arcs))
        return self

    def violations(self) -> list[Violation]:
        return structure_violations(self.word, self.arcs)

    def sorted_arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.arcs))

    def __len__(self) -> int:
        return len(self.word)


# The slots' own accessors, which skip the frozen ``__setattr__``; ``unchecked``
# builds every witness of a fold through them.  ``_raw_arcs`` reads what the
# arcs slot holds: a frozenset, or the tuple an unchecked structure was given.
_set_word = SecondaryStructure.word.__set__
_set_arcs = SecondaryStructure.arcs.__set__
_raw_arcs = SecondaryStructure.arcs.__get__


def _arcs(self: SecondaryStructure) -> frozenset[tuple[int, int]]:
    arcs = _raw_arcs(self)
    if not isinstance(arcs, frozenset):
        arcs = frozenset(arcs)
        _set_arcs(self, arcs)
    return arcs


# The generated ``__init__`` and unpickling store through the setter.
SecondaryStructure.arcs = property(_arcs, _set_arcs, doc="The base pairs, as a frozenset.")


def structure_from_brackets(word: str, brackets: str) -> SecondaryStructure:
    """Build a structure from a sequence line and a bracket line.

    >>> structure_from_brackets("AT", "()").sorted_arcs()
    ((1, 2),)
    """
    word = canonical_word(word)
    if len(word) != len(brackets):
        raise DotBracketError(
            f"sequence length {len(word)} != bracket length {len(brackets)}"
        )
    stack: list[int] = []
    arcs = []
    for pos, ch in enumerate(brackets, start=1):
        if ch == "(":
            stack.append(pos)
        elif ch == ")":
            if not stack:
                raise DotBracketError(f"unmatched ')' at position {pos}")
            arcs.append((stack.pop(), pos))
        elif ch != ".":
            raise DotBracketError(f"invalid character {ch!r} at position {pos}")
    if stack:
        raise DotBracketError(f"unmatched '(' at position {stack[-1]}")
    # Balanced brackets give in-range, ordered, disjoint, nested arcs: only letters can clash.
    violations = typing_violations(word, sorted(arcs), "complementarity", "arc")
    if violations:
        raise StructureError(violations)
    return SecondaryStructure.unchecked(word, arcs)


def parse_dotbracket(text: str) -> SecondaryStructure:
    """Parse the two-line dot-bracket format (sequence, then brackets)."""
    lines = text.splitlines()
    while len(lines) < 2:
        lines.append("")
    if any(line.strip() for line in lines[2:]):
        raise DotBracketError("dot-bracket input has more than two lines")
    return structure_from_brackets(lines[0].strip(), lines[1].strip())


def brackets_of(structure: SecondaryStructure) -> str:
    """The bracket line of a structure."""
    chars = ["."] * len(structure.word)
    for i, j in _raw_arcs(structure):  # builds no set for an unchecked structure
        chars[i - 1] = "("
        chars[j - 1] = ")"
    return "".join(chars)


def emit_dotbracket(structure: SecondaryStructure) -> str:
    """Serialize to the two-line dot-bracket format, LF-terminated.

    Round-trips bit-exactly through :func:`parse_dotbracket`.
    """
    return f"{structure.word}\n{brackets_of(structure)}\n"
