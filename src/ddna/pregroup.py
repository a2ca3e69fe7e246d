"""Pregroup types, contraction search, and the functor into DNA diagrams.

A pregroup type is a sequence of simple terms ``basic^z`` where the
integer ``z`` counts adjoints: 0 is the plain type, -1 the left adjoint
(``^l``), +1 the right adjoint (``^r``), and so on.  A string of types is
grammatical for a goal when some noncrossing set of contraction links --
each joining ``a^z`` to an ``a^(z+1)`` to its right, with the span
between them fully contracted -- leaves exactly the goal's terms as
survivors.  Only contractions are searched; expansions never help a
contraction-only reduction to a fixed goal.

The functor into diagrams sends each basic type to a configured DNA word
and each adjoint step to the reverse complement (even exponents give the
plain word, odd ones its dual, since double duals are trivial on words).
A contraction link becomes the canonical duplex pairing of the two
blocks; survivors become straight-through wires.  A lexicon extends this
with one secondary structure per vocabulary word, and the meaning of a
grammatical sentence is the structure left on the goal word after
composing the lexical states with the reduction diagram.
"""

from __future__ import annotations

import re
import reprlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterator, Mapping, Sequence

from .core import (
    SecondaryStructure,
    Violation,
    canonical_word,
    crossing_violations,
    matchings,
    reverse_complement,
    spanned_anchors,
    structure_from_brackets,
)
from .diagram import Diagram, LoopReport, bend, compose, structure_as_diagram, tensor_all


class TypeSyntaxError(ValueError):
    """Malformed pregroup-type text."""


class LexiconError(ValueError):
    """A lexicon file is malformed or breaks a lexicon invariant."""


@dataclass(frozen=True)
class SimpleTerm:
    """A basic type with an adjoint exponent."""

    basic: str
    adjoint: int = 0

    def __post_init__(self) -> None:
        if not self.basic:
            raise TypeSyntaxError("basic type name must be nonempty")

    def shifted(self, steps: int) -> "SimpleTerm":
        return SimpleTerm(self.basic, self.adjoint + steps)

    def __str__(self) -> str:
        if self.adjoint >= 0:
            return self.basic + ("^" + "r" * self.adjoint if self.adjoint else "")
        return self.basic + "^" + "l" * -self.adjoint


@dataclass(frozen=True)
class PregroupType:
    """A sequence of simple terms; the empty sequence is the unit type."""

    terms: tuple[SimpleTerm, ...] = ()

    def __mul__(self, other: "PregroupType") -> "PregroupType":
        return PregroupType(self.terms + other.terms)

    def right_adjoint(self) -> "PregroupType":
        return PregroupType(tuple(t.shifted(1) for t in reversed(self.terms)))

    def left_adjoint(self) -> "PregroupType":
        return PregroupType(tuple(t.shifted(-1) for t in reversed(self.terms)))

    def __str__(self) -> str:
        return " ".join(str(t) for t in self.terms) if self.terms else "1"


# A valid lexicon nests 3 deep; both YAML loaders build nested nodes by
# recursion, so a deeper text is refused from its event stream first.
_MAX_NESTING = 8
# Wrong-typed values are named by their outer level only: YAML aliases can
# make a few hundred bytes of text into a list of millions of items.
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 1

_TERM_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(l+|r+))?$")


def parse_type(text: str) -> PregroupType:
    """Parse whitespace-separated terms like ``"n^r s n^l"``; ``"1"`` is the unit."""
    terms = []
    for token in text.split():
        if token == "1":
            continue
        match = _TERM_RE.match(token)
        if not match:
            raise TypeSyntaxError(f"bad simple term {token!r}")
        basic, adjoints = match.groups()
        z = 0 if not adjoints else (len(adjoints) if adjoints[0] == "r" else -len(adjoints))
        terms.append(SimpleTerm(basic, z))
    return PregroupType(tuple(terms))


@dataclass(frozen=True, slots=True)
class ReductionProof:
    """A contraction link set plus the surviving term positions (1-based).

    A proof listed by :func:`all_reductions` keeps the walk's arcs (its
    links and each survivor's arc into the bent goal) as one tuple, with
    the sentence length m, until ``links`` or ``survivors`` is read; the
    first read splits them and stores each field it builds.  Only ``links``
    builds a set, so writing a proof out through :meth:`sorted_links`
    builds none.  Threads racing on a first read store equal values.
    """

    links: frozenset[tuple[int, int]]
    survivors: tuple[int, ...]

    def sorted_links(self) -> tuple[tuple[int, int], ...]:
        """The links by left end; a listed proof builds no set for them."""
        links = _raw_links(self)
        if links.__class__ is _WalkArcs:
            m = _sentence_length(self, links)
            return tuple([arc for arc in links if arc[1] <= m])
        return tuple(sorted(links))


class _WalkArcs(tuple):
    """The arcs a listed proof holds in its ``links`` slot until ``links`` is read."""

    __slots__ = ()


# The slots' own accessors, which skip the frozen ``__setattr__``, as for
# ``SecondaryStructure``: ``all_reductions`` builds every proof through them.
_set_links = ReductionProof.links.__set__
_raw_links = ReductionProof.links.__get__
_set_survivors = ReductionProof.survivors.__set__
_raw_survivors = ReductionProof.survivors.__get__


def _sentence_length(self: ReductionProof, arcs: _WalkArcs) -> int:
    """m for a listed proof with the walk ``arcs``, storing the survivors if
    its survivors slot still holds m.  They are stored before ``links``
    replaces the arcs, so a reader that found the arcs finds one or the other."""
    m = _raw_survivors(self)
    if m.__class__ is int:
        _set_survivors(self, tuple([p for p, k in arcs if k > m]))
        return m
    return 2 * len(arcs) - len(m)  # each arc past m joins a survivor to the bent goal


def _survivors(self: ReductionProof) -> tuple[int, ...]:
    arcs = _raw_links(self)
    if arcs.__class__ is _WalkArcs:
        _sentence_length(self, arcs)
    return _raw_survivors(self)


def _links(self: ReductionProof) -> frozenset[tuple[int, int]]:
    links = _raw_links(self)
    if links.__class__ is _WalkArcs:
        m = _sentence_length(self, links)
        links = frozenset([arc for arc in links if arc[1] <= m])
        _set_links(self, links)
    return links


# The generated ``__init__`` and unpickling store through the setters.
ReductionProof.links = property(_links, _set_links, doc="The contraction links, as a frozenset.")
ReductionProof.survivors = property(_survivors, _set_survivors, doc="The survivors, ascending.")


def proof_violations(
    proof: ReductionProof, terms: Sequence[SimpleTerm]
) -> list[Violation]:
    """Re-check a proof: partition, typing, noncrossing, and no survivor
    stranded under a link (which would make the functor image non-planar)."""
    violations = []
    links = proof.sorted_links()
    used = list(proof.survivors)
    for p, q in links:
        used.extend((p, q))
        if not 1 <= p < q <= len(terms):
            violations.append(Violation("index-range", f"link ({p},{q}) out of range"))
        else:
            a, b = terms[p - 1], terms[q - 1]
            if a.basic != b.basic or b.adjoint != a.adjoint + 1:
                violations.append(Violation("link-typing", f"link ({p},{q}) joins {a} and {b}"))
    if sorted(used) != list(range(1, len(terms) + 1)):
        violations.append(Violation("partition", "links and survivors do not partition the terms"))
    if tuple(sorted(proof.survivors)) != proof.survivors:
        violations.append(Violation("survivor-order", "survivors must be listed in position order"))
    ordered = [(p, q) for p, q in links if p < q]
    violations.extend(crossing_violations(ordered, "link-crossing", "links"))
    violations.extend(
        Violation("link-spans-survivor", f"survivor {s} inside link ({p},{q})")
        for p, q, s in spanned_anchors(links, list(proof.survivors))
    )
    return violations


def flatten(types: Sequence[PregroupType]) -> tuple[SimpleTerm, ...]:
    return tuple(term for t in types for term in t.terms)


def _partner_index(terms: Sequence[tuple[str, int]], m: int) -> list[list[int]]:
    """For each position p of the 1-based ``terms``, the ascending positions
    at odd distance from p whose term has p's basic type and one more
    adjoint; those p may link to, right of it, follow
    ``bisect_right(partners[p], p)``.  Positions past ``m`` (a bent goal)
    have no partners: they only close links opened to their left.
    Positions share one list per ``(basic, adjoint, parity)`` bucket; each
    list ends in ``len(terms)``, past every position."""
    end = len(terms)
    buckets: dict[tuple[str, int], tuple[list[int], list[int]]] = {}  # even, odd positions
    for p, term in enumerate(terms):
        pair = buckets.get(term)
        if pair is None:
            pair = buckets[term] = ([], [])
        pair[p & 1].append(p)
    for pair in buckets.values():
        for bucket in pair:
            bucket.append(end)
    partners = [[end]] * end
    for (basic, z), pair in buckets.items():
        mates = buckets.get((basic, z + 1))
        if mates is not None:
            for bucket, ks in zip(pair, reversed(mates)):  # odd distance: the other parity
                for p in bucket[: bisect_right(bucket, m)]:
                    partners[p] = ks
    return partners


def all_reductions(
    types: Sequence[PregroupType], goal: PregroupType
) -> Iterator[ReductionProof]:
    """Every contraction proof reducing ``types`` to ``goal``, canonical first.

    ``types`` reduce to ``goal`` exactly when the sentence followed by the
    bent goal -- the goal's terms in reverse order, each one adjoint up --
    contracts completely, so the search looks only for full contractions
    of that word.  A survivor is a sentence term linked into the bent goal.
    Bent terms only close links, and within a span only the last one can.

    Proofs come out in leftmost-innermost order: at each position a link
    with the nearest valid partner is preferred, so a term survives only
    once every link within the sentence has been tried.  A span
    ``(lo, hi)`` is solved once and memoised with its first choice, which
    prunes every branch that yields no proof.  Spans start at a sentence
    term, so for m terms and a d-term goal the memo holds O(m (m + d))
    entries, each found by one scan of its first term's sentence partners:
    rejecting costs O(m^2 (m + d)) time at worst.  The proofs are the full
    contractions :func:`ddna.core.matchings` lists over the memo, each kept
    as the walk's arcs until its links or survivors are read; the first
    proof follows the memo's first choices.  The search and the walk keep
    explicit stacks: nothing recurses on sentence length.
    """
    if (sum(len(t.terms) for t in types) + len(goal.terms)) % 2:  # links remove terms in pairs
        return
    terms = [("", 0)] + [(t.basic, t.adjoint) for typ in types for t in typ.terms]
    m = len(terms) - 1
    terms += [(t.basic, t.adjoint + 1) for t in reversed(goal.terms)]
    n = len(terms) - 1
    partners = _partner_index(terms, m)
    # memo[span]: the span's first choice -- the link from its first term
    # -- or 0 if the span does not contract.
    memo: dict[tuple[int, int], tuple[int, int] | int] = {}
    get = memo.get

    def solve(span: tuple[int, int]) -> tuple[int, int] | int:
        """Fill ``memo[span]`` and every span it needs, depth first in the
        order of the recursive definition, from an explicit stack."""
        top, stack = span, []  # suspended spans, each followed by its cursor
        i = bisect_right(partners[span[0]], span[0])  # cursor into partners[lo]
        while True:
            lo, hi = span
            ks = partners[lo]
            k = ks[i]
            ok = 0
            while k <= hi:
                if m < k < hi:  # in the bent goal only hi can close the span
                    i = bisect_left(ks, hi, i)
                    k = ks[i]
                    continue
                ok = True
                if k > lo + 1:
                    need = (lo + 1, k - 1)
                    ok = get(need)
                if ok and k < hi:
                    need = (k + 1, hi)
                    ok = get(need)
                if ok is None or ok:
                    break
                i += 1
                k = ks[i]
            if ok is None:  # solve ``need`` first, then resume here
                stack += (span, i)
                span, i = need, bisect_right(partners[need[0]], need[0])
                continue
            memo[span] = (lo, k) if ok else 0
            if not stack:
                return memo[top]
            i = stack.pop()
            span = stack.pop()

    def holds(lo: int, hi: int) -> bool:
        if lo > hi:
            return True
        found = get((lo, hi))
        return bool(solve((lo, hi)) if found is None else found)

    def choices_of(span: tuple[int, int]) -> list[tuple[int, int]]:
        """The span's choices in proof order: each link its first term can
        make, by ascending partner.  The first is ``memo[span]``."""
        lo, hi = span
        ks = partners[lo]
        i = bisect_right(ks, lo)
        found = [(lo, lo + 1)] if ks[i] == lo + 1 <= hi and holds(lo + 2, hi) else []
        last = min(hi, m)  # the last sentence term in the span
        if ks[i] <= last:
            # Past lo + 1, a link to k encloses lo + 1, which must link
            # inside it: k lies beyond the first partner of lo + 1.
            mates = partners[lo + 1]
            floor = mates[bisect_right(mates, lo + 1)]
            found += [
                (lo, k)
                for k in ks[bisect_right(ks, floor, i) : bisect_right(ks, last, i)]
                if holds(lo + 1, k - 1) and holds(k + 1, hi)
            ]
        # In the bent goal, only hi can close the span.
        if hi > max(m, lo + 1) and ks[bisect_left(ks, hi, i)] == hi and holds(lo + 1, hi - 1):
            found.append((lo, hi))
        return found

    if not holds(1, n):
        return
    new = object.__new__
    for arcs in matchings((1, n), choices_of, memo):
        proof = new(ReductionProof)
        _set_links(proof, _WalkArcs(arcs))
        _set_survivors(proof, m)
        yield proof


def find_reduction(
    types: Sequence[PregroupType], goal: PregroupType
) -> ReductionProof | None:
    """The canonical (leftmost-innermost) proof, or None if ungrammatical."""
    return next(all_reductions(types, goal), None)


@dataclass(frozen=True)
class LexiconEntry:
    type: PregroupType
    structure: SecondaryStructure


@dataclass(frozen=True, eq=False)
class Lexicon:
    """Type-to-word assignments plus one structure per vocabulary word.

    Invariant (enforced by :func:`load_lexicon`): each entry's structure
    lives on the functor image of its type and respects the lexicon's
    ``min_loop``.
    """

    assignments: Mapping[str, str]
    entries: Mapping[str, LexiconEntry]
    min_loop: int = 0


def functor_object(t: PregroupType, lexicon: Lexicon) -> str:
    """The DNA word a type maps to: assigned words, dualized at odd exponents."""
    parts = []
    for term in t.terms:
        try:
            word = lexicon.assignments[term.basic]
        except KeyError:
            raise LexiconError(f"unknown basic type {term.basic!r}") from None
        parts.append(word if term.adjoint % 2 == 0 else reverse_complement(word))
    return "".join(parts)


def functor_reduction(
    proof: ReductionProof, types: Sequence[PregroupType], lexicon: Lexicon
) -> Diagram:
    """The diagram a reduction maps to: duplex pairings for links, wires for
    survivors.  Checks the proof once (``ValueError`` if invalid); a valid
    proof's diagram is valid by construction, so it is built unchecked."""
    terms = flatten(types)
    bad = proof_violations(proof, terms)
    if bad:
        raise ValueError("invalid proof: " + "; ".join(str(v) for v in bad))
    return _reduction_diagram(proof, terms, lexicon)


def _reduction_diagram(
    proof: ReductionProof, terms: Sequence[SimpleTerm], lexicon: Lexicon
) -> Diagram:
    """The image of a valid proof, built unchecked: a link joins a block to
    its reverse complement, links do not cross, and no survivor lies under one."""
    keys = [(t.basic, t.adjoint) for t in terms]  # plain tuples hash in C
    distinct = dict(zip(keys, terms))
    image = {k: functor_object(PregroupType((t,)), lexicon) for k, t in distinct.items()}
    blocks = [image[k] for k in keys]
    offsets = list(accumulate(map(len, blocks), initial=0))
    source = canonical_word("".join(blocks))
    kept = [i for s in proof.survivors for i in range(offsets[s - 1] + 1, offsets[s] + 1)]
    source_arcs = chain.from_iterable(  # letter k of p pairs with len + 1 - k of q
        zip(range(offsets[p - 1] + 1, offsets[p] + 1), range(offsets[q], offsets[q - 1], -1))
        for p, q in proof.sorted_links()
    )
    target = "".join(source[offsets[s - 1] : offsets[s]] for s in proof.survivors)
    return Diagram.unchecked(source, target, zip(kept, range(1, len(kept) + 1)), source_arcs)


def sentence_entries(lexicon: Lexicon, words: Sequence[str]) -> list[LexiconEntry]:
    """Each word's lexicon entry; :class:`LexiconError` names the first unknown word."""
    try:
        return [lexicon.entries[word] for word in words]
    except KeyError as exc:
        raise LexiconError(f"unknown vocabulary word {exc.args[0]!r}") from None


def meaning(
    sentence: Sequence[str], goal: PregroupType, lexicon: Lexicon
) -> tuple[SecondaryStructure, LoopReport] | None:
    """The structure a grammatical sentence leaves on the goal word.

    Tensors the lexical states, composes with the canonical reduction's
    diagram (built unchecked: the proof comes from :func:`find_reduction`),
    and straightens.  Returns None when no reduction exists; raises
    :class:`LexiconError` for vocabulary not in the lexicon.
    """
    entries = sentence_entries(lexicon, sentence)
    types = [entry.type for entry in entries]
    proof = find_reduction(types, goal)
    if proof is None:
        return None
    state = tensor_all(structure_as_diagram(entry.structure) for entry in entries)
    composite, report = compose(state, _reduction_diagram(proof, flatten(types), lexicon))
    return bend(composite), report


def _read_yaml(yaml, text: str, loader) -> object:
    """``text`` loaded by ``loader``, once its events show no collection
    nested deeper than ``_MAX_NESTING``."""
    depth = 0
    for event in yaml.parse(text, Loader=loader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _MAX_NESTING:
                line = event.start_mark.line + 1
                raise LexiconError(f"lexicon nests deeper than {_MAX_NESTING} levels (line {line})")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    try:
        return yaml.load(text, Loader=loader)
    except ValueError as exc:  # a scalar YAML resolves but Python cannot build
        raise LexiconError(f"not valid YAML: {exc}") from None


def load_lexicon(text: str) -> Lexicon:
    """Parse and validate a YAML lexicon.

    Layout::

        types:
          n: AGGAACTGGAAG
          s: GCTAGCATCGAT
        theta: 3            # optional min_loop for entry structures
        entries:
          Cats:
            type: n
            structure: "((...))....."

    Each entry's ``structure`` is the bracket line of a dot-bracket pair;
    the sequence line is the functor image of the entry's type.

    Every malformed lexicon raises :class:`LexiconError`, including YAML
    that nests collections more than eight deep (checked before any node
    is built) and scalars Python cannot build, such as ``2024-13-45``.
    """
    import yaml  # deferred: only lexicon readers pay for the import

    try:
        data = _read_yaml(yaml, text, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError:
        # The C loader words its errors differently: parse again with the
        # pure one, whose messages are the ones reported.
        try:
            data = _read_yaml(yaml, text, yaml.SafeLoader)
        except yaml.YAMLError as exc:
            raise LexiconError(f"not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise LexiconError("lexicon must be a mapping")
    unknown = set(data) - {"types", "theta", "entries"}
    if unknown:
        raise LexiconError(f"unknown lexicon fields {sorted(unknown, key=str)!r}")
    raw_types = data.get("types") or {}
    if not isinstance(raw_types, dict):
        raise LexiconError("'types' must map basic types to words")
    assignments = {}
    for name, word in raw_types.items():
        if isinstance(word, (list, dict)):  # str() of nested YAML aliases grows exponentially
            raise LexiconError(f"type {str(name)!r} maps to a {type(word).__name__}, not a word")
        try:
            assignments[str(name)] = canonical_word(str(word))
        except ValueError as exc:
            raise LexiconError(f"{exc} (type {str(name)!r})") from None

    theta = data.get("theta", 0)
    if isinstance(theta, bool) or not isinstance(theta, int) or theta < 0:
        raise LexiconError(f"'theta' must be a nonnegative integer, got {_SHORT.repr(theta)}")

    lexicon = Lexicon(assignments, {}, theta)
    entries = {}
    raw_entries = data.get("entries") or {}
    if not isinstance(raw_entries, dict):
        raise LexiconError("'entries' must map vocabulary words to entries")
    for word, record in raw_entries.items():
        if not isinstance(record, dict) or set(record) != {"type", "structure"}:
            raise LexiconError(f"entry {word!r} needs exactly 'type' and 'structure'")
        for field in ("type", "structure"):
            if not isinstance(record[field], str):
                raise LexiconError(
                    f"entry {word!r}: {field!r} must be a string, got {_SHORT.repr(record[field])}"
                )
        try:
            entry_type = parse_type(record["type"])
            image = functor_object(entry_type, lexicon)
            structure = structure_from_brackets(image, record["structure"].strip())
        except (KeyError, ValueError) as exc:
            raise LexiconError(f"entry {word!r}: {exc}") from None
        if any(j - i - 1 < theta for i, j in structure.arcs):
            raise LexiconError(
                f"entry {word!r}: structure breaks the min_loop={theta} constraint"
            )
        entries[str(word)] = LexiconEntry(entry_type, structure)
    return Lexicon(assignments, entries, theta)


def load_lexicon_file(path: str) -> Lexicon:
    with open(path, encoding="utf-8") as handle:
        return load_lexicon(handle.read())
