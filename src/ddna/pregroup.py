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
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .core import (
    SecondaryStructure,
    Violation,
    canonical_word,
    reverse_complement,
    structure_from_brackets,
)
from .diagram import Diagram, LoopReport, bend, compose, structure_as_diagram, tensor_all
from .structures import FoldConfig, is_member


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


@dataclass(frozen=True)
class ReductionProof:
    """A contraction link set plus the surviving term positions (1-based)."""

    links: frozenset[tuple[int, int]]
    survivors: tuple[int, ...]


def _link_ok(terms: Sequence[SimpleTerm], p: int, q: int) -> bool:
    a, b = terms[p - 1], terms[q - 1]
    return a.basic == b.basic and b.adjoint == a.adjoint + 1


def proof_violations(
    proof: ReductionProof, terms: Sequence[SimpleTerm]
) -> list[Violation]:
    """Re-check a proof: partition, typing, noncrossing, and no survivor
    stranded under a link (which would make the functor image non-planar)."""
    violations = []
    links = sorted(proof.links)
    used = list(proof.survivors)
    for p, q in links:
        used.extend((p, q))
        if not 1 <= p < q <= len(terms):
            violations.append(Violation("index-range", f"link ({p},{q}) out of range"))
        elif not _link_ok(terms, p, q):
            violations.append(
                Violation("link-typing", f"link ({p},{q}) joins {terms[p - 1]} and {terms[q - 1]}")
            )
    if sorted(used) != list(range(1, len(terms) + 1)):
        violations.append(Violation("partition", "links and survivors do not partition the terms"))
    if tuple(sorted(proof.survivors)) != proof.survivors:
        violations.append(Violation("survivor-order", "survivors must be listed in position order"))
    for a, (p, q) in enumerate(links):
        for r, s in links[a + 1 :]:
            if p < r < q < s:
                violations.append(Violation("link-crossing", f"links ({p},{q}) and ({r},{s}) cross"))
    for p, q in links:
        for s in proof.survivors:
            if p < s < q:
                violations.append(
                    Violation("link-spans-survivor", f"survivor {s} inside link ({p},{q})")
                )
    return violations


def flatten(types: Sequence[PregroupType]) -> tuple[SimpleTerm, ...]:
    return tuple(term for t in types for term in t.terms)


def all_reductions(
    types: Sequence[PregroupType], goal: PregroupType
) -> Iterator[ReductionProof]:
    """Every contraction proof reducing ``types`` to ``goal``, canonical first.

    Proofs come out in leftmost-innermost order: at each position a link
    with the nearest valid partner is preferred over letting the term
    survive.
    """
    terms = flatten(types)
    goal_terms = goal.terms
    m = len(terms)

    matchings_memo: dict[tuple[int, int], tuple[tuple[tuple[int, int], ...], ...]] = {}

    def matchings(lo: int, hi: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """All complete noncrossing contraction matchings of terms lo..hi."""
        if lo > hi:
            return ((),)
        if (hi - lo + 1) % 2:
            return ()
        if (lo, hi) in matchings_memo:
            return matchings_memo[lo, hi]
        found = []
        for k in range(lo + 1, hi + 1, 2):
            if _link_ok(terms, lo, k):
                for inner in matchings(lo + 1, k - 1):
                    for rest in matchings(k + 1, hi):
                        found.append(((lo, k),) + inner + rest)
        matchings_memo[lo, hi] = tuple(found)
        return matchings_memo[lo, hi]

    def search(
        p: int, gi: int
    ) -> Iterator[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
        if p > m:
            if gi == len(goal_terms):
                yield (), ()
            return
        for k in range(p + 1, m + 1):
            if _link_ok(terms, p, k):
                for inner in matchings(p + 1, k - 1):
                    for rest_links, rest_survivors in search(k + 1, gi):
                        yield ((p, k),) + inner + rest_links, rest_survivors
        if gi < len(goal_terms) and terms[p - 1] == goal_terms[gi]:
            for rest_links, rest_survivors in search(p + 1, gi + 1):
                yield rest_links, (p,) + rest_survivors

    for links, survivors in search(1, 0):
        yield ReductionProof(frozenset(links), survivors)


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
    """The diagram a reduction maps to: duplex pairings for links, wires
    for survivors."""
    terms = flatten(types)
    bad = proof_violations(proof, terms)
    if bad:
        raise ValueError("invalid proof: " + "; ".join(str(v) for v in bad))
    lengths = [len(functor_object(PregroupType((t,)), lexicon)) for t in terms]
    offsets = [0]
    for length in lengths:
        offsets.append(offsets[-1] + length)
    source = functor_object(PregroupType(terms), lexicon)

    through = set()
    target_offset = 0
    for s in sorted(proof.survivors):
        for i in range(1, lengths[s - 1] + 1):
            through.add((offsets[s - 1] + i, target_offset + i))
        target_offset += lengths[s - 1]

    source_arcs = set()
    for p, q in proof.links:
        length = lengths[p - 1]
        for i in range(1, length + 1):
            source_arcs.add((offsets[p - 1] + i, offsets[q - 1] + length + 1 - i))

    target = functor_object(
        PregroupType(tuple(terms[s - 1] for s in sorted(proof.survivors))), lexicon
    )
    return Diagram(source, target, through, source_arcs)


def meaning(
    sentence: Sequence[str], goal: PregroupType, lexicon: Lexicon
) -> tuple[SecondaryStructure, LoopReport] | None:
    """The structure a grammatical sentence leaves on the goal word.

    Tensors the lexical states, composes with the canonical reduction's
    diagram, and straightens.  Returns None when no reduction exists;
    raises :class:`LexiconError` for vocabulary not in the lexicon.
    """
    entries = []
    for word in sentence:
        try:
            entries.append(lexicon.entries[word])
        except KeyError:
            raise LexiconError(f"unknown vocabulary word {word!r}") from None
    types = [entry.type for entry in entries]
    proof = find_reduction(types, goal)
    if proof is None:
        return None
    state = tensor_all(structure_as_diagram(entry.structure) for entry in entries)
    composite, report = compose(state, functor_reduction(proof, types, lexicon))
    return bend(composite), report


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
    """
    import yaml  # deferred: only lexicon readers pay for the import

    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise LexiconError(f"not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise LexiconError("lexicon must be a mapping")
    unknown = set(data) - {"types", "theta", "entries"}
    if unknown:
        raise LexiconError(f"unknown lexicon fields {sorted(unknown)!r}")
    raw_types = data.get("types") or {}
    if not isinstance(raw_types, dict):
        raise LexiconError("'types' must map basic types to words")
    assignments = {str(name): canonical_word(str(word)) for name, word in raw_types.items()}

    theta = data.get("theta", 0)
    if not isinstance(theta, int) or theta < 0:
        raise LexiconError(f"'theta' must be a nonnegative integer, got {theta!r}")
    cfg = FoldConfig(theta)

    lexicon = Lexicon(assignments, {}, theta)
    entries = {}
    raw_entries = data.get("entries") or {}
    if not isinstance(raw_entries, dict):
        raise LexiconError("'entries' must map vocabulary words to entries")
    for word, record in raw_entries.items():
        if not isinstance(record, dict) or set(record) != {"type", "structure"}:
            raise LexiconError(f"entry {word!r} needs exactly 'type' and 'structure'")
        try:
            entry_type = parse_type(str(record["type"]))
            image = functor_object(entry_type, lexicon)
            structure = structure_from_brackets(image, str(record["structure"]).strip())
        except (KeyError, ValueError) as exc:
            raise LexiconError(f"entry {word!r}: {exc}") from None
        if not is_member(structure, cfg):
            raise LexiconError(
                f"entry {word!r}: structure breaks the min_loop={theta} constraint"
            )
        entries[str(word)] = LexiconEntry(entry_type, structure)
    return Lexicon(assignments, entries, theta)


def load_lexicon_file(path: str) -> Lexicon:
    with open(path, encoding="utf-8") as handle:
        return load_lexicon(handle.read())
