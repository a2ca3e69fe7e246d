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
from itertools import accumulate
from typing import Iterator, Mapping, Sequence

from .core import (
    SecondaryStructure,
    Violation,
    canonical_word,
    crossing_violations,
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
    ordered = [(p, q) for p, q in links if p < q]
    violations.extend(crossing_violations(ordered, "link-crossing", "links"))
    violations.extend(
        Violation("link-spans-survivor", f"survivor {s} inside link ({p},{q})")
        for p, q, s in spanned_anchors(links, list(proof.survivors))
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
    survive.  A memo of which spans reduce to which goal suffixes prunes
    every branch that yields no proof, so for m terms rejecting costs
    O(m^3) time and O(m^2) space, and each proof costs polynomial time.
    """
    terms, goal_terms = flatten(types), goal.terms
    m, done = len(terms), len(goal_terms)
    memo: dict[tuple[int, int, int], bool] = {}

    def reduces(lo: int, hi: int, g: int) -> bool:
        """Whether terms lo..hi reduce to goal_terms[g:]; spans inside a
        link use ``g = done``, so they must contract completely."""
        if lo > hi:
            return g == done
        key = (lo, hi, g)
        if key in memo:
            return memo[key]
        for k in range(lo + 1, hi + 1, 2):
            if _link_ok(terms, lo, k) and reduces(lo + 1, k - 1, done) and reduces(k + 1, hi, g):
                memo[key] = True
                return True
        memo[key] = g < done and terms[lo - 1] == goal_terms[g] and reduces(lo + 1, hi, g + 1)
        return memo[key]

    links: list[tuple[int, int]] = []
    survivors: list[int] = []

    def proofs(lo: int, hi: int, g: int) -> Iterator[None]:
        """Yield once per proof that terms lo..hi reduce to goal_terms[g:],
        given that they do, with its links and survivors pushed on ``links``
        and ``survivors``: links to each ``k`` in turn, then survival."""
        if lo > hi:
            yield
            return
        for k in range(lo + 1, hi + 1, 2):
            if _link_ok(terms, lo, k) and reduces(lo + 1, k - 1, done) and reduces(k + 1, hi, g):
                links.append((lo, k))
                for _ in proofs(lo + 1, k - 1, done):
                    yield from proofs(k + 1, hi, g)
                links.pop()
        if g < done and terms[lo - 1] == goal_terms[g] and reduces(lo + 1, hi, g + 1):
            survivors.append(lo)
            yield from proofs(lo + 1, hi, g + 1)
            survivors.pop()

    # Links remove terms in pairs, so no proof exists unless m - done is even.
    if (m - done) % 2 == 0 and reduces(1, m, 0):
        for _ in proofs(1, m, 0):
            yield ReductionProof(frozenset(links), tuple(survivors))


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
    image = {t: functor_object(PregroupType((t,)), lexicon) for t in dict.fromkeys(terms)}
    offsets = list(accumulate((len(image[t]) for t in terms), initial=0))
    source = canonical_word("".join(image[t] for t in terms))
    kept = [i for s in proof.survivors for i in range(offsets[s - 1] + 1, offsets[s] + 1)]
    source_arcs = [
        (i, offsets[p - 1] + offsets[q] + 1 - i)  # letter k of p pairs with len + 1 - k of q
        for p, q in proof.links
        for i in range(offsets[p - 1] + 1, offsets[p] + 1)
    ]
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
    if isinstance(theta, bool) or not isinstance(theta, int) or theta < 0:
        raise LexiconError(f"'theta' must be a nonnegative integer, got {theta!r}")

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
        if any(j - i - 1 < theta for i, j in structure.arcs):
            raise LexiconError(
                f"entry {word!r}: structure breaks the min_loop={theta} constraint"
            )
        entries[str(word)] = LexiconEntry(entry_type, structure)
    return Lexicon(assignments, entries, theta)


def load_lexicon_file(path: str) -> Lexicon:
    with open(path, encoding="utf-8") as handle:
        return load_lexicon(handle.read())
