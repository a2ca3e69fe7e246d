"""The pruned proof search and the bracket-based proof check against their
exponential and pairwise references, plus regressions at the sizes where
the old search ran out of time or memory."""

from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from ddna import (
    PregroupType,
    ReductionProof,
    SimpleTerm,
    all_reductions,
    find_reduction,
    parse_type,
    proof_violations,
)
from _oracles import all_reductions_reference, proof_violations_pairwise


def term_strategy(basics: list[str]):
    return st.builds(SimpleTerm, st.sampled_from(basics), st.integers(-1, 2))


@st.composite
def dyck_word(draw, term) -> list[SimpleTerm]:
    """A fully contractible term list: each opened ``a^z`` is closed by an
    ``a^(z+1)`` further right, nested like brackets."""
    out: list[SimpleTerm] = []
    stack: list[SimpleTerm] = []
    for opens in draw(st.lists(st.booleans(), max_size=8)):
        if opens or not stack:
            stack.append(draw(term))
            out.append(stack[-1])
        else:
            out.append(stack.pop().shifted(1))
    out.extend(t.shifted(1) for t in reversed(stack))
    return out


@st.composite
def sentences(draw) -> tuple[list[PregroupType], PregroupType]:
    """Dyck words with goal terms between them, sometimes with one term
    replaced, inserted or deleted, split into types at random cuts."""
    term = term_strategy(["a", "b"][: draw(st.integers(1, 2))])
    terms: list[SimpleTerm] = []
    goal: list[SimpleTerm] = []
    for is_word in draw(st.lists(st.booleans(), max_size=4)):
        if is_word:
            terms += draw(dyck_word(term))
        else:
            goal.append(draw(term))
            terms.append(goal[-1])
    edit = draw(st.sampled_from(["none", "replace", "insert", "delete"]))
    if edit != "none":
        i = draw(st.integers(0, len(terms)))
        if edit == "insert":
            terms.insert(i, draw(term))
        elif i < len(terms):
            if edit == "replace":
                terms[i] = draw(term)
            else:
                del terms[i]
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(terms) - 1)), max_size=3)))
    bounds = [0] + [c for c in cuts if c < len(terms)] + [len(terms)]
    types = [PregroupType(tuple(terms[a:b])) for a, b in zip(bounds, bounds[1:])]
    return types, PregroupType(tuple(goal))


@settings(max_examples=300, deadline=None)
@given(sentences())
@example(([parse_type("a a^r a a^r")], parse_type("a a^r")))
@example(([parse_type("a b b^r a^r")], PregroupType()))
@example(([parse_type("a^r a")], PregroupType()))
@example(([], parse_type("a")))
@example(([], PregroupType()))
@example(([], parse_type("a^r a")))
@example(([parse_type("a a^r")], parse_type("a^r a")))
def test_proofs_match_the_reference_search(case):
    types, goal = case
    proofs = list(all_reductions(types, goal))
    assert proofs == list(all_reductions_reference(types, goal))
    assert find_reduction(types, goal) == (proofs[0] if proofs else None)
    terms = tuple(t for typ in types for t in typ.terms)
    assert all(proof_violations(p, terms) == [] for p in proofs)


def test_long_alternating_sentence_is_rejected():
    # 40 words of 80 terms: exponential time, and MemoryError, before the span memo.
    noun, prep = parse_type("n"), parse_type("n^r n n^l")
    assert find_reduction([noun, prep] * 20, parse_type("s")) is None
    # One more noun makes the term count fit a one-term goal, so the memo is filled.
    assert find_reduction([noun, prep] * 20 + [noun], parse_type("s")) is None


def test_deeply_chained_links_still_reduce():
    proof = find_reduction([parse_type("a a^r")] * 900, PregroupType())
    assert proof == ReductionProof(frozenset((2 * i - 1, 2 * i) for i in range(1, 901)), ())


@st.composite
def proofs_to_check(draw) -> tuple[ReductionProof, tuple[SimpleTerm, ...]]:
    """Proofs found by the search, or arbitrary ones: crossing, reversed,
    out-of-range and same-start links, duplicate or unsorted survivors."""
    if draw(st.booleans()):
        types, goal = draw(sentences())
        terms = tuple(t for typ in types for t in typ.terms)
        found = find_reduction(types, goal)
        if found is not None:
            return found, terms
    terms = tuple(draw(st.lists(term_strategy(["a", "b"]), min_size=4, max_size=8)))
    index = st.integers(0, len(terms) + 1)
    links = draw(st.sets(st.tuples(index, index), max_size=6))
    if draw(st.booleans()):
        p, r, q, s = sorted(draw(st.sets(st.integers(1, len(terms)), min_size=4, max_size=4)))
        links |= {(p, q), (r, s)}
    survivors = tuple(draw(st.lists(index, max_size=5)))
    return ReductionProof(frozenset(links), survivors), terms


@settings(max_examples=200)
@given(proofs_to_check())
@example((ReductionProof(frozenset({(1, 4), (2, 5)}), (3,)), parse_type("a b c a^r b^r").terms))
@example(
    (ReductionProof(frozenset({(1, 6), (1, 3), (4, 2)}), (5, 2, 5)), parse_type("a a a a a a").terms)
)
def test_proof_violations_match_the_pairwise_reference(case):
    proof, terms = case
    assert proof_violations(proof, terms) == proof_violations_pairwise(proof, terms)


@pytest.mark.parametrize("pairs", [1100, 5000])
def test_long_chains_reduce_without_recursion(pairs):
    # Both raised RecursionError when the search recursed once per link.
    types = [parse_type("a a^r")] * pairs
    proof = ReductionProof(frozenset((2 * i - 1, 2 * i) for i in range(1, pairs + 1)), ())
    assert find_reduction(types, PregroupType()) == proof
    assert list(islice(all_reductions(types, PregroupType()), 2)) == [proof]


def test_long_goals_reduce():
    # A goal that survives whole, and a goal split around a long contraction:
    # the search must not scan the goal's terms once per span.
    word = parse_type(" ".join(["a"] * 3000))
    assert list(all_reductions([word], word)) == [ReductionProof(frozenset(), tuple(range(1, 3001)))]
    types = [parse_type("s")] + [parse_type("a a^r")] * 1500 + [parse_type("s")]
    proof = ReductionProof(frozenset((2 * i, 2 * i + 1) for i in range(1, 1501)), (1, 3002))
    assert list(all_reductions(types, parse_type("s s"))) == [proof]


NOUN, ADJ, PREP, VERB, REL, CONJ = (
    parse_type(text)
    for text in ("n", "n n^l", "n^r n n^l", "n^r s n^l", "n^r n s^l n", "s^r s s^l")
)


@st.composite
def noun_phrase(draw, depth: int) -> list[PregroupType]:
    """A noun, maybe with adjectives, prepositional phrases or relative
    clauses; prepositions and relative clauses attach in several ways."""
    kind = draw(st.sampled_from(["noun", "adj", "prep", "rel"] if depth else ["noun"]))
    if kind == "noun":
        return [NOUN]
    if kind == "adj":
        return [ADJ] + draw(noun_phrase(depth - 1))
    head = draw(noun_phrase(depth - 1))
    if kind == "prep":
        return head + [PREP] + draw(noun_phrase(depth - 1))
    return head + [REL, VERB] + draw(noun_phrase(depth - 1))


@st.composite
def attachment_sentences(draw) -> tuple[list[PregroupType], PregroupType]:
    """Sentences (goal ``s``: clauses joined by conjunctions) or noun phrases
    (goal ``n``) of a small attachment grammar, sometimes with one term
    replaced, inserted or deleted, so spans with many proofs sit beside
    spans with one."""
    if draw(st.booleans()):
        types, goal = draw(noun_phrase(3)), parse_type("n")
    else:
        types, goal = [], parse_type("s")
        for clause in range(draw(st.integers(1, 2))):
            types += [CONJ] * (clause > 0) + draw(noun_phrase(2)) + [VERB] + draw(noun_phrase(1))
    edit = draw(st.sampled_from(["none", "replace", "insert", "delete"]))
    if edit != "none":
        w = draw(st.integers(0, len(types) - 1))
        terms = list(types[w].terms)
        i = draw(st.integers(0, len(terms)))
        term = draw(term_strategy(["n", "s"]))
        if edit == "insert":
            terms.insert(i, term)
        elif i < len(terms):
            if edit == "replace":
                terms[i] = term
            else:
                del terms[i]
        types = types[:w] + [PregroupType(tuple(terms))] + types[w + 1 :]
    return types, goal


@settings(max_examples=300, deadline=None)
@given(attachment_sentences())
@example(([NOUN, VERB, NOUN, PREP, NOUN, PREP, NOUN], parse_type("s")))
@example(([NOUN, VERB, NOUN, CONJ, NOUN, REL, VERB, NOUN, PREP, NOUN, VERB, NOUN], parse_type("s")))
def test_attachment_proofs_match_the_reference_search(case):
    types, goal = case
    proofs = list(all_reductions(types, goal))
    assert proofs == list(all_reductions_reference(types, goal))
    assert find_reduction(types, goal) == (proofs[0] if proofs else None)
    terms = tuple(t for typ in types for t in typ.terms)
    assert all(proof_violations(p, terms) == [] for p in proofs)
