"""The pruned proof search and the bracket-based proof check against their
exponential and pairwise references, plus regressions at the sizes where
the old search ran out of time or memory."""

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
