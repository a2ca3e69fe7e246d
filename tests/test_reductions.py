"""The pruned proof search and the bracket-based proof check against their
exponential and pairwise references, plus regressions at the sizes where
the old search ran out of time or memory."""

import copy
import dataclasses
import pickle
import sys
import threading
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
    assert all(p.sorted_links() == tuple(sorted(p.links)) for p in proofs)


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


class TestListedProofValue:
    """Listed proofs keep the walk's arcs in slots, with value semantics intact."""

    # n n^r s n^l n reduces to s through the links (1,2) and (4,5); the
    # walk's arc (3,6) joins the survivor to the bent goal between them.
    TYPES = [parse_type("n"), parse_type("n^r s n^l"), parse_type("n")]
    BUILT = ReductionProof(frozenset({(4, 5), (1, 2)}), (3,))
    # What is read before the test, if anything: each read splits the arcs.
    READS = {
        "nothing": lambda p: None,
        "links": lambda p: p.links,
        "survivors": lambda p: p.survivors,
        "sorted links": lambda p: p.sorted_links(),
    }

    @pytest.fixture(params=sorted(READS))
    def listed(self, request):
        (proof,) = all_reductions(self.TYPES, parse_type("s"))
        self.READS[request.param](proof)
        return proof

    def test_listed_value_equals_the_built_one(self, listed):
        assert listed == self.BUILT and hash(listed) == hash(self.BUILT)
        assert repr(listed) == repr(self.BUILT)
        assert listed != ReductionProof(frozenset({(1, 2)}), (3,))

    def test_fields_read_as_a_frozenset_and_a_tuple(self, listed):
        assert type(listed.links) is frozenset and listed.links is listed.links
        assert listed.links == {(1, 2), (4, 5)}
        assert type(listed.survivors) is tuple and listed.survivors == (3,)

    def test_sorted_links_leave_out_the_survivor_arcs(self, listed):
        assert listed.sorted_links() == self.BUILT.sorted_links() == ((1, 2), (4, 5))

    def test_listed_value_keeps_the_dataclass_helpers(self, listed):
        assert [f.name for f in dataclasses.fields(listed)] == ["links", "survivors"]
        assert dataclasses.asdict(listed) == {"links": {(1, 2), (4, 5)}, "survivors": (3,)}
        moved = dataclasses.replace(listed, survivors=(5,))
        assert moved == ReductionProof(frozenset({(1, 2), (4, 5)}), (5,))

    @pytest.mark.parametrize("clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy])
    def test_listed_value_round_trips(self, listed, clone):
        again = clone(listed)
        assert again == self.BUILT and type(again.links) is frozenset

    @pytest.mark.parametrize("field", ["links", "survivors"])
    def test_fields_cannot_be_assigned_or_deleted(self, listed, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(listed, field, getattr(self.BUILT, field))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(listed, field)
        assert not hasattr(listed, "__dict__")
        assert listed == self.BUILT

    def test_threads_racing_on_the_first_reads_agree(self):
        # Each read splits the arcs and stores what it built; a thread that
        # reads a field while another splits must still see the right value.
        types = self.TYPES + [parse_type("n^r n n^l"), parse_type("n")] * 6
        expected = [
            (p.sorted_links(), p.survivors) for p in all_reductions_reference(types, parse_type("s"))
        ]
        reads = [
            lambda p: (tuple(sorted(p.links)), p.survivors),
            lambda p: (p.sorted_links(), p.survivors),
            lambda p: (p.survivors, p.sorted_links())[::-1],
        ] * 2
        start = threading.Barrier(len(reads))
        seen: list = []

        def read_all(proofs, read):
            start.wait(timeout=30)
            seen.append([read(p) for p in proofs])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                proofs = list(all_reductions(types, parse_type("s")))
                threads = [threading.Thread(target=read_all, args=(proofs, r)) for r in reads]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(expected) == 132 and len(seen) == 100 * len(reads)
        assert all(values == expected for values in seen)


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
@example(([NOUN, VERB, NOUN] + [PREP, NOUN] * 5, parse_type("s")))
@example(([NOUN, VERB, NOUN] + [PREP, NOUN] * 6, parse_type("s")))
def test_attachment_proofs_match_the_reference_search(case):
    types, goal = case
    proofs = list(all_reductions(types, goal))
    assert proofs == list(all_reductions_reference(types, goal))
    assert find_reduction(types, goal) == (proofs[0] if proofs else None)
    terms = tuple(t for typ in types for t in typ.terms)
    assert all(proof_violations(p, terms) == [] for p in proofs)
