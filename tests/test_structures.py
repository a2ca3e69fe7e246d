import random
import re
import sys
import time
import tracemalloc
from itertools import islice
from typing import Iterator

import pytest
from hypothesis import example, given, settings, strategies as st

from ddna import (
    AlphabetError,
    FoldConfig,
    SecondaryStructure,
    all_reductions,
    count_max_bond,
    count_structures,
    enumerate_structures,
    is_member,
    max_bond,
    max_bond_witnesses,
    parse_type,
    reverse_complement,
    structure_as_diagram,
    validate,
)
from _oracles import (
    all_structures_bruteforce,
    count_max_bond_reference,
    count_structures_reference,
    enumerate_structures_reference,
    max_bond_reference,
    random_word,
)

HAIRPIN = SecondaryStructure(
    "ACGTAGGGTACGT", {(1, 13), (2, 12), (3, 11), (4, 10), (5, 9)}
)


def arcs_of(word, cfg):
    return [s.sorted_arcs() for s in enumerate_structures(word, cfg)]


def test_fold_config_rejects_negative():
    with pytest.raises(ValueError):
        FoldConfig(-1)


@pytest.mark.parametrize("min_loop", [-1, 2.5, True, False, "3", None])
def test_fold_config_names_a_min_loop_that_is_not_a_nonnegative_int(min_loop):
    with pytest.raises(ValueError, match=re.escape(f"got {min_loop!r}") + "$"):
        FoldConfig(min_loop)


@pytest.mark.parametrize("min_loop", [0, 3])
def test_fold_config_keeps_a_nonnegative_int(min_loop):
    assert FoldConfig(min_loop).min_loop == min_loop


class TestEnumerate:
    def test_two_letter_word(self):
        assert arcs_of("AT", FoldConfig(0)) == [(), ((1, 2),)]

    def test_no_complementary_pairs(self):
        assert arcs_of("AAAA", FoldConfig(0)) == [()]

    def test_four_letter_word(self):
        assert arcs_of("ACGT", FoldConfig(0)) == [
            (),
            ((1, 4),),
            ((1, 4), (2, 3)),
            ((2, 3),),
        ]

    def test_empty_word(self):
        assert arcs_of("", FoldConfig(0)) == [()]

    def test_is_lazy_and_starts_with_empty_structure(self):
        gen = enumerate_structures("ATATATATATATATATATAT", FoldConfig(0))
        assert isinstance(gen, Iterator)
        assert not next(gen).arcs

    def test_lexicographic_order(self):
        for word in ("ACGT", "ATAT", "ACGTAGGGTACGT"):
            listed = arcs_of(word, FoldConfig(0))
            assert listed == sorted(listed)
            assert len(listed) == len(set(listed))

    def test_bad_word_is_rejected_on_the_call(self):
        with pytest.raises(AlphabetError):
            enumerate_structures("AXT")

    def test_hairpin_is_enumerated_at_theta_three(self):
        assert HAIRPIN in set(enumerate_structures(HAIRPIN.word, FoldConfig(3)))

    @pytest.mark.parametrize("theta", [0, 3])
    def test_matches_bruteforce_oracle(self, theta):
        rng = random.Random(20240 + theta)
        for _ in range(40):
            word = random_word(rng, 10)
            expected = all_structures_bruteforce(word, theta)
            got = {s.arcs for s in enumerate_structures(word, FoldConfig(theta))}
            assert got == expected

    def test_every_structure_lifts_to_a_valid_diagram(self):
        rng = random.Random(7)
        for _ in range(20):
            word = random_word(rng, 8)
            for s in enumerate_structures(word, FoldConfig(0)):
                assert validate(structure_as_diagram(s)) == []


class TestCount:
    def test_examples(self):
        assert count_structures("ACGT", FoldConfig(0)) == 4
        assert count_structures("", FoldConfig(0)) == 1
        assert count_structures("AAAA", FoldConfig(0)) == 1

    @pytest.mark.parametrize("theta", [0, 3])
    def test_count_equals_enumeration_length(self, theta):
        rng = random.Random(99 + theta)
        for _ in range(30):
            word = random_word(rng, 12)
            cfg = FoldConfig(theta)
            assert count_structures(word, cfg) == sum(
                1 for _ in enumerate_structures(word, cfg)
            )

    def test_monotone_in_min_loop(self):
        rng = random.Random(5)
        for _ in range(20):
            word = random_word(rng, 10)
            counts = [count_structures(word, FoldConfig(t)) for t in range(5)]
            assert counts == sorted(counts, reverse=True)

    def test_invariant_under_reverse_complement(self):
        rng = random.Random(6)
        for theta in (0, 3):
            for _ in range(20):
                word = random_word(rng, 10)
                assert count_structures(word, FoldConfig(theta)) == count_structures(
                    reverse_complement(word), FoldConfig(theta)
                )

    @pytest.mark.parametrize(
        "word, theta",
        [
            ("AT" * 60, 0),
            ("".join(random.Random(17).choice("ACGT") for _ in range(200)), 3),
            ("A" * 100 + "T" * 100, 0),
            ("AG" * 100, 0),
            ("", 0),
            ("A", 0),
            ("AT" * 100, 0),
        ],
        ids=["AT*60", "random200-theta3", "A100T100", "AG*100", "empty", "A", "AT*100"],
    )
    def test_packed_rows_match_the_reference(self, word, theta):
        # AT*60 and AT*100 overflow one bit per letter (first at row 27 of
        # 120 and row 48 of 200), so their finished rows are re-packed 3**n wide.
        cfg = FoldConfig(theta)
        assert count_structures(word, cfg) == count_structures_reference(word, cfg)

    def test_counts_without_materializing(self):
        # A word far beyond enumeration reach still counts quickly.
        value = count_structures("ACGT" * 20, FoldConfig(3))
        assert value > 10**6


class TestMaxBond:
    def test_no_pairs(self):
        bonds, witnesses = max_bond("AAAA", FoldConfig(0))
        assert bonds == 0
        assert witnesses == [SecondaryStructure("AAAA", set())]

    def test_single_pair(self):
        bonds, witnesses = max_bond("AT", FoldConfig(0))
        assert bonds == 1
        assert witnesses == [SecondaryStructure("AT", {(1, 2)})]

    def test_hairpin_is_the_unique_maximum(self):
        bonds, witnesses = max_bond(HAIRPIN.word, FoldConfig(3))
        assert bonds == 5
        assert HAIRPIN in witnesses

    def test_empty_word(self):
        assert max_bond("", FoldConfig(0)) == (0, [SecondaryStructure("", set())])

    def test_alternating_word_has_catalan_many_witnesses(self):
        bonds, witnesses = max_bond("AT" * 10, FoldConfig(0))
        assert bonds == 10 and len(witnesses) == 16796

    @pytest.mark.parametrize("theta", [0, 3])
    def test_agrees_with_enumeration(self, theta):
        rng = random.Random(31 + theta)
        for _ in range(25):
            word = random_word(rng, 9)
            cfg = FoldConfig(theta)
            everything = list(enumerate_structures(word, cfg))
            best = max(len(s.arcs) for s in everything)
            expected = sorted(
                (s for s in everything if len(s.arcs) == best),
                key=SecondaryStructure.sorted_arcs,
            )
            bonds, witnesses = max_bond(word, cfg)
            assert bonds == best
            assert witnesses == expected


class TestWitnessCount:
    @pytest.mark.parametrize("theta", [0, 1, 3])
    def test_counts_the_reference_witnesses(self, theta):
        rng = random.Random(1400 + theta)
        cfg = FoldConfig(theta)
        for _ in range(40):
            word = random_word(rng, 14)
            bonds, witnesses = max_bond_reference(word, cfg)
            assert count_max_bond(word, cfg) == (bonds, len(witnesses)), word

    def test_alternating_word(self):
        assert count_max_bond("AT" * 12, FoldConfig(0)) == (12, 208012)

    def test_counts_millions_of_witnesses_without_listing_them(self):
        # Listing this word's witnesses takes more memory than a test host has.
        word = random_word(random.Random(200), 200, 200)
        start = time.perf_counter()
        bonds, ways = count_max_bond(word, FoldConfig(3))
        elapsed = time.perf_counter() - start
        assert ways > 10**6
        assert (bonds, ways) == count_max_bond_reference(word, FoldConfig(3))
        assert elapsed < 1.0


class TestWitnessStream:
    @pytest.mark.parametrize("theta", [0, 1, 3])
    def test_streams_the_listed_witnesses_in_order(self, theta):
        rng = random.Random(1500 + theta)
        cfg = FoldConfig(theta)
        for _ in range(40):
            word = random_word(rng, 14)
            streamed = list(max_bond_witnesses(word, cfg))
            assert streamed == max_bond(word, cfg)[1] == max_bond_reference(word, cfg)[1]

    def test_checks_the_word_on_the_call(self):
        with pytest.raises(AlphabetError):
            max_bond_witnesses("ACGX")

    def test_stores_no_more_than_the_result(self):
        # The whole word's witnesses are built one at a time, so the peak is
        # the returned list plus the shared sub-interval witnesses.
        tracemalloc.start()
        try:
            bonds, witnesses = max_bond("AT" * 10, FoldConfig(0))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (bonds, len(witnesses)) == (10, 16796)
        assert peak - retained < 2 * 2**20

    def test_listed_witnesses_hold_no_arc_sets(self):
        # Each witness keeps its arcs as a tuple until ``arcs`` is read; a
        # frozenset per witness took this listing's peak to 12.6 MB.
        tracemalloc.start()
        try:
            witnesses = list(max_bond_witnesses("AT" * 10, FoldConfig(0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(witnesses) == 16796
        assert peak < 6 * 2**20

    def test_listed_proofs_hold_no_link_sets(self):
        # Grammar proofs are matchings from the same walk: each keeps the
        # walk's arcs as one tuple until ``links`` or ``survivors`` is read.
        # A frozenset and a survivor tuple per proof took this listing's
        # peak to 38.5 MB; the arc tuples alone take 4.6 MB.
        types = [parse_type(t) for t in ["n", "n^r s n^l", "n"] + ["n^r n n^l", "n"] * 10]
        tracemalloc.start()
        try:
            proofs = list(all_reductions(types, parse_type("s")))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(proofs) == 16796  # Catalan(11)
        assert peak < 12 * 2**20

    def test_first_witnesses_of_a_word_with_millions_come_without_listing_them(self):
        # Listing every interval's witnesses before the first one took 2.09 GB here.
        rng = random.Random(1)
        word = "".join(rng.choice("ACGT") for _ in range(140))
        cfg = FoldConfig(3)
        assert count_max_bond(word, cfg) == (49, 5017108)
        tracemalloc.start()
        try:
            first = list(islice(max_bond_witnesses(word, cfg), 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert len(first) == 1000
        assert all(is_member(w, cfg) and len(w.arcs) == 49 for w in first)
        keys = [w.sorted_arcs() for w in first]
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestIsMember:
    def test_hairpin_at_theta_three(self):
        assert is_member(HAIRPIN, FoldConfig(3))

    def test_crossing_rejected(self):
        raw = SecondaryStructure.unchecked("ATAT", {(1, 3), (2, 4)})
        assert not is_member(raw, FoldConfig(0))

    def test_min_loop_rejected(self):
        assert not is_member(SecondaryStructure("AT", {(1, 2)}), FoldConfig(3))


def fold_outputs(word, theta, count, enumerate_, max_bond_):
    cfg = FoldConfig(theta)
    bonds, witnesses = max_bond_(word, cfg)
    return (
        count(word, cfg),
        [s.sorted_arcs() for s in islice(enumerate_(word, cfg), 3000)],
        bonds,
        [s.sorted_arcs() for s in witnesses],
    )


@settings(max_examples=200, deadline=None)
@given(st.text("ACGT", max_size=16), st.sampled_from([0, 1, 3]))
@example("AT" * 10, 0)
@example("ACGT" * 8, 0)
@example("AT" * 5, 0)
@example("AT" * 8, 0)
@example("AT" * 4, 0)
def test_partner_tables_match_the_pair_matrix_reference(word, theta):
    """Counts, the first 3,000 structures in order, and the maximum bond
    count with its witnesses in order all equal the reference's."""
    assert fold_outputs(
        word, theta, count_structures, enumerate_structures, max_bond
    ) == fold_outputs(
        word,
        theta,
        count_structures_reference,
        enumerate_structures_reference,
        max_bond_reference,
    )


class TestLongWords:
    """Sizes at which a recursion with one frame per position or per
    committed arc exceeded the interpreter's recursion limit."""

    def test_max_bond_without_pairs(self):
        word = "A" * 1500
        assert max_bond(word) == (0, [SecondaryStructure(word, set())])

    def test_max_bond_on_a_purine_word_at_theta_three(self):
        rng = random.Random(1200)
        word = "".join(rng.choice("AG") for _ in range(1200))
        assert max_bond(word, FoldConfig(3)) == (0, [SecondaryStructure(word, set())])

    def test_max_bond_lists_a_stem_deeper_than_the_recursion_limit(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(120)
        try:
            bonds, witnesses = max_bond("A" * 150 + "T" * 150)
        finally:
            sys.setrecursionlimit(limit)
        assert bonds == 150
        assert [w.sorted_arcs() for w in witnesses] == [tuple((i, 301 - i) for i in range(1, 151))]

    def test_max_bond_shares_the_witnesses_of_a_stem_deeper_than_the_recursion_limit(self):
        # One T stays unpaired; every later witness lists and shares intervals.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(120)
        try:
            bonds, witnesses = max_bond("A" * 150 + "T" * 151)
        finally:
            sys.setrecursionlimit(limit)
        assert bonds == 150
        assert [w.sorted_arcs() for w in witnesses] == [
            tuple((i, 302 - i - (302 - i <= free)) for i in range(1, 151))
            for free in range(301, 150, -1)
        ]

    def test_enumeration_reaches_a_1500_arc_structure(self):
        first = list(islice(enumerate_structures("AT" * 1500), 1600))
        assert first[1500].sorted_arcs() == tuple((i, i + 1) for i in range(1, 3000, 2))
