import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from ddna import (
    AlphabetError,
    DotBracketError,
    FoldConfig,
    SecondaryStructure,
    StructureError,
    canonical_word,
    complement,
    emit_dotbracket,
    is_member,
    parse_dotbracket,
    reverse_complement,
    structure_from_brackets,
    structure_violations,
)
from ddna.core import PAIR_TYPE, pair_class

words = st.text(alphabet="ACGT", max_size=12)


@pytest.mark.parametrize("base,partner", [("A", "T"), ("T", "A"), ("C", "G"), ("G", "C")])
def test_complement_pairs(base, partner):
    assert complement(base) == partner
    assert complement(complement(base)) == base


@pytest.mark.parametrize("base,partner", [("A", "T"), ("T", "A"), ("C", "G"), ("G", "C")])
def test_pair_type_table_agrees_with_pair_class(base, partner):
    assert PAIR_TYPE[base] == PAIR_TYPE[partner] == pair_class(base, partner)


@pytest.mark.parametrize("base,partner", [("A", "A"), ("A", "C"), ("G", "T"), ("C", "N")])
def test_pair_class_rejects_a_non_pair(base, partner):
    with pytest.raises(ValueError, match="is not a Watson-Crick pair"):
        pair_class(base, partner)


def test_complement_rejects_garbage():
    with pytest.raises(AlphabetError):
        complement("N")


def test_canonical_word_uppercases_and_validates():
    assert canonical_word("acgt") == "ACGT"
    with pytest.raises(AlphabetError):
        canonical_word("ACGN")
    with pytest.raises(AlphabetError):
        canonical_word("ACGU")


def test_canonical_word_names_each_invalid_letter_once_in_order_of_first_use():
    with pytest.raises(AlphabetError) as caught:
        canonical_word("AUxGUNuX")
    assert str(caught.value) == "invalid letters ['U', 'X', 'N']; words use only A, C, G, T"
    with pytest.raises(AlphabetError) as caught:
        canonical_word("ACGU" * 250_000)  # the message does not grow with the word
    assert str(caught.value) == "invalid letters ['U']; words use only A, C, G, T"
    assert len(str(caught.value)) < 100


@pytest.mark.parametrize(
    "word,expected",
    [("ACG", "CGT"), ("", ""), ("GAATCTCTC", "GAGAGATTC"), ("A", "T")],
)
def test_reverse_complement_examples(word, expected):
    assert reverse_complement(word) == expected


@given(st.text(alphabet="ACGTacgt", max_size=12))
def test_reverse_complement_complements_each_letter_in_reverse(w):
    assert reverse_complement(w) == "".join(complement(b) for b in reversed(w.upper()))


@given(words)
def test_reverse_complement_is_an_involution(w):
    assert reverse_complement(reverse_complement(w)) == w


@given(words, words)
def test_reverse_complement_antihomomorphism(u, v):
    assert reverse_complement(u + v) == reverse_complement(v) + reverse_complement(u)


class TestStructureValidation:
    def test_valid_pair(self):
        s = SecondaryStructure("AT", {(1, 2)})
        assert s.sorted_arcs() == ((1, 2),)

    def test_rejects_noncomplementary(self):
        with pytest.raises(StructureError) as err:
            SecondaryStructure("ACGT", {(2, 4)})
        assert any(v.rule == "complementarity" for v in err.value.violations)

    def test_rejects_crossing(self):
        with pytest.raises(StructureError) as err:
            SecondaryStructure("ATAT", {(1, 3), (2, 4)})  # T-A and A-T, but crossing
        assert any(v.rule == "crossing" for v in err.value.violations)

    def test_rejects_shared_position(self):
        with pytest.raises(StructureError) as err:
            SecondaryStructure("ATT", {(1, 2), (1, 3)})
        assert any(v.rule == "uniqueness" for v in err.value.violations)

    def test_rejects_bad_indices(self):
        with pytest.raises(StructureError) as err:
            SecondaryStructure("AT", {(0, 2), (2, 1)})
        rules = {v.rule for v in err.value.violations}
        assert "index-range" in rules

    def test_positions_must_be_integers(self):
        with pytest.raises(TypeError):
            SecondaryStructure("AT", {(1.9, 2)})
        with pytest.raises(TypeError):
            SecondaryStructure("AT", {("1", 2)})

    def test_unchecked_defers_validation(self):
        raw = SecondaryStructure.unchecked("ATTA", {(1, 3), (2, 4)})
        assert {v.rule for v in raw.violations()} == {"crossing"}


class TestSlottedValue:
    """Structures keep their fields in slots, with value semantics intact."""

    def test_holds_no_instance_dict(self):
        assert not hasattr(SecondaryStructure("AT", {(1, 2)}), "__dict__")

    @pytest.mark.parametrize("field", ["word", "arcs"])
    def test_fields_cannot_be_assigned(self, field):
        s = SecondaryStructure("AT", {(1, 2)})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, field, s.word)

    def test_equal_structures_hash_equal(self):
        a = SecondaryStructure("ATAT", [(1, 2), (3, 4)])
        b = SecondaryStructure.unchecked("ATAT", frozenset({(3, 4), (1, 2)}))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != SecondaryStructure("ATAT", {(1, 4)})

    def test_unchecked_shares_a_frozenset_it_is_given(self):
        arcs = frozenset({(1, 2)})
        assert SecondaryStructure.unchecked("AT", arcs).arcs is arcs

    # Arcs handed to ``unchecked`` as anything but a frozenset: the set is
    # built on the first read.
    LAZY = {
        "list": lambda: [(3, 4), (1, 2)],
        "set with duplicates": lambda: {(1, 2), (3, 4), (1, 2)},
        "generator": lambda: (arc for arc in [(1, 2), (3, 4), (1, 2)]),
    }

    @pytest.fixture(params=sorted(LAZY))
    def lazy(self, request):
        return SecondaryStructure.unchecked("ATAT", self.LAZY[request.param]())

    VALID = SecondaryStructure("ATAT", [(1, 2), (3, 4)])

    def test_lazy_value_equals_the_validated_one(self, lazy):
        assert lazy == self.VALID and hash(lazy) == hash(self.VALID)
        assert repr(lazy) == repr(self.VALID) and emit_dotbracket(lazy) == "ATAT\n()()\n"

    def test_lazy_arcs_read_as_one_frozenset(self, lazy):
        assert type(lazy.arcs) is frozenset and lazy.arcs is lazy.arcs
        assert lazy.arcs == {(1, 2), (3, 4)}

    def test_lazy_value_keeps_the_dataclass_helpers(self, lazy):
        assert [f.name for f in dataclasses.fields(lazy)] == ["word", "arcs"]
        assert dataclasses.asdict(lazy) == {"word": "ATAT", "arcs": {(1, 2), (3, 4)}}
        moved = dataclasses.replace(lazy, arcs=[(1, 4)])
        assert moved.arcs == {(1, 4)} and type(moved.arcs) is frozenset

    @pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy])
    def test_lazy_value_round_trips(self, lazy, clone):
        again = clone(lazy)
        assert again == self.VALID and type(again.arcs) is frozenset

    def test_lazy_arcs_cannot_be_deleted(self, lazy):
        with pytest.raises(dataclasses.FrozenInstanceError):
            del lazy.arcs
        assert not hasattr(lazy, "__dict__")

    def test_constructor_still_accepts_arcs_as_lists(self):
        assert SecondaryStructure("AT", [[1, 2]]).arcs == {(1, 2)}

    def test_checks_run_on_an_unchecked_value(self):
        raw = SecondaryStructure.unchecked("ATTA", frozenset({(1, 3), (2, 4)}))
        assert [v.rule for v in raw.violations()] == ["crossing"]
        assert not is_member(raw, FoldConfig(0))
        assert is_member(SecondaryStructure.unchecked("AGCT", frozenset({(1, 4)})), FoldConfig(2))


class TestDotBracket:
    def test_single_pair(self):
        assert parse_dotbracket("AT\n()\n").sorted_arcs() == ((1, 2),)

    def test_hairpin(self):
        s = parse_dotbracket("ACGTAGGGTACGT\n(((((...)))))\n")
        assert s.sorted_arcs() == ((1, 13), (2, 12), (3, 11), (4, 10), (5, 9))

    def test_noncomplementary_pair_is_rejected(self):
        with pytest.raises(StructureError):
            parse_dotbracket("ACGT\n.(.)\n")  # C-T is not a Watson-Crick pair

    def test_length_mismatch(self):
        with pytest.raises(DotBracketError):
            structure_from_brackets("ACGT", "(..")

    @pytest.mark.parametrize("brackets", ["(...", "...)", "())("])
    def test_unbalanced_brackets(self, brackets):
        with pytest.raises(DotBracketError):
            structure_from_brackets("ATAT", brackets)

    def test_invalid_bracket_character(self):
        with pytest.raises(DotBracketError):
            structure_from_brackets("AT", "(]")

    def test_extra_lines_rejected(self):
        with pytest.raises(DotBracketError):
            parse_dotbracket("AT\n()\nAT\n")

    def test_empty_word(self):
        s = parse_dotbracket("\n\n")
        assert s.word == "" and not s.arcs

    @pytest.mark.parametrize("text", ["\n", "", "  \n"])
    def test_missing_lines_read_as_empty(self, text):
        assert parse_dotbracket(text) == SecondaryStructure("", ())

    @pytest.mark.parametrize("text,length", [("\n\n", 0), ("ACGTAGGGTACGT\n(((((...)))))\n", 13)])
    def test_len_is_the_word_length(self, text, length):
        assert len(parse_dotbracket(text)) == length

    def test_emit_examples(self):
        assert emit_dotbracket(SecondaryStructure("AT", {(1, 2)})) == "AT\n()\n"
        assert emit_dotbracket(SecondaryStructure("GAGAGA", set())) == "GAGAGA\n......\n"

    def test_emit_parse_roundtrip_on_hairpin(self):
        text = "ACGTAGGGTACGT\n(((((...)))))\n"
        assert emit_dotbracket(parse_dotbracket(text)) == text


@given(st.data())
def test_parse_emit_are_mutually_inverse(data):
    from _oracles import structures_of

    word = data.draw(words)
    structure = data.draw(st.sampled_from(structures_of(word)))
    assert parse_dotbracket(emit_dotbracket(structure)) == structure


@given(st.data())
def test_bracket_lines_raise_every_violation_the_full_check_finds(data):
    # The bracket scan leaves only the letters to check; a mistyped line must
    # raise the violations structure_violations lists, in its order.
    word = data.draw(words)
    chars, opened, arcs = [], [], []
    for pos in range(1, len(word) + 1):
        room = len(word) - pos  # positions after this one, to close what is open
        options = ["."] if len(opened) <= room else []
        options += ["("] if len(opened) < room else []
        options += [")"] if opened else []
        ch = data.draw(st.sampled_from(options))
        if ch == "(":
            opened.append(pos)
        elif ch == ")":
            arcs.append((opened.pop(), pos))
        chars.append(ch)
    expected = structure_violations(word, arcs)
    if expected:
        with pytest.raises(StructureError) as err:
            structure_from_brackets(word, "".join(chars))
        assert err.value.violations == expected
        assert str(err.value) == str(StructureError(expected))
    else:
        assert structure_from_brackets(word, "".join(chars)) == SecondaryStructure(word, arcs)
