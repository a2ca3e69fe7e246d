"""The one-pass functor image against the word-by-word, validate-again
references: every proof the search finds maps to the reference's diagram,
which passes ``validate``, and ``tensor_all`` equals a fold over ``tensor``."""

import random
from dataclasses import asdict
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from ddna import (
    AlphabetError,
    Lexicon,
    LexiconEntry,
    LexiconError,
    ReductionProof,
    all_reductions,
    bend,
    compose,
    find_reduction,
    functor_object,
    functor_reduction,
    identity,
    load_lexicon,
    meaning,
    parse_type,
    structure_as_diagram,
    tensor_all,
    validate,
)
from _oracles import (
    compose_reference,
    fixture_text,
    functor_reduction_reference,
    random_diagram,
    random_long_structure,
    random_word,
    tensor_all_reference,
)
from test_reductions import sentences

# Lower-case letters check that a hand-built lexicon's words are
# canonicalised, as the validating constructor did.
assigned_words = st.text(alphabet="ACGTacgt", max_size=4)


@settings(max_examples=300, deadline=None)
@given(sentences(), assigned_words, assigned_words)
@example(([parse_type("a a^r b b^l")], parse_type("b b^l")), "ACG", "AT")
@example(([parse_type("a^l a a^r")], parse_type("a^r")), "", "A")
def test_functor_image_matches_the_reference(case, word_a, word_b):
    types, goal = case
    lexicon = Lexicon({"a": word_a, "b": word_b}, {})
    for proof in islice(all_reductions(types, goal), 50):
        d = functor_reduction(proof, types, lexicon)
        assert d == functor_reduction_reference(proof, types, lexicon)
        # The image is built unchecked; this is the check it would have had.
        assert validate(d) == []


@pytest.mark.parametrize(
    "text, proof, assignments, error",
    [
        ("a a^r", ReductionProof(frozenset({(1, 2)}), ()), {"a": "AXG"}, AlphabetError),
        ("a", ReductionProof(frozenset(), (1,)), {"a": "AXG"}, AlphabetError),
        ("a a^r", ReductionProof(frozenset({(1, 2)}), ()), {"b": "AT"}, LexiconError),
        ("a a", ReductionProof(frozenset({(1, 2)}), ()), {"a": "AT"}, ValueError),
    ],
)
def test_functor_errors_match_the_reference(text, proof, assignments, error):
    types, lexicon = [parse_type(text)], Lexicon(assignments, {})
    with pytest.raises(error) as expected:
        functor_reduction_reference(proof, types, lexicon)
    with pytest.raises(error) as got:
        functor_reduction(proof, types, lexicon)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tensor_all_matches_the_fold_over_tensor(seed):
    rng = random.Random(seed)
    diagrams = [
        random_diagram(rng, random_word(rng, 4), random_word(rng, 4))
        for _ in range(rng.randint(0, 5))
    ]
    assert tensor_all(iter(diagrams)) == tensor_all_reference(diagrams)


def test_tensor_all_of_nothing_is_the_empty_identity():
    assert tensor_all(()) == tensor_all_reference(()) == identity("")
    assert tensor_all([identity(""), identity("")]) == identity("")


# ``and: s^r s s^l`` joins two sentences; its state pairs the first eight
# letters of its s^r block with their complements in its s block.
AND_ENTRY = '  and:\n    type: s^r s s^l\n    structure: "' + "(" * 8 + "." * 8 + ")" * 8 + "." * 12 + '"\n'


def test_long_sentence_meaning_matches_the_reference_path():
    lexicon = load_lexicon(fixture_text("lexicon.yaml") + AND_ENTRY)
    sentence = ["Cats", "chase", "mice"] + ["and", "Cats", "chase", "mice"] * 399
    goal = parse_type("s")
    entries = [lexicon.entries[word] for word in sentence]
    types = [entry.type for entry in entries]
    proof = find_reduction(types, goal)
    state = tensor_all_reference(structure_as_diagram(entry.structure) for entry in entries)
    composite, report = compose(state, functor_reduction_reference(proof, types, lexicon))
    assert len(sentence) == 1599
    assert meaning(sentence, goal, lexicon) == (bend(composite), report)


def test_sentence_past_the_old_recursion_limit_means_as_the_reference_path():
    # From 3,963 words on, meaning raised RecursionError while the search recursed per link.
    lexicon = load_lexicon(fixture_text("lexicon.yaml") + AND_ENTRY)
    sentence = ["Cats", "chase", "mice"] + ["and", "Cats", "chase", "mice"] * 1000
    goal = parse_type("s")
    entries = [lexicon.entries[word] for word in sentence]
    types = [entry.type for entry in entries]
    proof = find_reduction(types, goal)
    state = tensor_all_reference(structure_as_diagram(entry.structure) for entry in entries)
    composite, report = compose(state, functor_reduction_reference(proof, types, lexicon))
    assert len(sentence) == 4003
    assert meaning(sentence, goal, lexicon) == (bend(composite), report)


# Each category's type and two of its words, for generated sentences.
CATEGORIES = {
    "noun": ("n", ("cats", "mice")),
    "intransitive": ("n^r s", ("sleep", "run")),
    "transitive": ("n^r s n^l", ("chase", "see")),
    "adjective": ("n n^l", ("big", "old")),
    "relative": ("n^r n s^l n", ("who", "that")),
    "conjunction": ("s^r s s^l", ("and", "but")),
    "preposition": ("n^r n n^l", ("near", "of")),
}


def generated_sentence(rng: random.Random) -> list[str]:
    def word(category):
        return [rng.choice(CATEGORIES[category][1])]

    def noun_phrase(depth):
        r = rng.random()
        if depth > 1 or r < 0.5:
            return word("noun")
        if r < 0.7:
            return word("adjective") + noun_phrase(depth + 1)
        if r < 0.85:
            return noun_phrase(depth + 1) + word("preposition") + noun_phrase(depth + 1)
        return noun_phrase(depth + 1) + word("relative") + verb_phrase(depth + 1)

    def verb_phrase(depth):
        if rng.random() < 0.4:
            return word("intransitive")
        return word("transitive") + noun_phrase(depth)

    words = noun_phrase(0) + verb_phrase(0)
    for _ in range(rng.randint(0, 3)):
        words += word("conjunction") + noun_phrase(0) + verb_phrase(0)
    return words


def test_meaning_of_generated_sentences_matches_the_reference_path():
    """20 seeded 8-25 word sentences over a lexicon of random words and random
    entry structures: the structure and every LoopReport field equal those of
    the reference tensor, functor image and gluing."""
    rng = random.Random(11)
    lexicon = Lexicon({"n": random_word(rng, 12, 12), "s": random_word(rng, 12, 12)}, {})
    for type_text, words in CATEGORIES.values():
        entry_type = parse_type(type_text)
        image = functor_object(entry_type, lexicon)
        for word in words:
            lexicon.entries[word] = LexiconEntry(entry_type, random_long_structure(rng, image))
    goal, checked, bonds_after = parse_type("s"), 0, 0
    while checked < 20:
        sentence = generated_sentence(rng)
        entries = [lexicon.entries[word] for word in sentence]
        types = [entry.type for entry in entries]
        proof = find_reduction(types, goal)
        if not 8 <= len(sentence) <= 25 or proof is None:
            continue
        state = tensor_all_reference(structure_as_diagram(entry.structure) for entry in entries)
        composite, report = compose_reference(
            state, functor_reduction_reference(proof, types, lexicon)
        )
        structure, got = meaning(sentence, goal, lexicon)
        assert structure == bend(composite)
        assert asdict(got) == asdict(report)
        checked += 1
        bonds_after += report.bonds_after
    assert bonds_after > 0
