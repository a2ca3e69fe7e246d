import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from ddna import (
    Diagram,
    Lexicon,
    LexiconEntry,
    LexiconError,
    PregroupType,
    ReductionProof,
    SecondaryStructure,
    SimpleTerm,
    TypeSyntaxError,
    all_reductions,
    evaluation,
    find_reduction,
    functor_object,
    functor_reduction,
    identity,
    is_member,
    load_lexicon,
    load_lexicon_file,
    meaning,
    parse_type,
    proof_violations,
    reverse_complement,
    validate,
)
from ddna.structures import FoldConfig
from _oracles import FIXTURES, HOSTILE_LEXICONS, fixture_text

N_WORD = "AGGAACTGGAAG"
S_WORD = "GCTAGCATCGAT"
BARE_LEXICON = Lexicon({"n": N_WORD, "s": S_WORD}, {})

N = parse_type("n")
S = parse_type("s")
VERB = parse_type("n^r s n^l")


class TestTypeSyntax:
    @pytest.mark.parametrize(
        "text,terms",
        [
            ("n", (SimpleTerm("n", 0),)),
            ("n^r", (SimpleTerm("n", 1),)),
            ("n^ll", (SimpleTerm("n", -2),)),
            ("n^r s n^l", (SimpleTerm("n", 1), SimpleTerm("s", 0), SimpleTerm("n", -1))),
            ("1", ()),
            ("", ()),
        ],
    )
    def test_parse(self, text, terms):
        assert parse_type(text).terms == terms

    @pytest.mark.parametrize("text", ["n^lr", "^r", "n^", "n^x", "2n"])
    def test_rejects_malformed(self, text):
        with pytest.raises(TypeSyntaxError):
            parse_type(text)

    def test_str_roundtrip(self):
        for text in ("n", "n^r s n^l", "a^ll b^rr", "1"):
            assert str(parse_type(text)) == text

    def test_empty_basic_name(self):
        with pytest.raises(TypeSyntaxError, match="nonempty"):
            SimpleTerm("")


class TestFunctorObject:
    def test_plain_type(self):
        assert functor_object(N, BARE_LEXICON) == N_WORD

    def test_verb_type(self):
        image = functor_object(VERB, BARE_LEXICON)
        dual = reverse_complement(N_WORD)
        assert image == dual + S_WORD + dual
        assert len(image) == 36

    def test_unit_type(self):
        assert functor_object(PregroupType(), BARE_LEXICON) == ""

    def test_unknown_basic_type(self):
        with pytest.raises(LexiconError, match="unknown basic type"):
            functor_object(parse_type("v"), BARE_LEXICON)

    def test_monoidal_on_objects(self):
        rng = random.Random(11)
        basics = list(BARE_LEXICON.assignments)
        for _ in range(50):
            t1 = PregroupType(
                tuple(
                    SimpleTerm(rng.choice(basics), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 3))
                )
            )
            t2 = PregroupType(
                tuple(
                    SimpleTerm(rng.choice(basics), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 3))
                )
            )
            assert functor_object(t1 * t2, BARE_LEXICON) == functor_object(
                t1, BARE_LEXICON
            ) + functor_object(t2, BARE_LEXICON)

    @given(st.sampled_from(["n", "s"]), st.integers(min_value=-3, max_value=3))
    def test_adjoint_step_is_reverse_complement(self, basic, z):
        term = PregroupType((SimpleTerm(basic, z),))
        stepped = PregroupType((SimpleTerm(basic, z + 1),))
        assert functor_object(stepped, BARE_LEXICON) == reverse_complement(
            functor_object(term, BARE_LEXICON)
        )

    def test_right_adjoint_of_whole_type(self):
        assert functor_object(VERB.right_adjoint(), BARE_LEXICON) == reverse_complement(
            functor_object(VERB, BARE_LEXICON)
        )

    def test_left_adjoint_of_whole_type(self):
        assert VERB.left_adjoint() == parse_type("n^ll s^l n")
        assert VERB.right_adjoint().left_adjoint() == VERB
        assert functor_object(VERB.left_adjoint(), BARE_LEXICON) == reverse_complement(
            functor_object(VERB, BARE_LEXICON)
        )


class TestReduce:
    def test_transitive_sentence(self):
        proof = find_reduction([N, VERB, N], S)
        assert proof.links == {(1, 2), (4, 5)}
        assert proof.survivors == (3,)
        terms = tuple(term for t in [N, VERB, N] for term in t.terms)
        assert proof_violations(proof, terms) == []

    def test_goal_itself(self):
        proof = find_reduction([S], S)
        assert proof.links == frozenset() and proof.survivors == (1,)

    def test_ungrammatical(self):
        assert find_reduction([N, N], S) is None

    def test_canonical_proof_prefers_early_links(self):
        types = [parse_type("a a^r a a^r")]
        goal = parse_type("a a^r")
        proof = find_reduction(types, goal)
        assert proof.links == {(1, 2)} and proof.survivors == (3, 4)

    def test_all_reductions_lists_every_proof(self):
        types = [parse_type("a a^r a a^r")]
        goal = parse_type("a a^r")
        proofs = list(all_reductions(types, goal))
        assert [(sorted(p.links), p.survivors) for p in proofs] == [
            ([(1, 2)], (3, 4)),
            ([(3, 4)], (1, 2)),
        ]

    def test_nested_contraction(self):
        proof = find_reduction([parse_type("a b b^r a^r")], PregroupType())
        assert proof.links == {(1, 4), (2, 3)}

    def test_iterated_adjoints_contract(self):
        proof = find_reduction([parse_type("a^r a^rr")], PregroupType())
        assert proof.links == {(1, 2)}

    def test_no_expansion_is_used(self):
        # a^r a reduces to 1 only via expansion, which the search never does.
        assert find_reduction([parse_type("a^r a")], PregroupType()) is None

    def test_every_returned_proof_revalidates(self):
        types = [N, VERB, N, parse_type("n^r n^rr")]
        goal = S * parse_type("n^r n^rr")
        terms = tuple(term for t in types for term in t.terms)
        for proof in all_reductions(types, goal):
            assert proof_violations(proof, terms) == []


class TestProofViolations:
    terms = tuple(term for t in [N, VERB, N] for term in t.terms)

    def test_crossing_links(self):
        proof = ReductionProof(frozenset({(1, 4), (2, 5)}), (3,))
        assert any(v.rule == "link-crossing" for v in proof_violations(proof, self.terms))

    def test_bad_typing(self):
        proof = ReductionProof(frozenset({(1, 5), (2, 4)}), (3,))
        rules = {v.rule for v in proof_violations(proof, self.terms)}
        assert "link-typing" in rules

    def test_partition(self):
        proof = ReductionProof(frozenset({(1, 2)}), (3,))
        assert any(v.rule == "partition" for v in proof_violations(proof, self.terms))

    def test_survivor_under_link(self):
        terms = tuple(parse_type("a s a^r").terms)
        proof = ReductionProof(frozenset({(1, 3)}), (2,))
        assert any(
            v.rule == "link-spans-survivor" for v in proof_violations(proof, terms)
        )

    def test_survivors_must_be_ordered(self):
        proof = ReductionProof(frozenset({(1, 2)}), (5, 3, 4))
        assert any(
            v.rule == "survivor-order" for v in proof_violations(proof, self.terms)
        )


class TestFunctorReduction:
    def test_transitive_sentence_diagram(self):
        proof = find_reduction([N, VERB, N], S)
        d = functor_reduction(proof, [N, VERB, N], BARE_LEXICON)
        assert validate(d) == []
        assert len(d.source_arcs) == 24
        assert len(d.through) == 12
        assert d.target == S_WORD
        assert not d.target_arcs

    def test_empty_proof_is_identity(self):
        proof = find_reduction([S], S)
        assert functor_reduction(proof, [S], BARE_LEXICON) == identity(S_WORD)

    def test_single_link_is_evaluation(self):
        types = [N, parse_type("n^r")]
        proof = find_reduction(types, PregroupType())
        assert functor_reduction(proof, types, BARE_LEXICON) == evaluation(N_WORD)

    def test_rejects_invalid_proof(self):
        with pytest.raises(ValueError, match="invalid proof"):
            functor_reduction(ReductionProof(frozenset(), ()), [N], BARE_LEXICON)


def toy_lexicon() -> Lexicon:
    verb_image = functor_object(VERB, BARE_LEXICON)
    return Lexicon(
        {"n": N_WORD, "s": S_WORD},
        {
            "Cats": LexiconEntry(N, SecondaryStructure(N_WORD, {(1, 7), (2, 6)})),
            "chase": LexiconEntry(
                VERB,
                SecondaryStructure(
                    verb_image,
                    {(5, 13), (6, 12), (7, 11), (14, 31), (15, 30), (16, 26), (17, 21)},
                ),
            ),
            "mice": LexiconEntry(N, SecondaryStructure(N_WORD, {(6, 12), (7, 11)})),
        },
        min_loop=3,
    )


class TestMeaning:
    def test_transitive_sentence(self):
        structure, report = meaning(["Cats", "chase", "mice"], S, toy_lexicon())
        assert structure == SecondaryStructure(S_WORD, {(3, 4), (5, 9)})
        assert is_member(structure, FoldConfig(0))
        assert report.closed_loops == 2

    def test_single_word_sentence(self):
        lexicon = Lexicon(
            {"s": S_WORD},
            {"yes": LexiconEntry(S, SecondaryStructure(S_WORD, set()))},
        )
        structure, report = meaning(["yes"], S, lexicon)
        assert structure == SecondaryStructure(S_WORD, set())
        assert report.closed_loops == 0 and report.bonds_after == 0

    def test_ungrammatical_sentence(self):
        assert meaning(["Cats", "Cats"], S, toy_lexicon()) is None

    def test_unknown_word(self):
        with pytest.raises(LexiconError, match="dogs"):
            meaning(["dogs", "chase", "mice"], S, toy_lexicon())

    def test_meaning_invariant_under_lexicon_structure_reload(self):
        lexicon = load_lexicon(fixture_text("lexicon.yaml"))
        structure, _ = meaning(["Cats", "chase", "mice"], S, lexicon)
        assert structure == SecondaryStructure(S_WORD, {(3, 4), (5, 9)})


@pytest.fixture(params=["libyaml", "pure"])
def yaml_loader(request, monkeypatch):
    """Run once with PyYAML's libyaml loader and once with its pure one,
    which ``load_lexicon`` falls back to when libyaml is missing."""
    import yaml

    if request.param == "pure":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    return request.param


class TestLoadLexicon:
    def test_fixture_loads(self):
        lexicon = load_lexicon(fixture_text("lexicon.yaml"))
        assert lexicon.min_loop == 3
        assert lexicon.entries["Cats"].structure.sorted_arcs() == ((1, 7), (2, 6))
        assert lexicon.entries["chase"].type == VERB
        assert lexicon.entries["mice"].structure.sorted_arcs() == ((6, 12), (7, 11))

    def test_structure_must_live_on_functor_image(self):
        with pytest.raises(LexiconError, match="Cats"):
            load_lexicon(
                "types: {n: AT}\nentries:\n  Cats: {type: n, structure: '()()'}\n"
            )

    def test_min_loop_enforced(self):
        text = "types: {n: AT}\ntheta: 3\nentries:\n  Cats: {type: n, structure: '()'}\n"
        with pytest.raises(LexiconError, match="min_loop"):
            load_lexicon(text)

    def test_non_complementary_brackets_keep_the_structure_error(self):
        text = "types: {n: AA}\nentries:\n  Cats: {type: n, structure: '()'}\n"
        with pytest.raises(LexiconError) as exc:
            load_lexicon(text)
        assert str(exc.value) == "entry 'Cats': complementarity: arc (1,2) pairs A with A"

    def test_min_loop_bound_is_inclusive_and_named(self):
        text = "types: {n: AGGGT}\ntheta: %d\nentries:\n  Cats: {type: n, structure: '(...)'}\n"
        assert load_lexicon(text % 3).entries["Cats"].structure.sorted_arcs() == ((1, 5),)
        with pytest.raises(LexiconError) as exc:
            load_lexicon(text % 4)
        assert str(exc.value) == "entry 'Cats': structure breaks the min_loop=4 constraint"

    def test_unknown_basic_type_in_entry(self):
        with pytest.raises(LexiconError, match="unknown basic type"):
            load_lexicon("types: {n: AT}\nentries:\n  go: {type: v, structure: ''}\n")

    def test_bad_theta(self):
        with pytest.raises(LexiconError, match="theta"):
            load_lexicon("types: {n: AT}\ntheta: -1\nentries: {}\n")

    @pytest.mark.parametrize("theta", ["true", "false", "1.5", "'3'"])
    def test_theta_must_be_a_plain_integer(self, theta):
        # YAML booleans load as bool, an int subclass, so they need their own check.
        with pytest.raises(LexiconError, match="'theta' must be a nonnegative integer"):
            load_lexicon(f"types: {{n: AT}}\ntheta: {theta}\nentries: {{}}\n")

    def test_not_yaml(self):
        with pytest.raises(LexiconError):
            load_lexicon("types: [unbalanced")

    def test_yaml_errors_read_as_the_pure_loader_words_them(self):
        import yaml

        text = "types: {n: AT\nentries: {}\n"  # an unterminated flow mapping
        with pytest.raises(yaml.YAMLError) as pure:
            yaml.load(text, Loader=yaml.SafeLoader)
        with pytest.raises(LexiconError) as exc:
            load_lexicon(text)
        assert str(exc.value) == "not valid YAML: " + str(pure.value)

    def test_fixture_loads_alike_under_both_yaml_loaders(self):
        import yaml

        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        text = fixture_text("lexicon.yaml")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_unknown_top_level_field(self):
        with pytest.raises(LexiconError, match="unknown lexicon fields"):
            load_lexicon("types: {}\nwords: {}\n")

    def test_entry_shape(self):
        with pytest.raises(LexiconError, match="exactly"):
            load_lexicon("types: {n: AT}\nentries:\n  x: {type: n}\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("- types\n- entries\n", "lexicon must be a mapping"),
            ("", "lexicon must be a mapping"),
            ("types: [AT]\n", "'types' must map basic types to words"),
            ("types: {n: AT}\nentries: [Cats]\n", "'entries' must map vocabulary words"),
        ],
    )
    def test_sections_must_be_mappings(self, text, message):
        with pytest.raises(LexiconError, match=message):
            load_lexicon(text)

    @pytest.mark.parametrize("word", ["null", "AXG", "3", "1.5"])
    def test_bad_type_word_is_a_lexicon_error(self, word):
        with pytest.raises(LexiconError, match="invalid letters .* \\(type 'n'\\)$"):
            load_lexicon(f"types: {{n: {word}}}\nentries: {{}}\n")

    @pytest.mark.parametrize(
        "layout,message",
        [
            ("theta: {lists}\ntypes: {{n: *a5}}\n", "type 'n' maps to a list, not a word"),
            ("theta: {lists}\ntypes: {{n: {{AT: *a5}}}}\n", "type 'n' maps to a dict, not a word"),
            ("theta: {lists}\ntypes: {{n: []}}\n", "type 'n' maps to a list, not a word"),
            ("theta: {lists}\ntypes: {{n: {{}}}}\n", "type 'n' maps to a dict, not a word"),
            (
                "theta: {lists}\ntypes: {{n: AT}}\n",
                "'theta' must be a nonnegative integer, got "
                "[[...], [...], [...], [...], [...], [...]]",
            ),
            (
                "types: {{n: AT}}\nentries:\n  Cats: {{type: {lists}, structure: ''}}\n",
                "entry 'Cats': 'type' must be a string, got "
                "[[...], [...], [...], [...], [...], [...]]",
            ),
        ],
        ids=["aliased-list", "aliased-dict", "empty-list", "empty-dict", "theta", "entry-type"],
    )
    def test_container_type_word_is_refused_before_it_is_spelled_out(self, layout, message):
        # Nine-way lists six deep behind YAML aliases: about 320 bytes of text
        # whose str() used to be a 24.6-million-character error after 11 s.
        lists = ["&a0 [" + ", ".join(["AT"] * 9) + "]"]
        lists += [f"&a{d} [" + ", ".join([f"*a{d - 1}"] * 9) + "]" for d in range(1, 6)]
        text = layout.format(lists=f"[{', '.join(lists)}]")
        tracemalloc.start()
        try:
            with pytest.raises(LexiconError) as err:
                load_lexicon(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == message
        assert len(message) < 100 and peak < 2_000_000

    @pytest.mark.parametrize("name", sorted(HOSTILE_LEXICONS))
    def test_hostile_lexicon_is_a_lexicon_error(self, name, yaml_loader):
        text, message = HOSTILE_LEXICONS[name]
        with pytest.raises(LexiconError) as err:
            load_lexicon(text)
        assert str(err.value).startswith(message) and len(str(err.value)) < 200

    @pytest.mark.parametrize(
        "record,message",
        [
            ("{type: null, structure: '..'}", "'type' must be a string, got None"),
            ("{type: [n], structure: '..'}", "'type' must be a string, got ['n']"),
            ("{type: n, structure: null}", "'structure' must be a string, got None"),
            ("{type: n, structure: 12}", "'structure' must be a string, got 12"),
        ],
    )
    def test_entry_fields_must_be_strings(self, record, message):
        with pytest.raises(LexiconError) as exc:
            load_lexicon(f"types: {{n: AT}}\nentries:\n  Cats: {record}\n")
        assert str(exc.value) == f"entry 'Cats': {message}"

    def test_file_loader_matches_text_loader(self):
        from_file = load_lexicon_file(str(FIXTURES / "lexicon.yaml"))
        from_text = load_lexicon(fixture_text("lexicon.yaml"))
        assert (from_file.assignments, from_file.entries, from_file.min_loop) == (
            from_text.assignments,
            from_text.entries,
            from_text.min_loop,
        )

    def test_file_loader_matches_text_loader_without_libyaml(self, monkeypatch):
        import yaml

        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        self.test_file_loader_matches_text_loader()
