import random

import pytest
from hypothesis import given, settings, strategies as st

from ddna import (
    Diagram,
    DiagramError,
    InterfaceError,
    SecondaryStructure,
    bend,
    bond_count,
    coevaluation,
    compose,
    emit_ddna,
    evaluation,
    identity,
    parse_ddna,
    reverse_complement,
    structure_as_diagram,
    tensor,
    unbend,
    validate,
    zip_and_transfer,
)
from _oracles import random_diagram, random_structure, random_word, structures_of

words = st.text(alphabet="ACGT", max_size=8)
short_words = st.text(alphabet="ACGT", max_size=4)

# The worked stacking instance used throughout: f then g, glued along a
# 14-letter middle word.
F_STACK = Diagram(
    "ACCATGGACT",
    "ACGATCGATCGATC",
    {(1, 1), (4, 4), (5, 5), (8, 8)},
    set(),
    {(2, 3), (6, 7), (10, 11)},
)
G_STACK = Diagram(
    "ACGATCGATCGATC",
    "ATCGCGAT",
    {(1, 1), (6, 3), (7, 4), (10, 5), (11, 6)},
    {(2, 3), (4, 5), (8, 9)},
    set(),
)
F_BEND = Diagram("ATCGC", "AGCTCG", {(1, 1), (3, 3)}, {(4, 5)}, {(5, 6)})


class TestValidate:
    def test_identity_is_ok(self):
        assert validate(identity("ACG")) == []

    def test_through_typing_violation(self):
        raw = Diagram.unchecked("ACG", "ACG", {(1, 2)})
        assert {v.rule for v in validate(raw)} == {"through-typing"}

    def test_wide_rectangle_instance_is_ok(self):
        d = Diagram(
            "ACGTACGCGT",
            "ACGTACGACAGTGT",
            {(1, 1), (2, 2), (3, 3), (4, 4)},
            {(6, 9), (7, 8)},
            {(8, 14), (9, 13), (10, 12)},
        )
        assert validate(d) == []
        assert (len(d.through), len(d.source_arcs), len(d.target_arcs)) == (4, 2, 3)

    def test_degree_violation(self):
        raw = Diagram.unchecked("AAT", "A", {(1, 1)}, {(1, 3)})
        assert any(v.rule == "degree" for v in validate(raw))

    def test_through_crossing(self):
        raw = Diagram.unchecked("AC", "CA", {(1, 2), (2, 1)})
        assert any(v.rule == "through-crossing" for v in validate(raw))

    def test_arc_wire_clearance(self):
        raw = Diagram.unchecked("AAT", "A", {(2, 1)}, {(1, 3)})
        assert {v.rule for v in validate(raw)} == {"arc-wire-crossing"}

    def test_arc_arc_crossing(self):
        raw = Diagram.unchecked("ATAT", "", set(), {(1, 3), (2, 4)})
        assert any(v.rule == "arc-arc-crossing" for v in validate(raw))

    def test_constructor_raises_with_all_violations(self):
        with pytest.raises(DiagramError) as err:
            Diagram("ACG", "ACG", {(1, 2), (2, 1)})
        assert len(err.value.violations) >= 2

    @given(st.data())
    def test_valid_diagrams_bend_to_valid_structures(self, data):
        source = data.draw(short_words)
        target = data.draw(short_words)
        d = _draw_diagram(data, source, target)
        assert validate(d) == []
        assert bend(d).violations() == []


def _draw_diagram(data, source, target):
    combined = reverse_complement(source) + target
    structure = data.draw(st.sampled_from(structures_of(combined)))
    return unbend(structure, len(source))


class TestConstructors:
    def test_identity_empty(self):
        assert identity("") == Diagram("", "")

    def test_identity_wires(self):
        assert identity("ACGT").through == {(1, 1), (2, 2), (3, 3), (4, 4)}

    def test_evaluation_acg(self):
        d = evaluation("ACG")
        assert d.source == "ACGCGT" and d.target == ""
        assert d.source_arcs == {(1, 6), (2, 5), (3, 4)}
        assert not d.through and not d.target_arcs

    def test_evaluation_degenerate(self):
        assert evaluation("") == identity("")
        assert evaluation("A").source_arcs == {(1, 2)}

    def test_coevaluation_acg(self):
        d = coevaluation("ACG")
        assert d.source == "" and d.target == "CGTACG"
        assert d.target_arcs == {(1, 6), (2, 5), (3, 4)}

    def test_positions_must_be_integers(self):
        with pytest.raises(TypeError):
            Diagram("A", "A", {(True, 1.7)})
        with pytest.raises(TypeError):
            Diagram("AT", "", set(), {(1, "2")})

    def test_structure_as_diagram_shares_the_arc_set(self):
        s = SecondaryStructure("ACGT", {(1, 4), (2, 3)})
        assert structure_as_diagram(s).target_arcs is s.arcs

    @given(words)
    def test_coevaluation_is_reflected_evaluation(self, w):
        cup = evaluation(reverse_complement(w))
        assert coevaluation(w) == Diagram(
            cup.target, cup.source, set(), cup.target_arcs, cup.source_arcs
        )


class TestTensor:
    def test_unit_laws(self):
        assert tensor(F_STACK, identity("")) == F_STACK
        assert tensor(identity(""), F_STACK) == F_STACK

    def test_juxtaposition_instance(self):
        f = Diagram("ACGTAC", "GTACGT", {(1, 3), (4, 6)}, {(2, 3)}, {(4, 5)})
        g = Diagram("TGCA", "TGCA", {(1, 1), (4, 4)}, {(2, 3)}, {(2, 3)})
        h = tensor(f, g)
        assert h == Diagram(
            "ACGTACTGCA",
            "GTACGTTGCA",
            {(1, 3), (4, 6), (7, 7), (10, 10)},
            {(2, 3), (8, 9)},
            {(4, 5), (8, 9)},
        )

    @given(st.data())
    def test_tensor_of_valid_is_valid(self, data):
        f = _draw_diagram(data, data.draw(short_words), data.draw(short_words))
        g = _draw_diagram(data, data.draw(short_words), data.draw(short_words))
        assert validate(tensor(f, g)) == []

    @given(st.data())
    def test_tensor_is_strictly_associative(self, data):
        f, g, h = (
            _draw_diagram(data, data.draw(short_words), data.draw(short_words))
            for _ in range(3)
        )
        assert tensor(tensor(f, g), h) == tensor(f, tensor(g, h))


class TestCompose:
    def test_interface_mismatch(self):
        with pytest.raises(InterfaceError):
            compose(identity("ACG"), identity("ACT"))

    def test_identity_laws(self):
        # Composing with an identity erases nothing and loses no bonds.
        # Identity wires that run into an unmatched boundary position do
        # still show up as dangling endpoints, exactly as they would for
        # any other diagram whose path dies at the interface.
        for f in (F_STACK, G_STACK, F_BEND):
            left, left_report = compose(identity(f.source), f)
            right, right_report = compose(f, identity(f.target))
            assert left == f and right == f
            for report in (left_report, right_report):
                assert report.closed_loops == 0
                assert report.erased_open_paths == 0
                assert report.erased_path_bonds == 0
                assert report.absorbed_bonds == 0
                assert report.bonds_after == report.bonds_before

    def test_stacking_instance(self):
        composite, report = compose(F_STACK, G_STACK)
        assert composite == Diagram(
            "ACCATGGACT", "ATCGCGAT", {(1, 1)}, {(4, 5)}, {(3, 4), (5, 6)}
        )
        assert report.closed_loops == 1
        assert report.dangled_endpoints == 1
        assert report.bonds_before == 6 and report.bonds_after == 3

    def test_snake_instance(self):
        w = "ACG"
        zigzag = compose(
            tensor(identity(w), coevaluation(w)), tensor(evaluation(w), identity(w))
        )[0]
        assert zigzag == identity(w)

    def test_displacement_instance(self):
        f = Diagram("TCTCTC", "GAATCTCTC", {(i, i + 3) for i in range(1, 7)})
        g = Diagram("GAATCTCTC", "")
        composite, report = compose(f, g)
        assert composite == Diagram("TCTCTC", "")
        assert report.dangled_endpoints == 6

    @given(words)
    @settings(max_examples=50)
    def test_snake_laws(self, w):
        dual = reverse_complement(w)
        first = compose(
            tensor(identity(w), coevaluation(w)), tensor(evaluation(w), identity(w))
        )[0]
        second = compose(
            tensor(coevaluation(w), identity(dual)),
            tensor(identity(dual), evaluation(w)),
        )[0]
        assert first == identity(w)
        assert second == identity(dual)

    @given(st.data())
    @settings(max_examples=50)
    def test_associativity(self, data):
        x, y, z, w = (data.draw(short_words) for _ in range(4))
        f = _draw_diagram(data, x, y)
        g = _draw_diagram(data, y, z)
        h = _draw_diagram(data, z, w)
        left = compose(compose(f, g)[0], h)[0]
        right = compose(f, compose(g, h)[0])[0]
        assert left == right
        assert validate(left) == []

    @given(st.data())
    @settings(max_examples=50)
    def test_interchange(self, data):
        x, y, z = (data.draw(short_words) for _ in range(3))
        u, v, w = (data.draw(short_words) for _ in range(3))
        f, f2 = _draw_diagram(data, x, y), _draw_diagram(data, y, z)
        g, g2 = _draw_diagram(data, u, v), _draw_diagram(data, v, w)
        stacked = compose(tensor(f, g), tensor(f2, g2))[0]
        paired = tensor(compose(f, f2)[0], compose(g, g2)[0])
        assert stacked == paired


class TestBending:
    def test_bend_identity_is_coevaluation_structure(self):
        w = "ACGT"
        assert bend(identity(w)) == SecondaryStructure(
            reverse_complement(w) + w, {(i, 9 - i) for i in range(1, 5)}
        )

    def test_bend_instance(self):
        s = bend(F_BEND)
        assert s.word == "GCGATAGCTCG"
        assert s.sorted_arcs() == ((1, 2), (3, 8), (5, 6), (10, 11))

    def test_unbend_instance(self):
        s = SecondaryStructure("GCGATAGCTCG", {(1, 2), (3, 8), (5, 6), (10, 11)})
        assert unbend(s, 5) == F_BEND

    def test_bend_of_tiny_cup(self):
        assert bend(evaluation("A")) == SecondaryStructure("AT", {(1, 2)})

    def test_unbend_with_empty_source(self):
        s = SecondaryStructure("ACGT", {(1, 4)})
        assert unbend(s, 0) == structure_as_diagram(s)

    def test_unbend_source_length_out_of_range(self):
        with pytest.raises(ValueError):
            unbend(SecondaryStructure("AT", set()), 3)

    @given(st.data())
    @settings(max_examples=100)
    def test_bend_unbend_bijection(self, data):
        source = data.draw(short_words)
        target = data.draw(short_words)
        d = _draw_diagram(data, source, target)
        assert unbend(bend(d), len(d.source)) == d
        structure = data.draw(st.sampled_from(structures_of(data.draw(words))))
        k = data.draw(st.integers(min_value=0, max_value=len(structure.word)))
        assert bend(unbend(structure, k)) == structure


class TestZipAndTransfer:
    def test_worked_instance(self):
        fhat = SecondaryStructure("ACGCGCGAAGG", {(2, 7), (3, 6), (4, 5)})
        ghat = SecondaryStructure("CCTTCGCGCTATC", {(4, 11), (5, 8), (6, 7)})
        result, report = zip_and_transfer(fhat, ghat, "CGAAGG")
        assert result == SecondaryStructure("ACGCGCGCTATC", {(2, 7), (3, 6), (4, 5)})
        assert report.interface_bonds_formed == 6
        assert report.dangled_endpoints == 1
        assert report.erased_open_paths == 3

    def test_displacement_instance(self):
        fhat = SecondaryStructure(
            "GAGAGAGAATCTCTC",
            {(1, 15), (2, 14), (3, 13), (4, 12), (5, 11), (6, 10)},
        )
        ghat = SecondaryStructure("GAGAGATTC", set())
        result, report = zip_and_transfer(fhat, ghat, "GAATCTCTC")
        assert result == SecondaryStructure("GAGAGA", set())
        assert report.interface_bonds_formed == 9

    def test_interface_mismatch(self):
        blank = SecondaryStructure("ATAT", set())
        with pytest.raises(InterfaceError):  # left word does not end with CG
            zip_and_transfer(blank, SecondaryStructure("CGCG", set()), "CG")
        with pytest.raises(InterfaceError):  # right word does not start with CG
            zip_and_transfer(SecondaryStructure("ATCG", set()), blank, "CG")

    def test_long_transfer_path_contributes_one_arc(self):
        # A surviving path that weaves through the interface three times
        # (seven edges: four input arcs, three interface pairings) still
        # emits exactly one arc; everything else is absorbed.
        fhat = SecondaryStructure("TATA", {(1, 2), (3, 4)})
        ghat = SecondaryStructure("TATA", {(1, 4), (2, 3)})
        result, report = zip_and_transfer(fhat, ghat, "ATA")
        assert result == SecondaryStructure("TA", {(1, 2)})
        assert report.absorbed_bonds == 6
        assert report.bonds_before == 4 and report.interface_bonds_formed == 3

    @given(st.data())
    @settings(max_examples=60)
    def test_snake_straightening(self, data):
        # Zipping against the bent identity changes nothing.
        x = data.draw(short_words)
        y = data.draw(short_words)
        fhat = data.draw(st.sampled_from(structures_of(reverse_complement(x) + y)))
        result, _ = zip_and_transfer(fhat, bend(identity(y)), y)
        assert result == fhat

    @given(st.data())
    @settings(max_examples=80)
    def test_route_equivalence_and_bond_accounting(self, data):
        x, y, z = (data.draw(short_words) for _ in range(3))
        fhat = data.draw(st.sampled_from(structures_of(reverse_complement(x) + y)))
        ghat = data.draw(st.sampled_from(structures_of(reverse_complement(y) + z)))
        zipped, zip_report = zip_and_transfer(fhat, ghat, y)
        composite, compose_report = compose(unbend(fhat, len(x)), unbend(ghat, len(y)))
        assert bend(composite) == zipped
        assert compose_report.closed_loops == zip_report.closed_loops
        assert zip_report.bonds_after == (
            zip_report.bonds_before
            + zip_report.interface_bonds_formed
            - 2 * zip_report.closed_loop_bonds
            - zip_report.erased_path_bonds
            - zip_report.absorbed_bonds
        )
        assert zipped.violations() == []


class TestBondCount:
    def test_examples(self):
        assert bond_count(identity("GATTACA")) == 0
        hairpin = SecondaryStructure(
            "ACGTAGGGTACGT", {(1, 13), (2, 12), (3, 11), (4, 10), (5, 9)}
        )
        assert bond_count(hairpin) == 5
        assert bond_count(evaluation("GAATCTCTC")) == 9


class TestDdnaFormat:
    def test_roundtrip(self):
        for d in (F_STACK, G_STACK, F_BEND, identity(""), evaluation("ACG")):
            assert parse_ddna(emit_ddna(d)) == d

    def test_comments_and_blank_lines(self):
        text = "# a diagram\nATCGC\nAGCTCG\n\nT 1 1  # wire\nT 3 3\nS 4 5\nA 5 6\n"
        assert parse_ddna(text) == F_BEND

    def test_empty_words_written_as_dash(self):
        assert emit_ddna(Diagram("TCTCTC", "")) == "TCTCTC\n-\n"
        assert parse_ddna("TCTCTC\n-\n") == Diagram("TCTCTC", "")

    def test_invalid_edges_reported_together(self):
        with pytest.raises(DiagramError) as err:
            parse_ddna("ACG\nACG\nT 1 2\nT 2 1\n")
        assert len(err.value.violations) >= 2

    def test_syntax_errors(self):
        from ddna import DdnaFormatError

        with pytest.raises(DdnaFormatError):
            parse_ddna("ACG\n")
        with pytest.raises(DdnaFormatError):
            parse_ddna("ACG\nACG\nQ 1 1\n")
        with pytest.raises(DdnaFormatError):
            parse_ddna("ACG\nACG\nT one 1\n")

    @pytest.mark.parametrize(
        "line", ["T 1_0 1", "T +1 1", "T 1 ١", "T 1 ²", "T -+1 1", "T - 1", "T 1 0x1"]
    )
    def test_indices_are_ascii_digits(self, line):
        from ddna import DdnaFormatError

        with pytest.raises(DdnaFormatError, match="line 3: non-integer index"):
            parse_ddna(f"ACGTACGTAC\nACGTACGTAC\n{line}\n")

    def test_negative_and_zero_padded_indices_reach_validation(self):
        with pytest.raises(DiagramError) as err:
            parse_ddna("ACG\nACG\nT -1 1\nT 02 02\nT 3 3\n")
        assert [v.rule for v in err.value.violations] == ["index-range"]


def test_compose_report_is_deterministic_under_seeds():
    rng = random.Random(7)
    for _ in range(25):
        x, y, z = (random_word(rng, 4) for _ in range(3))
        f = random_diagram(rng, x, y)
        g = random_diagram(rng, y, z)
        once = compose(f, g)
        again = compose(f, g)
        assert once == again
