"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here is exact (structural equality of diagrams, structures,
arc sets, and serialized bytes); run with ``pytest -s`` to see the
verdict lines.
"""

import random
import xml.etree.ElementTree as ET
from functools import lru_cache

from ddna import (
    Diagram,
    FoldConfig,
    SecondaryStructure,
    bend,
    coevaluation,
    compose,
    count_structures,
    emit_ddna,
    emit_dotbracket,
    enumerate_structures,
    evaluation,
    identity,
    is_member,
    load_lexicon,
    max_bond,
    meaning,
    parse_ddna,
    parse_dotbracket,
    parse_type,
    render_diagram_svg,
    render_structure_svg,
    reverse_complement,
    tensor,
    unbend,
    validate,
    zip_and_transfer,
)
from ddna.pregroup import find_reduction
from _oracles import (
    FIXTURES,
    all_structures_bruteforce,
    fixture_text,
    random_diagram,
    random_structure,
    random_word,
)


def _verdict(label: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} cases)"
    print(f"[acceptance] {label}: {status}")
    assert not failures, failures[:5]


def test_criterion_1_duality_laws():
    rng = random.Random(101)
    failures = []
    for _ in range(1000):
        u = random_word(rng, 12)
        v = random_word(rng, 12)
        if reverse_complement(reverse_complement(u)) != u:
            failures.append(("double-dual", u))
        if reverse_complement(u + v) != reverse_complement(v) + reverse_complement(u):
            failures.append(("antihomomorphism", u, v))
    if reverse_complement("") != "":
        failures.append(("unit-dual",))
    _verdict("1 duality laws", failures)


def test_criterion_2_snake_identities():
    rng = random.Random(202)
    failures = []
    for _ in range(500):
        w = random_word(rng, 8)
        dual = reverse_complement(w)
        first = compose(
            tensor(identity(w), coevaluation(w)), tensor(evaluation(w), identity(w))
        )[0]
        second = compose(
            tensor(coevaluation(w), identity(dual)),
            tensor(identity(dual), evaluation(w)),
        )[0]
        if first != identity(w):
            failures.append(("right-zigzag", w))
        if second != identity(dual):
            failures.append(("left-zigzag", w))
    _verdict("2 snake identities", failures)


def test_criterion_3_category_laws():
    rng = random.Random(303)
    failures = []
    for _ in range(500):
        x, y, z, w = (random_word(rng, 4) for _ in range(4))
        f = random_diagram(rng, x, y)
        g = random_diagram(rng, y, z)
        h = random_diagram(rng, z, w)
        if compose(compose(f, g)[0], h)[0] != compose(f, compose(g, h)[0])[0]:
            failures.append(("associativity", f, g, h))
        if compose(identity(x), f)[0] != f or compose(f, identity(y))[0] != f:
            failures.append(("unitality", f))
        u, v = random_word(rng, 3), random_word(rng, 3)
        p = random_diagram(rng, u, v)
        q = random_diagram(rng, v, random_word(rng, 3))
        lhs = compose(tensor(f, p), tensor(g, q))[0]
        rhs = tensor(compose(f, g)[0], compose(p, q)[0])
        if lhs != rhs:
            failures.append(("interchange", f, g, p, q))
    _verdict("3 category laws", failures)


def test_criterion_4_bending_bijection():
    rng = random.Random(404)
    failures = []
    for _ in range(1000):
        source, target = random_word(rng, 5), random_word(rng, 5)
        d = random_diagram(rng, source, target)
        if unbend(bend(d), len(d.source)) != d:
            failures.append(("unbend-bend", d))
        word = random_word(rng, 10)
        structure = random_structure(rng, word)
        split = rng.randint(0, len(word))
        if bend(unbend(structure, split)) != structure:
            failures.append(("bend-unbend", structure, split))
    _verdict("4 bending bijection", failures)


@lru_cache(maxsize=1)
def _route_cases():
    rng = random.Random(505)
    cases = []
    for _ in range(500):
        x, y, z = (random_word(rng, 4) for _ in range(3))
        fhat = random_structure(rng, reverse_complement(x) + y)
        ghat = random_structure(rng, reverse_complement(y) + z)
        zipped, zip_report = zip_and_transfer(fhat, ghat, y)
        composite, compose_report = compose(unbend(fhat, len(x)), unbend(ghat, len(y)))
        cases.append((fhat, ghat, y, zipped, zip_report, composite, compose_report))
    return cases


def test_criterion_5_route_equivalence():
    failures = []
    for fhat, ghat, y, zipped, zip_report, composite, compose_report in _route_cases():
        if bend(composite) != zipped:
            failures.append(("route", fhat, ghat, y))
        if compose_report.closed_loops != zip_report.closed_loops:
            failures.append(("loop-count", fhat, ghat, y))
    _verdict("5 route equivalence", failures)


def test_criterion_6_enumeration_oracle():
    rng = random.Random(606)
    failures = []
    for _ in range(200):
        word = random_word(rng, 8)
        for theta in (0, 3):
            cfg = FoldConfig(theta)
            expected = all_structures_bruteforce(word, theta)
            listed = list(enumerate_structures(word, cfg))
            if {s.arcs for s in listed} != expected:
                failures.append(("enumerate", word, theta))
            if count_structures(word, cfg) != len(expected) or len(listed) != len(expected):
                failures.append(("count", word, theta))
    _verdict("6 enumeration oracle", failures)


def test_criterion_7a_hairpin():
    failures = []
    hairpin = parse_dotbracket(fixture_text("hairpin.dbn"))
    if hairpin.sorted_arcs() != ((1, 13), (2, 12), (3, 11), (4, 10), (5, 9)):
        failures.append(("arcs", hairpin))
    if not is_member(hairpin, FoldConfig(3)):
        failures.append(("theta-membership",))
    bonds, witnesses = max_bond(hairpin.word, FoldConfig(3))
    if bonds != 5 or hairpin not in witnesses:
        failures.append(("max-bond", bonds))
    _verdict("7a hairpin fold", failures)


def test_criterion_7b_stacking_composition():
    f = parse_ddna(fixture_text("stack_upper.ddna"))
    g = parse_ddna(fixture_text("stack_lower.ddna"))
    composite, _ = compose(f, g)
    expected = Diagram(
        "ACCATGGACT", "ATCGCGAT", {(1, 1)}, {(4, 5)}, {(3, 4), (5, 6)}
    )
    failures = [] if composite == expected else [composite]
    _verdict("7b stacking composition", failures)


def test_criterion_7c_bending():
    d = parse_ddna(fixture_text("bend_input.ddna"))
    straightened = bend(d)
    failures = []
    if straightened.word != "GCGATAGCTCG":
        failures.append(("word", straightened.word))
    if straightened.sorted_arcs() != ((1, 2), (3, 8), (5, 6), (10, 11)):
        failures.append(("arcs", straightened.sorted_arcs()))
    if straightened != parse_dotbracket(fixture_text("bend_straightened.dbn")):
        failures.append(("fixture-mismatch",))
    _verdict("7c bending instance", failures)


def test_criterion_7d_zip_and_transfer():
    fhat = parse_dotbracket(fixture_text("zip_left.dbn"))
    ghat = parse_dotbracket(fixture_text("zip_right.dbn"))
    result, _ = zip_and_transfer(fhat, ghat, "CGAAGG")
    failures = []
    if result.word != "ACGCGCGCTATC":
        failures.append(("word", result.word))
    if result.sorted_arcs() != ((2, 7), (3, 6), (4, 5)):
        failures.append(("arcs", result.sorted_arcs()))
    if result != parse_dotbracket(fixture_text("zip_result.dbn")):
        failures.append(("fixture-mismatch",))
    _verdict("7d zip-and-transfer", failures)


def test_criterion_7e_strand_displacement():
    f = parse_ddna(fixture_text("displacement_substrate.ddna"))
    g = parse_ddna(fixture_text("displacement_invader.ddna"))
    composite, report = compose(f, g)
    failures = []
    if composite != Diagram("TCTCTC", ""):
        failures.append(("composite", composite))
    if report.dangled_endpoints != 6:
        failures.append(("dangles", report.dangled_endpoints))
    fhat = parse_dotbracket(fixture_text("displacement_substrate_straightened.dbn"))
    ghat = parse_dotbracket(fixture_text("displacement_invader_straightened.dbn"))
    straightened, zip_report = zip_and_transfer(fhat, ghat, "GAATCTCTC")
    if straightened != SecondaryStructure("GAGAGA", set()):
        failures.append(("straightened", straightened))
    if zip_report.interface_bonds_formed != 9:
        failures.append(("interface-bonds", zip_report.interface_bonds_formed))
    if bend(composite) != straightened:
        failures.append(("route-mismatch",))
    _verdict("7e strand displacement", failures)


def test_criterion_7f_sentence_meaning():
    lexicon = load_lexicon(fixture_text("lexicon.yaml"))
    goal = parse_type("s")
    sentence = ["Cats", "chase", "mice"]
    failures = []
    proof = find_reduction([lexicon.entries[w].type for w in sentence], goal)
    if proof is None or proof.links != {(1, 2), (4, 5)}:
        failures.append(("reduction", proof))
    result = meaning(sentence, goal, lexicon)
    if result is None:
        failures.append(("meaning", None))
    else:
        structure, _ = result
        if structure != SecondaryStructure("GCTAGCATCGAT", {(3, 4), (5, 9)}):
            failures.append(("structure", structure.sorted_arcs()))
    _verdict("7f sentence meaning", failures)


def test_criterion_8_bond_accounting():
    failures = []
    for fhat, ghat, y, zipped, report, _, _ in _route_cases():
        balanced = report.bonds_after == (
            report.bonds_before
            + report.interface_bonds_formed
            - 2 * report.closed_loop_bonds
            - report.erased_path_bonds
            - report.absorbed_bonds
        )
        if not balanced:
            failures.append((fhat, ghat, y, report))
        if report.bonds_after != len(zipped.arcs):
            failures.append(("bonds-after", report))
    _verdict("8 bond accounting", failures)


def test_criterion_9_format_roundtrips():
    failures = []
    for path in sorted(FIXTURES.glob("*.ddna")):
        text = path.read_text(encoding="utf-8")
        if emit_ddna(parse_ddna(text)) != text:
            failures.append(("ddna", path.name))
    for path in sorted(FIXTURES.glob("*.dbn")):
        text = path.read_text(encoding="utf-8")
        if emit_dotbracket(parse_dotbracket(text)) != text:
            failures.append(("dotbracket", path.name))
    hairpin = parse_dotbracket(fixture_text("hairpin.dbn"))
    rectangle = parse_ddna(fixture_text("rectangle.ddna"))
    for render, value in ((render_structure_svg, hairpin), (render_diagram_svg, rectangle)):
        first, second = render(value), render(value)
        if first != second:
            failures.append(("svg-determinism", render.__name__))
        try:
            ET.fromstring(first)
        except ET.ParseError:
            failures.append(("svg-xml", render.__name__))
    for d in (rectangle, parse_ddna(fixture_text("stack_upper.ddna"))):
        if validate(d):
            failures.append(("fixture-invalid", d.source))
    _verdict("9 format round-trips", failures)
