"""The interface walk against the edge-list gluing graph it replaced.

``compose`` and ``zip_and_transfer`` must return the same composite and
the same :class:`LoopReport`, field by field, as ``compose_reference`` and
``zip_and_transfer_reference`` in ``_oracles``.
"""

import random
from dataclasses import asdict, fields

from hypothesis import given, settings, strategies as st

from ddna import (
    Diagram,
    LoopReport,
    SecondaryStructure,
    bend,
    coevaluation,
    compose,
    evaluation,
    identity,
    reverse_complement,
    tensor,
    unbend,
    zip_and_transfer,
)
from _oracles import (
    compose_reference,
    random_diagram,
    random_long_structure,
    random_word,
    structures_of,
    zip_and_transfer_reference,
)

short_words = st.text(alphabet="ACGT", max_size=4)


def assert_same(got, want):
    (got_value, got_report), (want_value, want_report) = got, want
    assert got_value == want_value
    assert asdict(got_report) == asdict(want_report)


def assert_compose_matches(f: Diagram, g: Diagram):
    assert_same(compose(f, g), compose_reference(f, g))


def assert_routes_match(fhat: SecondaryStructure, ghat: SecondaryStructure, x: str, y: str):
    """Both routes of the bent pair ``fhat: x -> y``, ``ghat: y -> z``."""
    assert_same(zip_and_transfer(fhat, ghat, y), zip_and_transfer_reference(fhat, ghat, y))
    assert_compose_matches(unbend(fhat, len(x)), unbend(ghat, len(y)))


@given(st.data())
@settings(max_examples=300)
def test_compose_of_random_diagrams_matches_reference(data):
    rng = data.draw(st.randoms(use_true_random=False))
    x, y, z = (data.draw(short_words) for _ in range(3))
    assert_compose_matches(random_diagram(rng, x, y), random_diagram(rng, y, z))


@given(st.data())
@settings(max_examples=300)
def test_both_routes_of_bent_pairs_match_reference(data):
    x, y, z = (data.draw(short_words) for _ in range(3))
    fhat = data.draw(st.sampled_from(structures_of(reverse_complement(x) + y)))
    ghat = data.draw(st.sampled_from(structures_of(reverse_complement(y) + z)))
    assert_routes_match(fhat, ghat, x, y)


def test_empty_words():
    empty = SecondaryStructure("", set())
    assert_routes_match(empty, empty, "", "")
    assert_compose_matches(identity(""), identity(""))


def test_empty_interface():
    cup, cap = evaluation("ACG"), coevaluation("TT")
    assert_compose_matches(cup, cap)
    assert_routes_match(bend(cup), bend(cap), cup.source, "")


def test_dead_ends_on_both_sides():
    # Upper wire into position 1, lower wire out of 2: both dangle.  Upper
    # arc (3,4) and lower arc (4,5) form one open path between dead ends.
    f = Diagram("A", "ACATAT", {(1, 1)}, set(), {(3, 4)})
    g = Diagram("ACATAT", "C", {(2, 1)}, {(4, 5)}, set())
    _, report = compose(f, g)
    assert (report.dangled_endpoints, report.erased_open_paths) == (2, 1)
    assert_compose_matches(f, g)
    assert_routes_match(bend(f), bend(g), f.source, f.target)
    # The interface walk meets each path at its first end in position order.
    # Position 1 is a dead end whose path runs through the upper arc (1,2)
    # and leaves by the lower wire at 2; position 3 is a path of its own
    # between two wires; position 4 has no edge, an erased path once zipped.
    f = Diagram("G", "ATGC", {(1, 3)}, set(), {(1, 2)})
    g = Diagram("ATGC", "TG", {(2, 1), (3, 2)}, set(), set())
    composite, report = compose(f, g)
    assert composite == Diagram("G", "TG", {(1, 2)})
    assert (report.dangled_endpoints, report.erased_open_paths) == (1, 0)
    _, report = zip_and_transfer(bend(f), bend(g), f.target)
    assert (report.dangled_endpoints, report.erased_open_paths) == (1, 1)
    assert (report.erased_path_bonds, report.absorbed_bonds) == (5, 2)
    assert_compose_matches(f, g)
    assert_routes_match(bend(f), bend(g), f.source, f.target)


def test_interface_of_closed_loops_only():
    w = "ACGTTA"
    f, g = coevaluation(w), evaluation(reverse_complement(w))
    _, report = compose(f, g)
    assert report.closed_loops == len(w)
    assert_compose_matches(f, g)
    assert_routes_match(bend(f), bend(g), "", f.target)


def test_paths_weaving_across_the_interface():
    # Seven edges: four input arcs, three interface pairings.
    fhat = SecondaryStructure("TATA", {(1, 2), (3, 4)})
    ghat = SecondaryStructure("TATA", {(1, 4), (2, 3)})
    assert_routes_match(fhat, ghat, "T", "ATA")
    # A snake: the upper cap and lower cup meet along one long zigzag.
    w = "GATTC"
    snake_upper = tensor(identity(w), coevaluation(w))
    snake_lower = tensor(evaluation(w), identity(w))
    assert compose(snake_upper, snake_lower)[0] == identity(w)
    assert_compose_matches(snake_upper, snake_lower)


def test_interfaces_of_200_to_2000_letters_match_reference():
    """Benchmark-scale interfaces, both routes; between them the seeded
    cases fill every LoopReport field."""
    filled = set()
    for seed in range(12):
        rng = random.Random(seed)
        m = 200 + seed * 1800 // 11
        x, y, z = random_word(rng, m // 4), random_word(rng, m, m), random_word(rng, m // 4)
        fhat = random_long_structure(rng, reverse_complement(x) + y)
        ghat = random_long_structure(rng, reverse_complement(y) + z)
        assert_routes_match(fhat, ghat, x, y)
        reports = (
            compose(unbend(fhat, len(x)), unbend(ghat, len(y)))[1],
            zip_and_transfer(fhat, ghat, y)[1],
        )
        filled |= {name for report in reports for name, value in asdict(report).items() if value}
    assert filled == {f.name for f in fields(LoopReport)}
