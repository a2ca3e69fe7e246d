"""The stack-based noncrossing check against the pairwise references, and
the validity of every value the library builds without re-validation."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ddna import (
    Diagram,
    FoldConfig,
    SecondaryStructure,
    Violation,
    bend,
    coevaluation,
    compose,
    enumerate_structures,
    evaluation,
    identity,
    is_member,
    max_bond,
    render_structure_svg,
    render_structure_text,
    reverse_complement,
    structure_as_diagram,
    structure_violations,
    tensor,
    unbend,
    validate,
    zip_and_transfer,
)
from ddna.core import arc_depths
from _oracles import (
    arc_depths_pairwise,
    random_diagram,
    random_structure,
    structure_violations_pairwise,
    validate_pairwise,
)

short_words = st.text(alphabet="ACGT", max_size=4)


@st.composite
def nested_arcs(draw, n: int) -> set[tuple[int, int]]:
    """A noncrossing arc set on 1..n with distinct endpoints, from a bracket walk."""
    stack: list[int] = []
    arcs = set()
    steps = draw(st.lists(st.sampled_from(".()"), min_size=n, max_size=n))
    for pos, step in enumerate(steps, start=1):
        if step == "(":
            stack.append(pos)
        elif step == ")" and stack:
            arcs.add((stack.pop(), pos))
    return arcs


def pairs(n: int, m: int | None = None, max_size: int = 4):
    """Arbitrary index pairs into 1..n and 1..m (default n): crossing,
    sharing endpoints, reversed or one step out of range."""
    m = n if m is None else m
    return st.sets(st.tuples(st.integers(0, n + 1), st.integers(0, m + 1)), max_size=max_size)


@st.composite
def structure_inputs(draw) -> tuple[str, set[tuple[int, int]]]:
    """A valid, nested or arbitrary in-range arc set, plus a few extra pairs."""
    kind = draw(st.sampled_from(["valid", "nested", "arbitrary"]))
    word = draw(st.text(alphabet="ACGT", min_size=6 if kind == "arbitrary" else 0, max_size=10))
    if kind == "valid":
        arcs = set(random_structure(draw(st.randoms(use_true_random=False)), word).arcs)
    elif kind == "nested":
        arcs = draw(nested_arcs(len(word)))
    else:
        ends = st.integers(1, len(word))
        arcs = {tuple(sorted(p)) for p in draw(st.sets(st.tuples(ends, ends), min_size=4))}
    return word, arcs | draw(pairs(len(word)))


@st.composite
def raw_diagrams(draw) -> Diagram:
    """A valid diagram, a well-laid-out one, or one whose through wires all
    cross inside an arc spanning each boundary, plus arbitrary extra edges."""
    kind = draw(st.sampled_from(["valid", "laid out", "crossing wires"]))
    min_size = 4 if kind == "crossing wires" else 0
    source = draw(st.text(alphabet="ACGT", min_size=min_size, max_size=5))
    target = draw(st.text(alphabet="ACGT", min_size=min_size, max_size=5))
    ns, nt = len(source), len(target)
    if kind == "valid":
        base = random_diagram(draw(st.randoms(use_true_random=False)), source, target)
    elif kind == "laid out":
        combined = reverse_complement(source) + target
        layout = SecondaryStructure.unchecked(combined, draw(nested_arcs(len(combined))))
        base = unbend(layout, ns)
    else:
        k = draw(st.integers(2, min(ns, nt) - 2))
        tops = sorted(draw(st.permutations(range(2, ns)))[:k])
        bottoms = sorted(draw(st.permutations(range(2, nt)))[:k], reverse=True)
        base = Diagram.unchecked(source, target, zip(tops, bottoms), {(1, ns)}, {(1, nt)})
    return Diagram.unchecked(
        source,
        target,
        base.through | draw(pairs(ns, nt)),
        base.source_arcs | draw(pairs(ns, max_size=3)),
        base.target_arcs | draw(pairs(nt, max_size=3)),
    )


@given(structure_inputs())
def test_structure_violations_match_pairwise(case):
    word, arcs = case
    assert structure_violations(word, arcs) == structure_violations_pairwise(word, arcs)


@given(raw_diagrams())
@example(Diagram.unchecked("AAA", "AAAAA", {(1, 4), (2, 2)}, set(), {(1, 5)}))
def test_validate_matches_pairwise(d):
    assert validate(d) == validate_pairwise(d)


# The structure rules and the diagram rules they become on a target side.
SIDE_RULES = {
    "index-range": "index-range",
    "arc-order": "arc-order",
    "complementarity": "arc-typing",
    "crossing": "arc-arc-crossing",
}


@given(structure_inputs())
@settings(max_examples=300)
@example(("ACGTA", {(0, 3), (4, 2), (2, 6), (3, 3), (1, 4), (2, 5)}))
def test_validate_checks_a_side_as_structure_violations_does(case):
    """The per-arc checks the two validators share agree rule by rule on a
    structure laid along a diagram's target, out-of-range and reversed arcs
    included."""
    word, arcs = case
    got = validate(Diagram.unchecked("", word, target_arcs=arcs))
    want = [
        Violation(SIDE_RULES[v.rule], f"target {v.detail}")
        for v in structure_violations(word, arcs)
        if v.rule in SIDE_RULES
    ]
    assert [v for v in got if v.rule in SIDE_RULES.values()] == want


@given(st.integers(0, 12).flatmap(pairs))
def test_arc_depths_rejects_exactly_crossing_or_shared_start_sets(arcs):
    arcs = sorted((i, j) for i, j in arcs if i < j)
    crossing = any(i < k < j < l for i, j in arcs for k, l in arcs)
    shared_start = len({i for i, _ in arcs}) < len(arcs)
    assert (arc_depths(arcs) is None) == (crossing or shared_start)


@given(st.text(alphabet="ACGT", max_size=16).flatmap(lambda w: st.tuples(st.just(w), nested_arcs(len(w)))))
def test_render_depths_match_pairwise(case):
    word, arcs = case
    depths = arc_depths_pairwise(arcs)
    assert arc_depths(sorted(arcs)) == depths
    sketch = ["."] * len(word)
    for (i, j), depth in depths.items():
        sketch[i - 1] = sketch[j - 1] = str(depth % 10)
    text = render_structure_text(SecondaryStructure.unchecked(word, arcs))
    assert text.splitlines()[2] == "".join(sketch)


def test_render_refuses_crossing_arcs():
    with pytest.raises(ValueError):
        render_structure_svg(SecondaryStructure.unchecked("ATAT", {(1, 3), (2, 4)}))


def revalidated(value):
    """The same value rebuilt through the validating public constructor."""
    if isinstance(value, Diagram):
        return Diagram(value.source, value.target, value.through, value.source_arcs, value.target_arcs)
    return SecondaryStructure(value.word, value.arcs)


@given(st.randoms(use_true_random=False), short_words, short_words, short_words)
def test_built_values_are_valid(rng, x, y, z):
    f = random_diagram(rng, x, y)
    g = random_diagram(rng, y, z)
    fhat = random_structure(rng, reverse_complement(x) + y)
    ghat = random_structure(rng, reverse_complement(y) + z)
    built = [
        identity(x),
        evaluation(x),
        coevaluation(x),
        tensor(f, g),
        compose(f, g)[0],
        bend(f),
        unbend(fhat, len(x)),
        structure_as_diagram(fhat),
        zip_and_transfer(fhat, ghat, y)[0],
    ]
    for value in built:
        assert revalidated(value) == value


@given(st.text(alphabet="ACGT", max_size=9), st.integers(0, 3))
def test_folded_structures_are_valid(word, theta):
    cfg = FoldConfig(theta)
    _, witnesses = max_bond(word, cfg)
    for structure in [*witnesses, *enumerate_structures(word, cfg)]:
        assert is_member(structure, cfg)
        assert revalidated(structure) == structure


def test_5000_arc_duplex():
    rng = random.Random(5000)
    n = 5000
    word = "".join(rng.choice("ACGT") for _ in range(n))
    duplex = SecondaryStructure(
        word + reverse_complement(word), {(i, 2 * n + 1 - i) for i in range(1, n + 1)}
    )
    cup = evaluation(word)
    assert validate(cup) == []
    assert bend(cup) == duplex
    assert render_structure_svg(duplex).count("<path") == n
