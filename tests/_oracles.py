"""Independent oracles and seeded generators shared across the test suite.

The structure oracle below filters *all* subsets of candidate pairs by
the structure invariants via a subset-validity sweep; it shares no code
path with the package's enumerator or counting recursion.

The pairwise checkers are the quadratic reference versions of
``structure_violations``, ``validate``, ``proof_violations`` and the render
nesting depths: every pair of arcs, and every arc against every through
anchor or survivor, is compared directly.  ``all_reductions_reference`` is
the exponential proof search that ``all_reductions`` replaced.
``compose_reference`` and ``zip_and_transfer_reference`` glue through a
general edge-list graph, the code the shared interface walk replaced.
``enumerate_structures_reference``, ``count_structures_reference`` and
``max_bond_reference`` fold over a pair matrix with a crossing scan, a
span-ordered table and a per-position memo recursion: the code the
partner-index tables replaced.  ``count_max_bond_reference`` counts
witnesses by the same recursion, top-down, and lists none.
``tensor_all_reference`` and ``functor_reduction_reference`` build the
functor image word by word and validate it again, the code the one-pass,
validate-once path replaced.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ddna import (
    Diagram,
    InterfaceError,
    LoopReport,
    SecondaryStructure,
    bond_count,
    enumerate_structures,
    identity,
    reverse_complement,
    tensor,
    unbend,
)
from ddna.core import Violation, canonical_word, complement, is_complementary, pair_class
from ddna.pregroup import (
    Lexicon,
    PregroupType,
    ReductionProof,
    SimpleTerm,
    flatten,
    functor_object,
    proof_violations,
)
from ddna.structures import FoldConfig

FIXTURES = Path(__file__).parent / "fixtures"

ALPHABET = "ACGT"


# Lexicons that crashed ``load_lexicon`` (libyaml's recursion segfaulted at
# 30,000 levels, the pure loader and ``repr`` hit the recursion limit) or
# escaped it as a bare TypeError or ValueError, each with the start of the
# LexiconError it now raises.
HOSTILE_LEXICONS = {
    "flow-1000-deep": (
        "theta: " + "[" * 1000 + "]" * 1000 + "\n",
        "lexicon nests deeper than 8 levels (line 1)",
    ),
    "block-2000-deep": (
        "theta:\n" + "- " * 2000 + "x\n",
        "lexicon nests deeper than 8 levels (line 2)",
    ),
    "mixed-key-types": ("1: x\nfoo: y\n", "unknown lexicon fields [1, 'foo']"),
    "impossible-date": ("theta: 2024-13-45\n", "not valid YAML: month must be in 1..12"),
    "5000-digit-int": ("types: {n: " + "1" * 5000 + "}\n", "not valid YAML: Exceeds the limit"),
}


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def all_structures_bruteforce(word: str, min_loop: int = 0) -> set[frozenset[tuple[int, int]]]:
    """Every valid arc set on ``word``, by filtering all candidate-pair subsets.

    Candidates are the complementary pairs respecting ``min_loop``;
    a subset is valid iff no two members share a position or cross.
    Validity is swept over all 2^m subsets incrementally.
    """
    word = canonical_word(word)
    n = len(word)
    candidates = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + min_loop + 1, n + 1)
        if is_complementary(word[i - 1], word[j - 1])
    ]
    m = len(candidates)
    conflict = [0] * m
    for a in range(m):
        i, j = candidates[a]
        for b in range(a + 1, m):
            k, l = candidates[b]
            shares = len({i, j} & {k, l}) > 0
            crosses = i < k < j < l or k < i < l < j
            if shares or crosses:
                conflict[a] |= 1 << b
                conflict[b] |= 1 << a
    ok = bytearray(1 << m)
    ok[0] = 1
    valid = {frozenset()}
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if ok[rest] and not (conflict[low] & rest):
            ok[mask] = 1
            valid.add(
                frozenset(candidates[b] for b in range(m) if mask >> b & 1)
            )
    return valid


def random_word(rng: random.Random, max_len: int, min_len: int = 0) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(min_len, max_len)))


@lru_cache(maxsize=4096)
def structures_of(word: str, min_loop: int = 0) -> tuple[SecondaryStructure, ...]:
    return tuple(enumerate_structures(word, FoldConfig(min_loop)))


def random_structure(rng: random.Random, word: str) -> SecondaryStructure:
    return rng.choice(structures_of(word))


def random_long_structure(rng: random.Random, word: str) -> SecondaryStructure:
    """A random structure on a word of any length, from one left-to-right
    pass: each position pairs with the innermost open one when the two are
    complementary, opens, or stays unpaired, and the innermost open position
    is sometimes abandoned unpaired.  The constructor validates it."""
    open_positions, arcs = [], []
    for k, letter in enumerate(word, 1):
        if open_positions and rng.random() < 0.2:
            open_positions.pop()
        if (
            open_positions
            and is_complementary(word[open_positions[-1] - 1], letter)
            and rng.random() < 0.8
        ):
            arcs.append((open_positions.pop(), k))
        elif rng.random() < 0.6:
            open_positions.append(k)
    return SecondaryStructure(word, arcs)


def random_diagram(rng: random.Random, source: str, target: str) -> Diagram:
    """A uniform-ish valid diagram source -> target, via unbending."""
    combined = reverse_complement(source) + target
    return unbend(random_structure(rng, combined), len(source))


def structure_violations_pairwise(word: str, arcs) -> list[Violation]:
    """Reference for ``structure_violations``, crossings compared pairwise."""
    n = len(word)
    violations = []
    arcs = sorted(set(arcs))
    for i, j in arcs:
        if not (1 <= i <= n and 1 <= j <= n):
            violations.append(Violation("index-range", f"arc ({i},{j}) outside 1..{n}"))
        elif i >= j:
            violations.append(Violation("arc-order", f"arc ({i},{j}) needs i < j"))
    checkable = [(i, j) for i, j in arcs if 1 <= i < j <= n]
    seen: dict[int, tuple[int, int]] = {}
    for i, j in checkable:
        for p in (i, j):
            if p in seen and seen[p] != (i, j):
                violations.append(
                    Violation("uniqueness", f"position {p} in both {seen[p]} and ({i},{j})")
                )
            seen.setdefault(p, (i, j))
    for i, j in checkable:
        if not is_complementary(word[i - 1], word[j - 1]):
            violations.append(
                Violation(
                    "complementarity",
                    f"arc ({i},{j}) pairs {word[i - 1]} with {word[j - 1]}",
                )
            )
    for a, (i, j) in enumerate(checkable):
        for k, l in checkable[a + 1 :]:
            if i < k < j < l:
                violations.append(Violation("crossing", f"arcs ({i},{j}) and ({k},{l}) cross"))
    return violations


def validate_pairwise(d: Diagram) -> list[Violation]:
    """Reference for ``validate``, crossings and anchors compared pairwise."""
    ns, nt = len(d.source), len(d.target)
    violations = []

    def in_range(i: int, n: int) -> bool:
        return 1 <= i <= n

    for i, j in sorted(d.through):
        if not in_range(i, ns) or not in_range(j, nt):
            violations.append(Violation("index-range", f"through ({i},{j}) outside boundaries"))
    for name, arcs, n in (("source arc", d.source_arcs, ns), ("target arc", d.target_arcs, nt)):
        for i, j in sorted(arcs):
            if not in_range(i, n) or not in_range(j, n):
                violations.append(Violation("index-range", f"{name} ({i},{j}) outside 1..{n}"))
            elif i >= j:
                violations.append(Violation("arc-order", f"{name} ({i},{j}) needs i < j"))

    through = sorted((i, j) for i, j in d.through if in_range(i, ns) and in_range(j, nt))
    src_arcs = sorted((i, j) for i, j in d.source_arcs if 1 <= i < j <= ns)
    tgt_arcs = sorted((i, j) for i, j in d.target_arcs if 1 <= i < j <= nt)

    src_uses: dict[int, list[str]] = {}
    tgt_uses: dict[int, list[str]] = {}
    for i, j in through:
        src_uses.setdefault(i, []).append(f"through ({i},{j})")
        tgt_uses.setdefault(j, []).append(f"through ({i},{j})")
    for i, j in src_arcs:
        src_uses.setdefault(i, []).append(f"source arc ({i},{j})")
        src_uses.setdefault(j, []).append(f"source arc ({i},{j})")
    for i, j in tgt_arcs:
        tgt_uses.setdefault(i, []).append(f"target arc ({i},{j})")
        tgt_uses.setdefault(j, []).append(f"target arc ({i},{j})")
    for side, uses in (("source", src_uses), ("target", tgt_uses)):
        for pos in sorted(uses):
            if len(uses[pos]) > 1:
                violations.append(
                    Violation("degree", f"{side} position {pos} in {' and '.join(uses[pos])}")
                )

    for i, j in through:
        if d.source[i - 1] != d.target[j - 1]:
            violations.append(
                Violation(
                    "through-typing",
                    f"through ({i},{j}) joins {d.source[i - 1]} to {d.target[j - 1]}",
                )
            )
    for name, arcs, word in (("source arc", src_arcs, d.source), ("target arc", tgt_arcs, d.target)):
        for i, j in arcs:
            if not is_complementary(word[i - 1], word[j - 1]):
                violations.append(
                    Violation(
                        "arc-typing",
                        f"{name} ({i},{j}) pairs {word[i - 1]} with {word[j - 1]}",
                    )
                )

    for (i, j), (k, l) in zip(through, through[1:]):
        if j >= l:
            violations.append(
                Violation("through-crossing", f"through wires ({i},{j}) and ({k},{l}) cross")
            )
    for name, arcs, anchors in (
        ("source arc", src_arcs, [i for i, _ in through]),
        ("target arc", tgt_arcs, [j for _, j in through]),
    ):
        for i, j in arcs:
            for k in anchors:
                if i < k < j:
                    violations.append(
                        Violation("arc-wire-crossing", f"{name} ({i},{j}) spans through anchor {k}")
                    )
        for a, (i, j) in enumerate(arcs):
            for k, l in arcs[a + 1 :]:
                if i < k < j < l:
                    violations.append(
                        Violation("arc-arc-crossing", f"{name}s ({i},{j}) and ({k},{l}) cross")
                    )
    return violations


def arc_depths_pairwise(arcs) -> dict[tuple[int, int], int]:
    """Reference nesting depths: 1 for innermost, growing outward."""
    depths: dict[tuple[int, int], int] = {}
    for i, j in sorted(arcs, key=lambda arc: arc[1] - arc[0]):
        inner = [depths[a] for a in depths if i < a[0] and a[1] < j]
        depths[i, j] = 1 + max(inner, default=0)
    return depths


def _link_ok(terms: Sequence[SimpleTerm], p: int, q: int) -> bool:
    a, b = terms[p - 1], terms[q - 1]
    return a.basic == b.basic and b.adjoint == a.adjoint + 1


def proof_violations_pairwise(
    proof: ReductionProof, terms: Sequence[SimpleTerm]
) -> list[Violation]:
    """Reference for ``proof_violations``, links compared pairwise with each
    other and with every survivor."""
    violations = []
    links = sorted(proof.links)
    used = list(proof.survivors)
    for p, q in links:
        used.extend((p, q))
        if not 1 <= p < q <= len(terms):
            violations.append(Violation("index-range", f"link ({p},{q}) out of range"))
        elif not _link_ok(terms, p, q):
            violations.append(
                Violation("link-typing", f"link ({p},{q}) joins {terms[p - 1]} and {terms[q - 1]}")
            )
    if sorted(used) != list(range(1, len(terms) + 1)):
        violations.append(Violation("partition", "links and survivors do not partition the terms"))
    if tuple(sorted(proof.survivors)) != proof.survivors:
        violations.append(Violation("survivor-order", "survivors must be listed in position order"))
    for a, (p, q) in enumerate(links):
        for r, s in links[a + 1 :]:
            if p < r < q < s:
                violations.append(Violation("link-crossing", f"links ({p},{q}) and ({r},{s}) cross"))
    for p, q in links:
        for s in proof.survivors:
            if p < s < q:
                violations.append(
                    Violation("link-spans-survivor", f"survivor {s} inside link ({p},{q})")
                )
    return violations


def all_reductions_reference(
    types: Sequence[PregroupType], goal: PregroupType
) -> Iterator[ReductionProof]:
    """Reference for ``all_reductions``: the backtracking search that keeps
    every complete matching of every span, so it is exponential in time and
    memory on long ungrammatical sentences.  Every contraction proof
    reducing ``types`` to ``goal``, canonical first.

    Proofs come out in leftmost-innermost order: at each position a link
    with the nearest valid partner is preferred over letting the term
    survive.
    """
    terms = flatten(types)
    goal_terms = goal.terms
    m = len(terms)

    matchings_memo: dict[tuple[int, int], tuple[tuple[tuple[int, int], ...], ...]] = {}

    def matchings(lo: int, hi: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """All complete noncrossing contraction matchings of terms lo..hi."""
        if lo > hi:
            return ((),)
        if (hi - lo + 1) % 2:
            return ()
        if (lo, hi) in matchings_memo:
            return matchings_memo[lo, hi]
        found = []
        for k in range(lo + 1, hi + 1, 2):
            if _link_ok(terms, lo, k):
                for inner in matchings(lo + 1, k - 1):
                    for rest in matchings(k + 1, hi):
                        found.append(((lo, k),) + inner + rest)
        matchings_memo[lo, hi] = tuple(found)
        return matchings_memo[lo, hi]

    def search(
        p: int, gi: int
    ) -> Iterator[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
        if p > m:
            if gi == len(goal_terms):
                yield (), ()
            return
        for k in range(p + 1, m + 1):
            if _link_ok(terms, p, k):
                for inner in matchings(p + 1, k - 1):
                    for rest_links, rest_survivors in search(k + 1, gi):
                        yield ((p, k),) + inner + rest_links, rest_survivors
        if gi < len(goal_terms) and terms[p - 1] == goal_terms[gi]:
            for rest_links, rest_survivors in search(p + 1, gi + 1):
                yield rest_links, (p,) + rest_survivors

    for links, survivors in search(1, 0):
        yield ReductionProof(frozenset(links), survivors)


# --- reference gluing --------------------------------------------------------
#
# The edge-list gluing graph that ``compose`` and ``zip_and_transfer`` used
# before they shared one interface walk, kept verbatim as their reference.

# Gluing-graph machinery shared by compose and zip_and_transfer.  Nodes are
# (layer, position); an edge is (node, node, kind, pair_type) where kind is
# "wire", "arc" or "interface" and pair_type is "AT"/"CG" for bond edges.

_Node = tuple[int, int]
_Edge = tuple[_Node, _Node, str, str]


def _trace_components(edges: list[_Edge]) -> list[list[_Edge]]:
    adjacency: dict[_Node, list[int]] = {}
    for idx, (a, b, _, _) in enumerate(edges):
        adjacency.setdefault(a, []).append(idx)
        adjacency.setdefault(b, []).append(idx)
    for node, incident in adjacency.items():
        if len(incident) > 2:
            raise AssertionError(f"node {node} has degree {len(incident)}")

    seen = [False] * len(edges)
    components = []

    def walk(start: _Node, first: int) -> list[_Edge]:
        path = []
        node, edge_idx = start, first
        while edge_idx is not None and not seen[edge_idx]:
            seen[edge_idx] = True
            path.append(edges[edge_idx])
            a, b, _, _ = edges[edge_idx]
            node = b if node == a else a
            edge_idx = next((e for e in adjacency[node] if not seen[e]), None)
        return path

    for node in sorted(adjacency):
        if len(adjacency[node]) == 1 and not seen[adjacency[node][0]]:
            components.append(walk(node, adjacency[node][0]))
    for idx in range(len(edges)):
        if not seen[idx]:
            a = edges[idx][0]
            components.append(walk(a, idx))
    return components


def _component_ends(component: list[_Edge]) -> list[_Node]:
    """Endpoints of a path component; empty for a cycle."""
    count: dict[_Node, int] = {}
    for a, b, _, _ in component:
        count[a] = count.get(a, 0) + 1
        count[b] = count.get(b, 0) + 1
    return sorted(node for node, c in count.items() if c == 1)


def _classify(
    components: list[list[_Edge]],
    boundary_layers: frozenset[int],
    emit,
) -> Counter[str]:
    """Emit each surviving path and count what was erased, keyed by the
    :class:`LoopReport` field each count fills."""
    tally: Counter[str] = Counter()
    for component in components:
        ends = _component_ends(component)
        bonds = sum(1 for _, _, kind, _ in component if kind != "wire")
        input_bonds = sum(1 for _, _, kind, _ in component if kind == "arc")
        if not ends:
            tally["closed_loops"] += 1
            tally["closed_loop_bonds"] += input_bonds
            tally["loop_at_pairs"] += sum(
                1 for _, _, kind, pt in component if kind != "wire" and pt == "AT"
            )
            tally["loop_cg_pairs"] += sum(
                1 for _, _, kind, pt in component if kind != "wire" and pt == "CG"
            )
            continue
        on_boundary = [node for node in ends if node[0] in boundary_layers]
        if len(on_boundary) == 2:
            emitted_is_bond = emit(on_boundary[0], on_boundary[1])
            tally["absorbed_bonds"] += bonds - (1 if emitted_is_bond else 0)
        elif len(on_boundary) == 1:
            tally["dangled_endpoints"] += 1
            tally["erased_path_bonds"] += bonds
        else:
            tally["erased_open_paths"] += 1
            tally["erased_path_bonds"] += bonds
    return tally


def compose_reference(f: Diagram, g: Diagram) -> tuple[Diagram, LoopReport]:
    """Stack ``f`` on top of ``g``, gluing ``f.target`` to ``g.source``.

    Returns the composite ``f.source -> g.target`` plus the erasure
    report.  Raises :class:`InterfaceError` unless the glued boundary
    words are equal.
    """
    if f.target != g.source:
        raise InterfaceError(
            f"cannot glue: upper target {f.target or '-'!r} != lower source {g.source or '-'!r}"
        )
    X, Y, Z = 0, 1, 2
    mid = f.target

    def arc_type(word: str, i: int, j: int) -> str:
        return pair_class(word[i - 1], word[j - 1])

    edges: list[_Edge] = []
    for i, j in sorted(f.through):
        edges.append(((X, i), (Y, j), "wire", ""))
    for i, j in sorted(f.source_arcs):
        edges.append(((X, i), (X, j), "arc", arc_type(f.source, i, j)))
    for i, j in sorted(f.target_arcs):
        edges.append(((Y, i), (Y, j), "arc", arc_type(mid, i, j)))
    for i, j in sorted(g.through):
        edges.append(((Y, i), (Z, j), "wire", ""))
    for i, j in sorted(g.source_arcs):
        edges.append(((Y, i), (Y, j), "arc", arc_type(mid, i, j)))
    for i, j in sorted(g.target_arcs):
        edges.append(((Z, i), (Z, j), "arc", arc_type(g.target, i, j)))

    through: set[tuple[int, int]] = set()
    source_arcs: set[tuple[int, int]] = set()
    target_arcs: set[tuple[int, int]] = set()

    def emit(a: _Node, b: _Node) -> bool:
        (la, pa), (lb, pb) = a, b
        if la == X and lb == Z:
            through.add((pa, pb))
            return False
        if la == X and lb == X:
            source_arcs.add((min(pa, pb), max(pa, pb)))
        else:
            target_arcs.add((min(pa, pb), max(pa, pb)))
        return True

    tally = _classify(_trace_components(edges), frozenset({X, Z}), emit)
    result = Diagram.unchecked(f.source, g.target, through, source_arcs, target_arcs)
    report = LoopReport(
        bonds_before=bond_count(f) + bond_count(g), bonds_after=bond_count(result), **tally
    )
    return result, report


def zip_and_transfer_reference(
    fhat: SecondaryStructure, ghat: SecondaryStructure, interface: str
) -> tuple[SecondaryStructure, LoopReport]:
    """Compose two straightened diagrams across a complementary interface.

    ``fhat`` must end with ``interface`` and ``ghat`` must start with its
    reverse complement.  The interface segments are zipped position ``i``
    against position ``len(interface) + 1 - i``, connectivity transfers
    through the zipped pairs, and interior leftovers are erased exactly as
    in :func:`compose`.  Agrees with bending, composing, and unbending.
    """
    y = canonical_word(interface)
    ny = len(y)
    nx = len(fhat.word) - ny
    if nx < 0 or fhat.word[nx:] != y:
        raise InterfaceError(f"left word {fhat.word!r} does not end with {y!r}")
    if len(ghat.word) < ny or ghat.word[:ny] != reverse_complement(y):
        raise InterfaceError(
            f"right word {ghat.word!r} does not start with {reverse_complement(y)!r}"
        )
    nz = len(ghat.word) - ny
    P, YL, YR, S = 0, 1, 2, 3  # prefix, interface left/right, suffix

    def left_node(p: int) -> _Node:
        return (P, p) if p <= nx else (YL, p - nx)

    def right_node(p: int) -> _Node:
        return (YR, p) if p <= ny else (S, p - ny)

    edges: list[_Edge] = []
    for i, j in sorted(fhat.arcs):
        edges.append(
            (left_node(i), left_node(j), "arc", pair_class(fhat.word[i - 1], fhat.word[j - 1]))
        )
    for i, j in sorted(ghat.arcs):
        edges.append(
            (right_node(i), right_node(j), "arc", pair_class(ghat.word[i - 1], ghat.word[j - 1]))
        )
    for i in range(1, ny + 1):
        edges.append(
            ((YL, i), (YR, ny + 1 - i), "interface", pair_class(y[i - 1], complement(y[i - 1])))
        )

    arcs: set[tuple[int, int]] = set()

    def emit(a: _Node, b: _Node) -> bool:
        def out_pos(node: _Node) -> int:
            layer, p = node
            return p if layer == P else nx + p

        pa, pb = out_pos(a), out_pos(b)
        arcs.add((min(pa, pb), max(pa, pb)))
        return True

    tally = _classify(_trace_components(edges), frozenset({P, S}), emit)
    result = SecondaryStructure.unchecked(fhat.word[:nx] + ghat.word[ny:], arcs)
    report = LoopReport(
        interface_bonds_formed=ny,
        bonds_before=len(fhat.arcs) + len(ghat.arcs),
        bonds_after=len(result.arcs),
        **tally,
    )
    return result, report


# --- reference folding -------------------------------------------------------


def _pair_table_reference(word: str, cfg: FoldConfig) -> list[list[bool]]:
    n = len(word)
    table = [[False] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(i + cfg.min_loop + 1, n + 1):
            table[i][j] = is_complementary(word[i - 1], word[j - 1])
    return table


def enumerate_structures_reference(
    word: str, cfg: FoldConfig = FoldConfig()
) -> Iterator[SecondaryStructure]:
    """Reference for ``enumerate_structures``: recursive prefix-tree walk
    with a pairwise crossing scan against every committed arc."""
    word = canonical_word(word)
    n = len(word)
    pairable = _pair_table_reference(word, cfg)
    used = [False] * (n + 1)
    arcs: list[tuple[int, int]] = []

    def crosses(i: int, j: int) -> bool:
        # Committed arcs all precede (i, j) lexicographically, so the only
        # possible crossing pattern is a < i < b < j.
        return any(a < i < b < j for a, b in arcs)

    def extend(min_i: int, min_j: int) -> Iterator[SecondaryStructure]:
        yield SecondaryStructure.unchecked(word, arcs)
        for i in range(min_i, n + 1):
            if used[i]:
                continue
            j_start = max(i + cfg.min_loop + 1, min_j if i == min_i else 0)
            for j in range(j_start, n + 1):
                if used[j] or not pairable[i][j] or crosses(i, j):
                    continue
                arcs.append((i, j))
                used[i] = used[j] = True
                yield from extend(i, j + 1)
                used[i] = used[j] = False
                arcs.pop()

    return extend(1, 2)


def count_structures_reference(word: str, cfg: FoldConfig = FoldConfig()) -> int:
    """Reference for ``count_structures``: the table filled by span over
    every ``k``, with explicit empty-interval branches."""
    word = canonical_word(word)
    n = len(word)
    pairable = _pair_table_reference(word, cfg)
    # counts[i][j] for the closed interval i..j; empty intervals are 1.
    counts = [[1] * (n + 2) for _ in range(n + 2)]
    for span in range(2, n + 1):
        for i in range(1, n - span + 2):
            j = i + span - 1
            total = counts[i + 1][j]
            for k in range(i + cfg.min_loop + 1, j + 1):
                if pairable[i][k]:
                    inner = counts[i + 1][k - 1] if k - 1 >= i + 1 else 1
                    outer = counts[k + 1][j] if k + 1 <= j else 1
                    total += inner * outer
            counts[i][j] = total
    return counts[1][n] if n else 1


def max_bond_reference(
    word: str, cfg: FoldConfig = FoldConfig()
) -> tuple[int, list[SecondaryStructure]]:
    """Reference for ``max_bond``: a dict-memo recursion with one frame per
    position, and witnesses sorted at the end."""
    word = canonical_word(word)
    n = len(word)
    pairable = _pair_table_reference(word, cfg)

    best: dict[tuple[int, int], int] = {}

    def bonds(i: int, j: int) -> int:
        if j - i + 1 <= cfg.min_loop:
            return 0
        if (i, j) in best:
            return best[i, j]
        value = bonds(i + 1, j)
        for k in range(i + cfg.min_loop + 1, j + 1):
            if pairable[i][k]:
                value = max(value, 1 + bonds(i + 1, k - 1) + bonds(k + 1, j))
        best[i, j] = value
        return value

    witnesses_memo: dict[tuple[int, int], list[tuple[tuple[int, int], ...]]] = {}

    def witnesses(i: int, j: int) -> list[tuple[tuple[int, int], ...]]:
        # All arc lists on i..j attaining bonds(i, j), each sorted: an arc
        # at i comes before the arcs inside it, which come before those
        # after it.  The branches below are disjoint (they differ in what
        # happens at position i), so no deduplication is needed.  Tuples,
        # not sets, keep the memo small: it holds every interval's witnesses.
        if j - i + 1 <= cfg.min_loop:
            return [()]
        if (i, j) in witnesses_memo:
            return witnesses_memo[i, j]
        target = bonds(i, j)
        found = []
        if bonds(i + 1, j) == target:
            found.extend(witnesses(i + 1, j))
        for k in range(i + cfg.min_loop + 1, j + 1):
            if pairable[i][k] and 1 + bonds(i + 1, k - 1) + bonds(k + 1, j) == target:
                arc = ((i, k),)
                for inner in witnesses(i + 1, k - 1):
                    head = arc + inner
                    found.extend(head + outer for outer in witnesses(k + 1, j))
        witnesses_memo[i, j] = found
        return found

    if n == 0:
        return 0, [SecondaryStructure("", frozenset())]
    top = bonds(1, n)
    # Sorted arc lists order the witnesses as sorted_arcs() would.
    return top, [SecondaryStructure.unchecked(word, arcs) for arcs in sorted(witnesses(1, n))]


def count_max_bond_reference(word: str, cfg: FoldConfig = FoldConfig()) -> tuple[int, int]:
    """Reference for ``count_max_bond``: the recursion of ``max_bond_reference``
    over a top-down dict memo, counting each interval's witnesses without
    listing any."""
    word = canonical_word(word)
    pairable = _pair_table_reference(word, cfg)
    memo: dict[tuple[int, int], tuple[int, int]] = {}

    def solve(i: int, j: int) -> tuple[int, int]:
        # (most bonds, structures with that many) on i..j; too short for an arc: (0, 1)
        if j - i + 1 <= cfg.min_loop:
            return 0, 1
        if (i, j) in memo:
            return memo[i, j]
        bonds, ways = solve(i + 1, j)
        for k in range(i + cfg.min_loop + 1, j + 1):
            if pairable[i][k]:
                inner, outer = solve(i + 1, k - 1), solve(k + 1, j)
                value = 1 + inner[0] + outer[0]
                if value > bonds:
                    bonds, ways = value, inner[1] * outer[1]
                elif value == bonds:
                    ways += inner[1] * outer[1]
        memo[i, j] = bonds, ways
        return bonds, ways

    return solve(1, len(word))


# --- reference grammar-to-DNA path -------------------------------------------
#
# ``tensor_all`` and ``functor_reduction`` as they were before the functor
# image was built in one pass and validated once, kept verbatim.


def tensor_all_reference(diagrams: Iterable[Diagram]) -> Diagram:
    """Reference for ``tensor_all``: a fold over ``tensor``, which copies
    the accumulated arc sets at every step, so it is quadratic."""
    result = identity("")
    for d in diagrams:
        result = tensor(result, d)
    return result


def functor_reduction_reference(
    proof: ReductionProof, types: Sequence[PregroupType], lexicon: Lexicon
) -> Diagram:
    """Reference for ``functor_reduction``: the diagram a reduction maps to,
    built through the validating ``Diagram`` constructor after the proof
    check, with each term's block computed three times."""
    terms = flatten(types)
    bad = proof_violations(proof, terms)
    if bad:
        raise ValueError("invalid proof: " + "; ".join(str(v) for v in bad))
    lengths = [len(functor_object(PregroupType((t,)), lexicon)) for t in terms]
    offsets = list(accumulate(lengths, initial=0))
    source = functor_object(PregroupType(terms), lexicon)

    through = set()
    target_offset = 0
    for s in sorted(proof.survivors):
        for i in range(1, lengths[s - 1] + 1):
            through.add((offsets[s - 1] + i, target_offset + i))
        target_offset += lengths[s - 1]

    source_arcs = set()
    for p, q in proof.links:
        length = lengths[p - 1]
        for i in range(1, length + 1):
            source_arcs.add((offsets[p - 1] + i, offsets[q - 1] + length + 1 - i))

    target = functor_object(
        PregroupType(tuple(terms[s - 1] for s in sorted(proof.survivors))), lexicon
    )
    return Diagram(source, target, through, source_arcs)
