"""Independent oracles and seeded generators shared across the test suite.

The structure oracle below filters *all* subsets of candidate pairs by
the structure invariants via a subset-validity sweep; it shares no code
path with the package's enumerator or counting recursion.

The pairwise checkers are the quadratic reference versions of
``structure_violations``, ``validate`` and the render nesting depths: every
pair of arcs, and every arc against every through anchor, is compared
directly.
"""

from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path

from ddna import (
    Diagram,
    SecondaryStructure,
    enumerate_structures,
    reverse_complement,
    unbend,
)
from ddna.core import Violation, canonical_word, is_complementary
from ddna.structures import FoldConfig

FIXTURES = Path(__file__).parent / "fixtures"

ALPHABET = "ACGT"


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
