"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain data (words,
arc lists, file text), so the same seed always yields the same inputs and
nothing here calls into ``ddna``: the program under test only ever sees
the generated inputs.  Positions are 1-based, as in ``ddna``.
"""

from __future__ import annotations

import random

COMP = {"A": "T", "T": "A", "C": "G", "G": "C"}
PAIRS = ("AT", "TA", "CG", "GC")

Arc = tuple[int, int]


def rc(word: str) -> str:
    return "".join(COMP[b] for b in reversed(word))


def random_word(rng: random.Random, n: int, alphabet: str = "ACGT") -> str:
    return "".join(rng.choice(alphabet) for _ in range(n))


def dense_structure(rng: random.Random, n: int, m: int) -> tuple[str, list[Arc]]:
    """A noncrossing structure with exactly ``m`` arcs on ``n`` positions.

    The bracket line comes first, from a walk that opens, closes or skips
    with weights equal to the opens left, the open depth and the dots
    left; the letters are filled in afterwards, each arc with a random
    Watson-Crick pair.
    """
    if 2 * m > n:
        raise ValueError(f"{m} arcs do not fit on {n} positions")
    opens, dots = m, n - 2 * m
    stack: list[int] = []
    arcs: list[Arc] = []
    for pos in range(1, n + 1):
        r = rng.random() * (opens + len(stack) + dots)
        if r < opens:
            opens -= 1
            stack.append(pos)
        elif r < opens + len(stack):
            arcs.append((stack.pop(), pos))
        else:
            dots -= 1
    letters = [rng.choice("ACGT") for _ in range(n)]
    for i, j in arcs:
        letters[i - 1], letters[j - 1] = rng.choice(PAIRS)
    return "".join(letters), sorted(arcs)


def fill_structure(rng: random.Random, word: str, theta: int) -> list[Arc]:
    """A random noncrossing structure on a fixed word, respecting ``theta``.

    A left-to-right walk opens arcs at random and closes the innermost
    open one whenever its letter pairs and at least ``theta`` slots lie
    between; arcs still open at the end are dropped.
    """
    stack: list[int] = []
    arcs: list[Arc] = []
    for pos in range(1, len(word) + 1):
        if (
            stack
            and pos - stack[-1] - 1 >= theta
            and COMP[word[stack[-1] - 1]] == word[pos - 1]
            and rng.random() < 0.8
        ):
            arcs.append((stack.pop(), pos))
        elif rng.random() < 0.45:
            stack.append(pos)
    return sorted(arcs)


def bent_from_source(
    rng: random.Random, y: str, segment: int
) -> tuple[str, list[Arc]]:
    """A random valid bent diagram ``y -> z``: a structure on ``rc(y) + z``.

    Positions of ``rc(y)`` either pair among themselves (source arcs),
    stay unmatched, or stay open; open ones become through wires into
    ``z``, which is built around them from random dense segments of at
    most ``segment`` letters (target arcs).
    """
    v = list(rc(y))
    ny = len(v)
    stack: list[int] = []
    arcs: list[Arc] = []
    for p in range(1, ny + 1):
        if stack and COMP[v[stack[-1] - 1]] == v[p - 1] and rng.random() < 0.9:
            arcs.append((stack.pop(), p))
        elif rng.random() < 0.5:
            stack.append(p)

    def free_segment() -> None:
        length = rng.randint(0, segment)
        word, seg_arcs = dense_structure(rng, length, length // 3)
        base = len(v)
        v.extend(word)
        arcs.extend((i + base, j + base) for i, j in seg_arcs)

    for p in reversed(stack):
        free_segment()
        v.append(COMP[v[p - 1]])
        arcs.append((p, len(v)))
    free_segment()
    return "".join(v), sorted(arcs)


def unbend_raw(word: str, arcs: list[Arc], k: int):
    """Split a bent structure at ``k``: (source, target, through, source arcs, target arcs)."""
    source, target = rc(word[:k]), word[k:]
    through, sarcs, tarcs = [], [], []
    for p, q in arcs:
        if q <= k:
            sarcs.append((k + 1 - q, k + 1 - p))
        elif p > k:
            tarcs.append((p - k, q - k))
        else:
            through.append((k + 1 - p, q - k))
    return source, target, sorted(through), sorted(sarcs), sorted(tarcs)


def bend_raw(source: str, target: str, through, sarcs, tarcs) -> tuple[str, list[Arc]]:
    n = len(source)
    arcs = (
        [(n + 1 - i, n + j) for i, j in through]
        + [(n + 1 - j, n + 1 - i) for i, j in sarcs]
        + [(n + i, n + j) for i, j in tarcs]
    )
    return rc(source) + target, sorted(arcs)


def dotbracket_text(word: str, arcs) -> str:
    chars = ["."] * len(word)
    for i, j in arcs:
        chars[i - 1], chars[j - 1] = "(", ")"
    return f"{word}\n{''.join(chars)}\n"


def ddna_text(source: str, target: str, through=(), sarcs=(), tarcs=()) -> str:
    lines = [source or "-", target or "-"]
    for tag, edges in (("T", through), ("S", sarcs), ("A", tarcs)):
        lines.extend(f"{tag} {i} {j}" for i, j in sorted(edges))
    return "\n".join(lines) + "\n"
