"""The benchmark's own checks and counts, written without calling ``ddna``.

Structures are plain ``(word, arcs)`` pairs with 1-based arcs ``(i, j)``.
Every function here is a small, direct restatement of a definition from
the ``ddna`` documentation, so a wrong answer from the program under test
cannot also be a wrong answer here for the same reason.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from gen import COMP

Arc = tuple[int, int]


def structure_problems(word: str, arcs: Iterable[Arc], theta: int = 0) -> list[str]:
    """Every reason ``arcs`` is not a structure on ``word`` respecting ``theta``.

    Noncrossing is checked with one stack pass over the positions.
    """
    n = len(word)
    problems = []
    partner: dict[int, int] = {}
    for i, j in arcs:
        if not 1 <= i < j <= n:
            problems.append(f"arc ({i},{j}) out of range or unordered")
            continue
        if COMP.get(word[i - 1]) != word[j - 1]:
            problems.append(f"arc ({i},{j}) pairs {word[i - 1]}{word[j - 1]}")
        if j - i - 1 < theta:
            problems.append(f"arc ({i},{j}) encloses fewer than {theta} slots")
        for p, q in ((i, j), (j, i)):
            if p in partner:
                problems.append(f"position {p} in two arcs")
            partner[p] = q
    stack: list[int] = []
    for pos in range(1, n + 1):
        q = partner.get(pos)
        if q is None:
            continue
        if q > pos:
            stack.append(pos)
        elif not stack or stack.pop() != q:
            problems.append(f"arc ({q},{pos}) crosses another arc")
            break
    return problems


def structure_violation_counts(word: str, arcs: Iterable[Arc]) -> dict[str, int]:
    """How many violations of each rule ``core.structure_violations`` must list.

    Only in-range arcs ``(i, j)`` with ``i < j`` are given here; the
    generators make no others.
    """
    arcs = sorted(set(arcs))
    counts = {"uniqueness": 0, "complementarity": 0, "crossing": 0}
    uses: dict[int, int] = {}
    for i, j in arcs:
        for p in (i, j):
            uses[p] = uses.get(p, 0) + 1
        if COMP[word[i - 1]] != word[j - 1]:
            counts["complementarity"] += 1
    counts["uniqueness"] = sum(u - 1 for u in uses.values())
    counts["crossing"] = crossing_pairs(arcs)
    return {rule: c for rule, c in counts.items() if c}


def crossing_pairs(arcs: Sequence[Arc]) -> int:
    """Number of pairs ``(i, j), (k, l)`` with ``i < k < j < l``."""
    arcs = sorted(arcs)
    return sum(
        1 for a, (i, j) in enumerate(arcs) for k, l in arcs[a + 1 :] if i < k < j < l
    )


def diagram_violation_counts(source: str, target: str, through, sarcs, tarcs) -> dict[str, int]:
    """How many violations of each rule ``diagram.validate`` must list.

    Only in-range edges are given here; the generators make no others.
    """
    counts: dict[str, int] = {}

    def add(rule: str, k: int) -> None:
        if k:
            counts[rule] = counts.get(rule, 0) + k

    through = sorted(through)
    for side, arcs, wires in (("source", sarcs, [i for i, _ in through]), ("target", tarcs, [j for _, j in through])):
        uses: dict[int, int] = {}
        for p in wires:
            uses[p] = uses.get(p, 0) + 1
        for i, j in arcs:
            uses[i] = uses.get(i, 0) + 1
            uses[j] = uses.get(j, 0) + 1
        add("degree", sum(1 for u in uses.values() if u > 1))
        word = source if side == "source" else target
        add("arc-typing", sum(1 for i, j in arcs if COMP[word[i - 1]] != word[j - 1]))
        add("arc-wire-crossing", sum(1 for i, j in arcs for k in wires if i < k < j))
        add("arc-arc-crossing", crossing_pairs(arcs))
    add("through-typing", sum(1 for i, j in through if source[i - 1] != target[j - 1]))
    add("through-crossing", sum(1 for (_, j), (_, l) in zip(through, through[1:]) if j >= l))
    return counts


def _partners(word: str, theta: int) -> list[list[int]]:
    n = len(word)
    return [
        [k for k in range(i + theta + 1, n + 1) if COMP[word[i - 1]] == word[k - 1]]
        if i
        else []
        for i in range(n + 1)
    ]


def count_structures(word: str, theta: int = 0) -> int:
    """Number of structures on ``word``, by the interval recursion on position ``i``."""
    n = len(word)
    partners = _partners(word, theta)
    # N[i][j] for the closed interval i..j; N[i][i-1] (empty) is 1.
    N = [[1] * (n + 2) for _ in range(n + 2)]
    for i in range(n, 0, -1):
        row, below = N[i], N[i + 1]
        for j in range(i, n + 1):
            total = below[j]
            for k in partners[i]:
                if k > j:
                    break
                total += below[k - 1] * N[k + 1][j]
            row[j] = total
    return N[1][n] if n else 1


def max_bond(word: str, theta: int = 0) -> tuple[int, int]:
    """(maximum bond count, number of structures attaining it)."""
    n = len(word)
    partners = _partners(word, theta)
    B = [[0] * (n + 2) for _ in range(n + 2)]
    C = [[1] * (n + 2) for _ in range(n + 2)]
    for i in range(n, 0, -1):
        for j in range(i, n + 1):
            best, ways = B[i + 1][j], C[i + 1][j]
            for k in partners[i]:
                if k > j:
                    break
                value = 1 + B[i + 1][k - 1] + B[k + 1][j]
                if value > best:
                    best, ways = value, C[i + 1][k - 1] * C[k + 1][j]
                elif value == best:
                    ways += C[i + 1][k - 1] * C[k + 1][j]
            B[i][j], C[i][j] = best, ways
    return (B[1][n], C[1][n]) if n else (0, 1)


# --- pregroup search --------------------------------------------------------
#
# A term is a (basic, adjoint) pair.  A contraction link joins a^z to a
# later a^(z+1); a proof is a noncrossing set of links, each with its span
# fully contracted, whose survivors spell the goal.


def _link(terms: Sequence[tuple[str, int]], p: int, q: int) -> bool:
    (a, z), (b, w) = terms[p - 1], terms[q - 1]
    return a == b and w == z + 1


def proof_stats(terms: Sequence[tuple[str, int]], goal: Sequence[tuple[str, int]]) -> dict[str, int]:
    """Proof count and the work of the program's depth-first proof search.

    ``proofs`` is the number of proofs.  ``calls_all`` counts the search
    calls of a depth-first search that tries, at each position, every
    link (each with every complete inner matching) before letting the
    term survive, run to exhaustion; ``calls_first`` counts them up to
    the first proof.  All three come from polynomial interval recursions.
    """
    m, g = len(terms), len(goal)
    partners = [[k for k in range(p + 1, m + 1, 2) if _link(terms, p, k)] if p else [] for p in range(m + 1)]
    M = [[0] * (m + 2) for _ in range(m + 2)]  # M[lo][hi], complete matchings
    for lo in range(m + 1, 0, -1):
        M[lo][lo - 1] = 1
        inner = M[lo + 1] if lo <= m else None
        for hi in range(lo + 1, m + 1, 2):
            M[lo][hi] = sum(inner[k - 1] * M[k + 1][hi] for k in partners[lo] if k <= hi)
    proofs = [[0] * (g + 1) for _ in range(m + 2)]
    calls = [[1] * (g + 1) for _ in range(m + 2)]
    first = [[1] * (g + 1) for _ in range(m + 2)]
    for gi in range(g + 1):
        proofs[m + 1][gi] = int(gi == g)
    for p in range(m, 0, -1):
        for gi in range(g, -1, -1):
            branches = [(M[p + 1][k - 1], k + 1, gi) for k in partners[p]]
            if gi < g and terms[p - 1] == goal[gi]:
                branches.append((1, p + 1, gi + 1))
            proofs[p][gi] = sum(c * proofs[q][h] for c, q, h in branches)
            calls[p][gi] = 1 + sum(c * calls[q][h] for c, q, h in branches)
            cost = 1
            for c, q, h in branches:
                if c and proofs[q][h]:
                    cost += first[q][h]
                    break
                cost += c * calls[q][h]
            first[p][gi] = cost
    return {
        "proofs": proofs[1][0],
        "calls_all": calls[1][0],
        "calls_first": first[1][0],
    }


def proof_problems(
    links: Iterable[Arc],
    survivors: Sequence[int],
    terms: Sequence[tuple[str, int]],
    goal: Sequence[tuple[str, int]],
) -> list[str]:
    """Every reason ``(links, survivors)`` is not a proof of ``goal``."""
    links = sorted(links)
    problems = []
    used = sorted([p for link in links for p in link] + list(survivors))
    if used != list(range(1, len(terms) + 1)):
        problems.append("links and survivors do not partition the terms")
        return problems
    for p, q in links:
        if not _link(terms, p, q):
            problems.append(f"link ({p},{q}) is not a contraction")
    if [terms[s - 1] for s in survivors] != list(goal) or list(survivors) != sorted(survivors):
        problems.append("survivors do not spell the goal in order")
    if crossing_pairs(links):
        problems.append("links cross")
    for p, q in links:
        if any(p < s < q for s in survivors):
            problems.append(f"survivor under link ({p},{q})")
    return problems
