"""Tests of the benchmark itself: smoke runs, the spec file, the oracles.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import spec  # noqa: E402


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_untraced_is_correct_and_reports_every_end_to_end_metric():
    result = _run("--workload", "all", "--smoke")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {f"{w}.{m}" for w in spec.WORKLOADS for m in spec.END_TO_END}
    assert set(result["metrics"]) == want


def test_smoke_traced_reports_every_per_layer_metric():
    result = _run("--workload", "library", "--smoke", "--trace", "1")
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(spec.PER_LAYER)
    assert metrics["diagram.routes_agree"]["value"] == 1.0
    assert metrics["structures.max_bond.witnesses"]["value"] > 0


def test_benchmark_json_is_written_from_spec():
    written = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert written == spec.benchmark_json()


def _all_structures(word: str, theta: int) -> list[frozenset]:
    n = len(word)
    pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + theta + 1, n + 1)
        if gen.COMP[word[i - 1]] == word[j - 1]
    ]
    found = []
    for k in range(len(pairs) + 1):
        for arcs in combinations(pairs, k):
            if not oracle.structure_problems(word, arcs, theta):
                found.append(frozenset(arcs))
    return found


def test_structure_counts_match_brute_force():
    rng = random.Random(7)
    for _ in range(30):
        word = gen.random_word(rng, rng.randint(0, 9))
        theta = rng.randint(0, 2)
        every = _all_structures(word, theta)
        assert oracle.count_structures(word, theta) == len(every)
        best = max(len(a) for a in every)
        assert oracle.max_bond(word, theta) == (best, sum(len(a) == best for a in every))


def test_structure_problems_catches_each_rule():
    assert oracle.structure_problems("AATT", [(1, 4), (2, 3)]) == []
    assert oracle.structure_problems("AATT", [(1, 3), (2, 4)])  # crossing
    assert oracle.structure_problems("AAAT", [(1, 2)])  # not complementary
    assert oracle.structure_problems("AATT", [(1, 4), (1, 3)])  # shared position
    assert oracle.structure_problems("AT", [(1, 2)], theta=1)  # hairpin too small


def test_proof_count_matches_brute_force():
    rng = random.Random(11)
    goal = [("s", 0)]
    for _ in range(200):
        terms = [(rng.choice("ns"), rng.randint(-1, 1)) for _ in range(rng.randint(1, 8))]
        m = len(terms)
        count = 0
        positions = range(1, m + 1)
        for k in range(m + 1):
            for survivors in combinations(positions, k):
                rest = [p for p in positions if p not in survivors]
                count += sum(
                    1
                    for links in _matchings(rest)
                    if not oracle.proof_problems(links, survivors, terms, goal)
                )
        assert oracle.proof_stats(terms, goal)["proofs"] == count


def _matchings(positions: list[int]):
    """Every perfect matching of ``positions`` as (p, q) pairs, p < q."""
    if not positions:
        yield []
        return
    first, rest = positions[0], positions[1:]
    for i, q in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1 :]):
            yield [(first, q)] + tail
