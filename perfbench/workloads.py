"""The workloads: seeded inputs and the ops that run on them.

Each builder turns a seed into one *cycle*: a list of ops made of rounds,
every round holding a fixed number of ops of each kind in a seeded order,
so any stretch of the cycle has the same mix.  An op runs its calls into
``ddna`` under a tracer and returns two callables that the runner calls
off the clock: one giving the output text that is hashed, and one giving
every broken invariant the benchmark's own checks (``oracle``) find.

In a traced run a composite op is split into its public steps, each in
its own span; the split must give the same output text as the plain op.
"""

from __future__ import annotations

import random
import signal
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable

import ddna
from ddna import (
    Diagram,
    SecondaryStructure,
    all_reductions,
    bend,
    coevaluation,
    compose,
    count_structures,
    emit_ddna,
    emit_dotbracket,
    enumerate_structures,
    evaluation,
    find_reduction,
    format_report,
    functor_reduction,
    identity,
    load_lexicon,
    max_bond,
    meaning,
    parse_ddna,
    parse_dotbracket,
    parse_type,
    render_diagram_svg,
    render_structure_svg,
    render_structure_text,
    structure_as_diagram,
    structure_violations,
    tensor,
    tensor_all,
    unbend,
    validate,
    zip_and_transfer,
)
from ddna.structures import FoldConfig

import gen
import oracle
from launcher import Launcher
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent

Problems = list[str]
Result = tuple[Callable[[], str], Callable[[], Problems]]


@dataclass
class Op:
    kind: str
    run: Callable[[Tracer], Result]


@dataclass
class Workload:
    rounds: list[list[Op]]
    info: dict = field(default_factory=dict)
    # Extra measurements made once per run, after the timed phase.
    probe: Callable[[Tracer], dict] | None = None
    # Untimed ops run during set-up: bytecode, imports and lazy set-up.
    warmup: list[Op] = field(default_factory=list)

    @property
    def ops(self) -> list[Op]:
        return [op for r in self.rounds for op in r]


def _rounds(rng: random.Random, count: int, make_round: Callable[[int], list[Op]]) -> list[list[Op]]:
    rounds = []
    for r in range(count):
        batch = make_round(r)
        rng.shuffle(batch)
        rounds.append(batch)
    return rounds


def _same(label: str, got, want) -> Problems:
    return [] if got == want else [f"{label}: got {repr(got)[:200]}, want {repr(want)[:200]}"]


def _db(s: SecondaryStructure) -> str:
    return gen.dotbracket_text(s.word, s.arcs)


def _ddna(d: Diagram) -> str:
    return gen.ddna_text(d.source, d.target, d.through, d.source_arcs, d.target_arcs)


def _fields(d: Diagram) -> tuple:
    return (d.source, d.target, sorted(d.through), sorted(d.source_arcs), sorted(d.target_arcs))


# --- fold: the structures layer --------------------------------------------

FOLD = {
    "full": dict(count_n=(150, 260), fold_n=(55, 70), witnesses=(150, 400), enum_n=40,
                 enum_k=2000, enum_small=14, degenerate="AT" * 10, long_n=1200, rounds=4),
    "smoke": dict(count_n=(30, 40), fold_n=(20, 30), witnesses=(2, 60), enum_n=16,
                  enum_k=40, enum_small=10, degenerate="AT" * 4, long_n=1200, rounds=1),
}
THETA = 3


def _count_op(word: str) -> Op:
    def run(tr: Tracer) -> Result:
        with tr.span("structures.count_structures"):
            got = count_structures(word, FoldConfig(THETA))
        n = len(word)
        tr.count("structures.dp_cells", n * (n + 1) // 2)
        return (lambda: f"{got}\n"), lambda: _same("count", got, oracle.count_structures(word, THETA))

    return Op("count", run)


def _fold_op(kind: str, word: str, theta: int, want: tuple[int, int]) -> Op:
    def run(tr: Tracer) -> Result:
        with tr.span("structures.max_bond"):
            bonds, witnesses = max_bond(word, FoldConfig(theta))
        tr.size(len(witnesses))
        with tr.span("core.emit_dotbracket", len(witnesses)):
            text = "\n".join([f"max_bonds: {bonds}\n"] + [emit_dotbracket(s) for s in witnesses])
        tr.count("structures.max_bond.witnesses", len(witnesses))
        if tr.counting:
            tr.count("core.arcs", sum(len(s.arcs) for s in witnesses))

        def check() -> Problems:
            problems = _same("max bonds and witness count", (bonds, len(witnesses)), want)
            if len({s.arcs for s in witnesses}) != len(witnesses):
                problems.append("repeated witness")
            for s in witnesses:
                problems += _same("witness word", s.word, word)
                problems += _same("witness bonds", len(s.arcs), bonds)
                problems += oracle.structure_problems(word, s.arcs, theta)
            return problems

        return (lambda: text), check

    return Op(kind, run)


def _enumerate_op(word: str, k: int, small: str) -> Op:
    cfg = FoldConfig(THETA)

    def run(tr: Tracer) -> Result:
        if tr.on:
            with tr.span("structures.enumerate_structures.first"):
                stream = enumerate_structures(word, cfg)
                found = [next(stream)]
            with tr.span("structures.enumerate_structures.rest", k - 1):
                found.extend(islice(stream, k - 1))
            with tr.span("core.emit_dotbracket", len(found)):
                text = "\n".join(emit_dotbracket(s) for s in found)
        else:
            found = list(islice(enumerate_structures(word, cfg), k))
            text = "\n".join(emit_dotbracket(s) for s in found)
        if tr.counting:
            tr.count("core.arcs", sum(len(s.arcs) for s in found))

        def check() -> Problems:
            problems = _same("structures listed", len(found), min(k, oracle.count_structures(word, THETA)))
            keys = [s.sorted_arcs() for s in found]
            if keys != sorted(set(keys)) or (keys and keys[0]):
                problems.append("not in strictly increasing arc order from the empty structure")
            for s in found:
                problems += oracle.structure_problems(word, s.arcs, THETA)
            # On a small word the whole enumeration is affordable: it must
            # have as many members as count_structures says, and as ours.
            listed = sum(1 for _ in enumerate_structures(small, cfg))
            problems += _same("small word enumerate vs count", listed, count_structures(small, cfg))
            problems += _same("small word count", listed, oracle.count_structures(small, THETA))
            return problems

        return (lambda: text), check

    return Op("enumerate", run)


def _fold_word(rng: random.Random, sizes: dict) -> tuple[str, tuple[int, int]]:
    lo, hi = sizes["witnesses"]
    while True:
        word = gen.random_word(rng, rng.randint(*sizes["fold_n"]))
        bonds, ways = oracle.max_bond(word, THETA)
        if lo <= ways <= hi:
            return word, (bonds, ways)


def _smoke_warmup(build, seed: int, mode: str, workdir: Path, launcher: Launcher) -> list[Op]:
    """Every op kind once on smoke-size inputs; a smoke build warms up on itself."""
    if mode == "smoke":
        return []
    return build(seed, "smoke", workdir, launcher).ops


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout


def build_fold(seed: int, mode: str, workdir: Path, launcher: Launcher) -> Workload:
    rng = random.Random(f"fold:{seed}")
    sizes = FOLD[mode]
    degenerate = sizes["degenerate"]
    degenerate_want = oracle.max_bond(degenerate, 0)
    # One op object for every round: the runner checks its output once.
    degenerate_op = _fold_op("fold-degenerate", degenerate, 0, degenerate_want)
    witness_total = 0
    # Count words take evenly spaced lengths, three per round, so the
    # latencies of one cycle spread smoothly over the same range on every
    # seed; a gap in the latency distribution would make its quantiles jump.
    rounds = sizes["rounds"]
    lo, hi = sizes["count_n"]
    count_lengths = [lo + (hi - lo) * k // (3 * rounds - 1) for k in range(3 * rounds)]

    def make_round(r: int) -> list[Op]:
        nonlocal witness_total
        ops = [degenerate_op]
        witness_total += degenerate_want[1]
        ops.extend(_count_op(gen.random_word(rng, n)) for n in count_lengths[r::rounds])
        for _ in range(2):
            word, want = _fold_word(rng, sizes)
            witness_total += want[1]
            ops.append(_fold_op("fold", word, THETA, want))
            word = gen.random_word(rng, sizes["enum_n"])
            ops.append(_enumerate_op(word, sizes["enum_k"], word[: sizes["enum_small"]]))
        return ops

    rounds = _rounds(rng, rounds, make_round)
    long_word = gen.random_word(rng, sizes["long_n"], "AG")

    def probe(tr: Tracer) -> dict:
        # fold-long: a word with no complementary pair has one witness, the
        # empty structure.  The recursion in max_bond fails on it at the
        # seed (a known defect), so it is a probe outside the timed ops.
        # The alarm keeps a slow future fix inside the run's time limit.
        out: dict = {}
        old = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, 30)
        try:
            bonds, witnesses = max_bond(long_word, FoldConfig(THETA))
            out["long_failed"] = 0
            out["long_problems"] = _same(
                "fold-long", (bonds, [s.arcs for s in witnesses]), (0, [frozenset()])
            )
        except (RecursionError, _Timeout) as exc:
            out["long_failed"] = 1
            out["long_error"] = type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        if tr.on:
            import tracemalloc

            tracemalloc.start()
            max_bond(degenerate, FoldConfig(0))
            out["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        return out

    info = {
        "count_n": sizes["count_n"],
        "fold_n": sizes["fold_n"],
        "witnesses_per_fold_word": sizes["witnesses"],
        "witness_total": witness_total,
        "degenerate": degenerate,
        "enumerate": f"first {sizes['enum_k']} of n{sizes['enum_n']}",
        "fold_long_n": sizes["long_n"],
        "theta": THETA,
    }
    return Workload(rounds, info, probe, _smoke_warmup(build_fold, seed, mode, workdir, launcher))


# --- diagram: core, diagram and render at scale ----------------------------

DIAGRAM = {
    "full": dict(n=2000, arcs=800, duplex=1000, snake=500, evaluation=2000, segment=12,
                 injected=4, rounds=4),
    "smoke": dict(n=40, arcs=15, duplex=10, snake=5, evaluation=10, segment=3,
                  injected=3, rounds=1),
}


def _svg_paths(svg: str) -> int:
    return svg.count("<path ")


def _depth_sketch(word: str, arcs) -> str:
    """The nesting-depth line of render_structure_text, by one stack pass."""
    partner = {}
    for i, j in arcs:
        partner[i], partner[j] = j, i
    depth_of: dict[int, int] = {}
    stack: list[list[int]] = []  # [opening position, depth of deepest child]
    for pos in range(1, len(word) + 1):
        q = partner.get(pos)
        if q is None:
            continue
        if q > pos:
            stack.append([pos, 0])
        else:
            opened, inner = stack.pop()
            depth_of[opened] = depth_of[pos] = inner + 1
            if stack:
                stack[-1][1] = max(stack[-1][1], inner + 1)
    return "".join(str(depth_of[p] % 10) if p in depth_of else "." for p in range(1, len(word) + 1))


def _random_arcs(rng: random.Random, n: int, k: int) -> list[tuple[int, int]]:
    arcs = []
    for _ in range(k):
        i = rng.randint(1, n - 1)
        arcs.append((i, rng.randint(i + 1, n)))
    return arcs


def build_diagram(seed: int, mode: str, workdir: Path, launcher: Launcher) -> Workload:
    rng = random.Random(f"diagram:{seed}")
    sizes = DIAGRAM[mode]
    n, k = sizes["n"], sizes["n"] // 2

    def make_round(r: int) -> list[Op]:
        word, arcs = gen.dense_structure(rng, n, sizes["arcs"])
        structure = SecondaryStructure(word, frozenset(arcs))
        db_text = gen.dotbracket_text(word, arcs)
        f_raw = gen.unbend_raw(word, arcs, k)
        f = Diagram(*f_raw)
        f_text = gen.ddna_text(*f_raw)
        g_word, g_arcs = gen.bent_from_source(rng, f_raw[1], sizes["segment"])
        g_raw = gen.unbend_raw(g_word, g_arcs, len(f_raw[1]))
        g = Diagram(*g_raw)
        fhat = SecondaryStructure(*gen.bend_raw(*f_raw))
        ghat = SecondaryStructure(*gen.bend_raw(*g_raw))
        bad_arcs = arcs + _random_arcs(rng, n, sizes["injected"])
        source, target, through, sarcs, tarcs = f_raw
        bad_raw = (
            source,
            target,
            set(through) | {(rng.randint(1, len(source)), rng.randint(1, len(target)))},
            set(sarcs) | set(_random_arcs(rng, len(source), sizes["injected"])),
            set(tarcs) | set(_random_arcs(rng, len(target), sizes["injected"] // 2)),
        )
        bad = Diagram.unchecked(*bad_raw)
        half = gen.random_word(rng, sizes["duplex"])
        duplex_word = half + gen.rc(half)
        m = len(half)
        duplex = SecondaryStructure(duplex_word, frozenset((i, 2 * m + 1 - i) for i in range(1, m + 1)))
        snake_word = gen.random_word(rng, sizes["snake"])

        def construct(tr: Tracer) -> Result:
            with tr.span("core.SecondaryStructure"):
                got = SecondaryStructure(word, frozenset(arcs))
            tr.count("core.arcs", len(got.arcs))
            return (lambda: _db(got)), lambda: _same("arcs", got.arcs, frozenset(arcs))

        def violations(tr: Tracer) -> Result:
            with tr.span("core.structure_violations"):
                got = structure_violations(word, arcs)
            return (lambda: "\n".join(map(str, got))), lambda: _same(
                "violations", got, []
            ) + oracle.structure_problems(word, arcs)

        def violations_invalid(tr: Tracer) -> Result:
            with tr.span("core.structure_violations.invalid"):
                got = structure_violations(word, bad_arcs)
            tr.count("core.violations", len(got))

            def check() -> Problems:
                counts: dict[str, int] = {}
                for v in got:
                    counts[v.rule] = counts.get(v.rule, 0) + 1
                return _same("violation counts", counts, oracle.structure_violation_counts(word, bad_arcs))

            return (lambda: "\n".join(map(str, got))), check

        def parse_db(tr: Tracer) -> Result:
            with tr.span("core.parse_dotbracket"):
                got = parse_dotbracket(db_text)
            return (lambda: _db(got)), lambda: _same("parsed", (got.word, got.arcs), (word, frozenset(arcs)))

        def emit_db(tr: Tracer) -> Result:
            with tr.span("core.emit_dotbracket"):
                got = emit_dotbracket(structure)
            return (lambda: got), lambda: _same("emitted", got, db_text)

        def parse_dd(tr: Tracer) -> Result:
            with tr.span("diagram.parse_ddna"):
                got = parse_ddna(f_text)
            return (lambda: _ddna(got)), lambda: _same("parsed", _fields(got), f_raw)

        def emit_dd(tr: Tracer) -> Result:
            with tr.span("diagram.emit_ddna"):
                got = emit_ddna(f)
            return (lambda: got), lambda: _same("emitted", got, f_text)

        def validate_ok(tr: Tracer) -> Result:
            with tr.span("diagram.validate"):
                got = validate(f)
            return (lambda: "\n".join(map(str, got))), lambda: _same("violations", got, [])

        def validate_bad(tr: Tracer) -> Result:
            with tr.span("diagram.validate.invalid"):
                got = validate(bad)
            tr.count("core.violations", len(got))

            def check() -> Problems:
                counts: dict[str, int] = {}
                for v in got:
                    counts[v.rule] = counts.get(v.rule, 0) + 1
                return _same("violation counts", counts, oracle.diagram_violation_counts(*bad_raw))

            return (lambda: "\n".join(map(str, got))), check

        def bend_op(tr: Tracer) -> Result:
            with tr.span("diagram.bend"):
                got = bend(f)
            return (lambda: _db(got)), lambda: _same(
                "bent", (got.word, sorted(got.arcs)), gen.bend_raw(*f_raw)
            )

        def unbend_op(tr: Tracer) -> Result:
            with tr.span("diagram.unbend"):
                got = unbend(structure, k)
            return (lambda: _ddna(got)), lambda: _same("unbent", _fields(got), f_raw)

        def compose_op(tr: Tracer) -> Result:
            with tr.span("diagram.compose"):
                got, report = compose(f, g)
            tr.count("diagram.compose.edges", sum(map(len, (*f_raw[2:], *g_raw[2:]))))
            tr.count("diagram.compose.closed_loops", report.closed_loops)

            def check() -> Problems:
                word_, arcs_ = gen.bend_raw(*_fields(got))
                return (
                    _same("composite boundary", (got.source, got.target), (f.source, g.target))
                    + _same("bonds after", report.bonds_after, len(got.source_arcs) + len(got.target_arcs))
                    + oracle.structure_problems(word_, arcs_)
                )

            return (lambda: _ddna(got) + format_report(report)), check

        def zip_op(tr: Tracer) -> Result:
            with tr.span("diagram.zip_and_transfer"):
                got, report = zip_and_transfer(fhat, ghat, f_raw[1])

            def check() -> Problems:
                routed = bend(compose(f, g)[0])
                return _same("zip_and_transfer vs bend of compose", (got.word, got.arcs), (routed.word, routed.arcs))

            return (lambda: _db(got) + format_report(report)), check

        def snake_op(tr: Tracer) -> Result:
            w = snake_word
            if tr.on:
                with tr.span("diagram.identity", 2):
                    left, right = identity(w), identity(w)
                with tr.span("diagram.coevaluation"):
                    cap = coevaluation(w)
                with tr.span("diagram.evaluation"):
                    cup = evaluation(w)
                with tr.span("diagram.tensor", 2):
                    upper, lower = tensor(left, cap), tensor(cup, right)
                with tr.span("diagram.compose"):
                    got = compose(upper, lower)[0]
            else:
                got = compose(
                    tensor(identity(w), coevaluation(w)), tensor(evaluation(w), identity(w))
                )[0]
            ident = (w, w, [(i, i) for i in range(1, len(w) + 1)], [], [])
            return (lambda: _ddna(got)), lambda: _same("snake", _fields(got), ident)

        def evaluation_op(eval_word: str):
            def run(tr: Tracer) -> Result:
                with tr.span("diagram.evaluation"):
                    got = evaluation(eval_word)
                m = len(eval_word)
                want = (eval_word + gen.rc(eval_word), "", [], [(i, 2 * m + 1 - i) for i in range(1, m + 1)], [])
                return (lambda: _ddna(got)), lambda: _same("cup", _fields(got), want)

            return run

        def render_svg(tr: Tracer) -> Result:
            with tr.span("render.render_structure_svg"):
                got = render_structure_svg(duplex)
            tr.count("render.svg_kb", len(got) / 1024)
            return (lambda: got), lambda: _same("arc paths", _svg_paths(got), m) + _same(
                "bases", got.count("<text "), len(duplex_word)
            )

        def render_text(tr: Tracer) -> Result:
            with tr.span("render.render_structure_text"):
                got = render_structure_text(structure)
            want = db_text + _depth_sketch(word, arcs) + "\n"
            return (lambda: got), lambda: _same("text", got, want)

        def render_dsvg(tr: Tracer) -> Result:
            with tr.span("render.render_diagram_svg"):
                got = render_diagram_svg(f)
            tr.count("render.svg_kb", len(got) / 1024)
            edges = sum(map(len, f_raw[2:]))
            return (lambda: got), lambda: _same("edge paths", _svg_paths(got), edges)

        return [
            Op(kind, fn)
            for kind, fn in (
                ("construct", construct),
                ("violations", violations),
                ("violations-invalid", violations_invalid),
                ("parse-dotbracket", parse_db),
                ("emit-dotbracket", emit_db),
                ("parse-ddna", parse_dd),
                ("emit-ddna", emit_dd),
                ("validate", validate_ok),
                ("validate-invalid", validate_bad),
                ("bend", bend_op),
                ("unbend", unbend_op),
                ("compose", compose_op),
                ("zip", zip_op),
                ("snake", snake_op),
                *(
                    ("evaluation", evaluation_op(gen.random_word(rng, sizes["evaluation"])))
                    for _ in range(2)
                ),
                ("render-svg", render_svg),
                ("render-text", render_text),
                ("render-diagram-svg", render_dsvg),
            )
        ]

    rounds = _rounds(rng, sizes["rounds"], make_round)
    info = {k_: v for k_, v in sizes.items() if k_ != "rounds"}
    return Workload(rounds, info, None, _smoke_warmup(build_diagram, seed, mode, workdir, launcher))


# --- grammar: the pregroup layer -------------------------------------------

CATEGORIES = {
    "n": ("n", ["cats", "mice", "dogs", "birds", "owls", "bees", "ants", "foxes"]),
    "vi": ("n^r s", ["sleep", "run", "sing", "swim"]),
    "vt": ("n^r s n^l", ["chase", "see", "like", "feed", "bite"]),
    "adj": ("n n^l", ["big", "small", "red", "old"]),
    "rel": ("n^r n s^l n", ["who", "that"]),
    "conj": ("s^r s s^l", ["and", "but"]),
    "prep": ("n^r n n^l", ["near", "with", "of"]),
}

GRAMMAR = {
    "full": dict(accept_words=(8, 25), accept_calls=200, nearmiss_words=(20, 26),
                 nearmiss_calls=5000, alternating=(22, 24, 24), ambiguous_calls=(8000, 12000),
                 accept=30, nearmiss=12, rounds=4),
    "smoke": dict(accept_words=(4, 10), accept_calls=200, nearmiss_words=(8, 12),
                  nearmiss_calls=2000, alternating=(8, 10), ambiguous_calls=(20, 400),
                  accept=1, nearmiss=1, rounds=1),
}


def _term_tuples(type_text: str) -> list[tuple[str, int]]:
    """Own parse of the type syntax: ``n``, ``n^r``, ``n^ll`` -> (basic, adjoint)."""
    terms = []
    for token in type_text.split():
        basic, _, marks = token.partition("^")
        terms.append((basic, len(marks) if marks.startswith("r") else -len(marks)))
    return terms


def _image(type_text: str, words: dict[str, str]) -> str:
    return "".join(
        words[b] if z % 2 == 0 else gen.rc(words[b]) for b, z in _term_tuples(type_text)
    )


class _Sentences:
    """A small generative grammar over the lexicon categories."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def word(self, cat: str) -> list[str]:
        return [self.rng.choice(CATEGORIES[cat][1])]

    def np(self, depth: int = 0) -> list[str]:
        r = self.rng.random()
        if depth > 1 or r < 0.5:
            return self.word("n")
        if r < 0.7:
            return self.word("adj") + self.np(depth + 1)
        if r < 0.85:
            return self.np(depth + 1) + self.word("prep") + self.np(depth + 1)
        return self.np(depth + 1) + self.word("rel") + self.vp(depth + 1)

    def vp(self, depth: int = 0) -> list[str]:
        if self.rng.random() < 0.4:
            return self.word("vi")
        return self.word("vt") + self.np(depth)

    def sentence(self, clauses: int) -> list[str]:
        words = self.np() + self.vp()
        for _ in range(clauses - 1):
            words += self.word("conj") + self.np() + self.vp()
        return words


def _proof_text(proof) -> str:
    """A proof as ``ddna parse`` prints it."""
    links = " ".join(f"({p},{q})" for p, q in sorted(proof.links)) or "-"
    survivors = " ".join(str(s) for s in proof.survivors) or "-"
    return f"links: {links}\nsurvivors: {survivors}\n"


def _lexicon(rng: random.Random) -> tuple[dict[str, str], list[tuple[str, str, str]], str]:
    """Type words, entries (name, type, brackets) and their YAML text."""
    words = {"n": gen.random_word(rng, 12), "s": gen.random_word(rng, 12)}
    entries = []
    for type_text, names in CATEGORIES.values():
        image = _image(type_text, words)
        for name in names:
            brackets = gen.dotbracket_text(image, gen.fill_structure(rng, image, THETA)).split("\n")[1]
            entries.append((name, type_text, brackets))
    yaml_text = (
        f"types:\n  n: {words['n']}\n  s: {words['s']}\ntheta: {THETA}\nentries:\n"
        + "".join(f"  {name}:\n    type: {t}\n    structure: \"{b}\"\n" for name, t, b in entries)
    )
    return words, entries, yaml_text


CATEGORY_OF = {name: cat for cat, (_, names) in CATEGORIES.items() for name in names}


def build_grammar(seed: int, mode: str, workdir: Path, launcher: Launcher) -> Workload:
    rng = random.Random(f"grammar:{seed}")
    sizes = GRAMMAR[mode]
    words, entries, yaml_text = _lexicon(rng)
    lexicon = load_lexicon(yaml_text)
    goal = parse_type("s")
    goal_terms = [("s", 0)]
    goal_word = words["s"]
    grammar = _Sentences(rng)

    def terms_of(sentence: list[str]) -> list[tuple[str, int]]:
        return [t for w in sentence for t in _term_tuples(CATEGORIES[CATEGORY_OF[w]][0])]

    def stats(sentence: list[str]) -> dict:
        return oracle.proof_stats(terms_of(sentence), goal_terms)

    def draw(accept: Callable[[list[str], dict], bool], make: Callable[[], list[str]]):
        while True:
            sentence = make()
            st = stats(sentence)
            if accept(sentence, st):
                return sentence, st

    def in_range(sentence: list[str], bounds: tuple[int, int]) -> bool:
        return bounds[0] <= len(sentence) <= bounds[1]

    def accept_sentence(length: int) -> tuple[list[str], dict]:
        return draw(
            lambda s, st: in_range(s, (length, length + 1))
            and st["proofs"] >= 1
            and st["calls_first"] <= sizes["accept_calls"],
            lambda: grammar.sentence(rng.randint(1, 4)),
        )

    def nearmiss_sentence() -> tuple[list[str], dict]:
        def make() -> list[str]:
            s = grammar.sentence(rng.randint(2, 5))
            i = rng.randrange(len(s))
            if rng.random() < 0.5:
                return s[:i] + s[i + 1 :]
            return s[:i] + grammar.word(rng.choice(list(CATEGORIES))) + s[i + 1 :]

        return draw(
            lambda s, st: in_range(s, sizes["nearmiss_words"])
            and st["proofs"] == 0
            and st["calls_all"] <= sizes["nearmiss_calls"],
            make,
        )

    def ambiguous_sentence() -> tuple[list[str], dict]:
        lo, hi = sizes["ambiguous_calls"]
        return draw(
            lambda s, st: st["proofs"] >= 2 and lo <= st["calls_all"] <= hi,
            lambda: grammar.sentence(rng.randint(3, 7)),
        )

    def alternating(length: int) -> list[str]:
        return [grammar.word("n" if i % 2 == 0 else "prep")[0] for i in range(length)]

    def types_of(sentence: list[str]):
        return [lexicon.entries[w].type for w in sentence]

    def lexicon_op() -> Op:
        def run(tr: Tracer) -> Result:
            with tr.span("pregroup.load_lexicon"):
                got = load_lexicon(yaml_text)

            def text() -> str:
                return "".join(
                    f"{name} {got.entries[name].type} {_db(got.entries[name].structure)}"
                    for name in sorted(got.entries)
                )

            def check() -> Problems:
                want = {name: (_image(t, words), b) for name, t, b in entries}
                have = {
                    name: (e.structure.word, gen.dotbracket_text(e.structure.word, e.structure.arcs).split("\n")[1])
                    for name, e in got.entries.items()
                }
                return _same("entries", have, want) + _same("theta", got.min_loop, THETA)

            return text, check

        return Op("lexicon", run)

    def accept_op(sentence: list[str]) -> Op:
        types = types_of(sentence)
        terms = terms_of(sentence)

        def run(tr: Tracer) -> Result:
            with tr.span("pregroup.find_reduction.accept"):
                proof = find_reduction(types, goal)
            if tr.on:
                # meaning, split into its public steps.
                with tr.span("pregroup.meaning"):
                    with tr.span("pregroup.find_reduction.accept"):
                        inner = find_reduction(types, goal)
                    with tr.span("diagram.tensor_all"):
                        state = tensor_all(structure_as_diagram(lexicon.entries[w].structure) for w in sentence)
                    with tr.span("pregroup.functor_reduction"):
                        reduction = functor_reduction(inner, types, lexicon)
                    with tr.span("diagram.compose"):
                        composite, report = compose(state, reduction)
                    with tr.span("diagram.bend"):
                        structure = bend(composite)
            else:
                structure, report = meaning(sentence, goal, lexicon)
            tr.count("pregroup.terms", len(terms))
            tr.count("core.arcs", len(structure.arcs))

            def check() -> Problems:
                return (
                    oracle.proof_problems(proof.links, proof.survivors, terms, goal_terms)
                    + _same("meaning word", structure.word, goal_word)
                    + oracle.structure_problems(structure.word, structure.arcs)
                    + _same("bonds after", report.bonds_after, len(structure.arcs))
                )

            return (lambda: _proof_text(proof) + _db(structure) + format_report(report)), check

        return Op("accept", run)

    def reject_op(kind: str, sentence: list[str]) -> Op:
        types = types_of(sentence)
        terms = terms_of(sentence)

        def run(tr: Tracer) -> Result:
            with tr.span("pregroup.find_reduction.reject"):
                proof = find_reduction(types, goal)
            tr.count("pregroup.terms", len(terms))
            return (lambda: repr(proof)), lambda: _same("proof of an ungrammatical sentence", proof, None)

        return Op(kind, run)

    def ambiguous_op(sentence: list[str], st: dict) -> Op:
        types = types_of(sentence)
        terms = terms_of(sentence)

        def run(tr: Tracer) -> Result:
            if tr.on:
                with tr.span("pregroup.all_reductions.first"):
                    stream = all_reductions(types, goal)
                    proofs = [next(stream)]
                with tr.span("pregroup.all_reductions.rest", st["proofs"] - 1):
                    proofs.extend(stream)
            else:
                proofs = list(all_reductions(types, goal))
            tr.count("pregroup.all_reductions.proofs", len(proofs))
            tr.count("pregroup.terms", len(terms))

            def check() -> Problems:
                problems = _same("proofs", len(proofs), st["proofs"])
                if len({(p.links, p.survivors) for p in proofs}) != len(proofs):
                    problems.append("repeated proof")
                for p in proofs:
                    problems += oracle.proof_problems(p.links, p.survivors, terms, goal_terms)
                return problems

            return (lambda: "\n".join(map(_proof_text, proofs))), check

        return Op("ambiguous", run)

    shapes: dict[str, list] = {"accept": [], "nearmiss": [], "alternating": [], "ambiguous": []}

    def make_round(r: int) -> list[Op]:
        ops = [lexicon_op()]
        # Evenly spaced lengths: the accept latencies, where the median of
        # library falls, then spread the same way on every seed.
        lo, hi = sizes["accept_words"]
        count = sizes["accept"]
        for k in range(count):
            sentence, _ = accept_sentence(lo + (hi - lo) * k // max(1, count - 1))
            shapes["accept"].append(len(sentence))
            ops.append(accept_op(sentence))
        for _ in range(sizes["nearmiss"]):
            sentence, st = nearmiss_sentence()
            shapes["nearmiss"].append(len(sentence))
            ops.append(reject_op("reject-nearmiss", sentence))
        for length in sizes["alternating"]:
            shapes["alternating"].append(length)
            ops.append(reject_op(f"reject-alt{length}", alternating(length)))
        sentence, st = ambiguous_sentence()
        shapes["ambiguous"].append((len(sentence), st["proofs"]))
        ops.append(ambiguous_op(sentence, st))
        return ops

    rounds = _rounds(rng, sizes["rounds"], make_round)
    info = {
        "lexicon_entries": len(entries),
        "accept_words": f"{min(shapes['accept'])}-{max(shapes['accept'])}",
        "nearmiss_words": f"{min(shapes['nearmiss'])}-{max(shapes['nearmiss'])}",
        "alternating_words": sorted(set(shapes["alternating"])),
        "ambiguous_words_proofs": shapes["ambiguous"],
    }
    return Workload(rounds, info, None, _smoke_warmup(build_grammar, seed, mode, workdir, launcher))


# --- cli: whole command runs as subprocesses --------------------------------

# Sizes grow evenly from the first round to the last, so each command's
# run time spreads over a range instead of sitting at one value: the
# latency quantiles then move smoothly when the host's speed drifts.
CLI = {
    "full": dict(struct_n=(100, 2400), count_n=(60, 170), fold_n=(30, 60), witnesses=(5, 300),
                 enum_n=(8, 15), revcomp_n=(1000, 120000), sentence=(6, 12), rounds=4),
    "smoke": dict(struct_n=(30, 30), count_n=(20, 20), fold_n=(14, 14), witnesses=(1, 50),
                  enum_n=(8, 8), revcomp_n=(20, 20), sentence=(3, 8), rounds=1),
}


def build_cli(seed: int, mode: str, workdir: Path, launcher: Launcher) -> Workload:
    rng = random.Random(f"cli:{seed}")
    sizes = CLI[mode]
    lexicon_path = workdir / "lexicon.yaml"
    lexicon_path.write_text(_lexicon(rng)[2], encoding="utf-8")
    lexicon = ddna.load_lexicon_file(str(lexicon_path))
    goal = parse_type("s")
    sentences = _Sentences(rng)

    def rel(path: Path) -> str:
        return str(path.relative_to(ROOT))

    def cli_op(command: str, args: list[str], stdout: str, code: int = 0, stderr: str | None = None) -> Op:
        def run(tr: Tracer) -> Result:
            with tr.span(f"cli.{command}"):
                proc = launcher.run(["-m", "ddna.cli", *args])
            out = proc.stdout.decode("utf-8", "replace")
            err = proc.stderr.decode("utf-8", "replace")

            def check() -> Problems:
                problems = _same("exit code", proc.returncode, code) + _same("stdout", out, stdout)
                if stderr is not None:
                    problems += _same("stderr", err, stderr)
                return problems

            return (lambda: f"{proc.returncode}\n{out}"), check

        return Op(command, run)

    def make_round(r: int) -> list[Op]:
        def size(name: str) -> int:
            lo, hi = sizes[name]
            return lo + (hi - lo) * r // max(1, sizes["rounds"] - 1)

        base = workdir / f"r{r}"
        base.mkdir(exist_ok=True)
        n = size("struct_n")
        word, arcs = gen.dense_structure(rng, n, n * 3 // 8)
        s_path = base / "s.dbn"
        s_path.write_text(gen.dotbracket_text(word, arcs), encoding="utf-8")
        structure = SecondaryStructure(word, frozenset(arcs))
        f_raw = gen.unbend_raw(word, arcs, n // 2)
        g_word, g_arcs = gen.bent_from_source(rng, f_raw[1], 6)
        g_raw = gen.unbend_raw(g_word, g_arcs, len(f_raw[1]))
        f_path, g_path, bad_path = base / "f.ddna", base / "g.ddna", base / "bad.ddna"
        f_path.write_text(gen.ddna_text(*f_raw), encoding="utf-8")
        g_path.write_text(gen.ddna_text(*g_raw), encoding="utf-8")
        source, target, through, sarcs, tarcs = f_raw
        bad_raw = (source, target, through, sorted(set(sarcs) | set(_random_arcs(rng, len(source), 3))), tarcs)
        bad_path.write_text(gen.ddna_text(*bad_raw), encoding="utf-8")
        f, g = Diagram(*f_raw), Diagram(*g_raw)
        bad_violations = validate(Diagram.unchecked(*bad_raw))
        composite, report = compose(f, g)
        count_word = gen.random_word(rng, size("count_n"))
        fold_n = size("fold_n")
        fold_word = _fold_word(rng, dict(fold_n=(fold_n, fold_n), witnesses=sizes["witnesses"]))[0]
        bonds, witnesses = max_bond(fold_word, FoldConfig(THETA))
        enum_word = gen.random_word(rng, size("enum_n"))
        rc_word = gen.random_word(rng, size("revcomp_n"))
        while True:
            sentence = sentences.sentence(rng.randint(1, 2))
            if sizes["sentence"][0] <= len(sentence) <= sizes["sentence"][1]:
                proof = find_reduction([lexicon.entries[w].type for w in sentence], goal)
                if proof is not None:
                    break
        meant = meaning(sentence, goal, lexicon)[0]
        lex = ["--lexicon", rel(lexicon_path), "--goal", "s"]
        theta = ["--theta", str(THETA)]
        return [
            cli_op("revcomp", ["revcomp", rc_word], ddna.reverse_complement(rc_word) + "\n"),
            cli_op("validate", ["validate", rel(f_path)], "ok\n"),
            cli_op(
                "validate-invalid",
                ["validate", rel(bad_path)],
                "",
                1,
                "".join(f"{v}\n" for v in bad_violations)
                + f"ddna: {rel(bad_path)}: {len(bad_violations)} violation(s)\n",
            ),
            cli_op("count", ["count", count_word, *theta], f"{count_structures(count_word, FoldConfig(THETA))}\n"),
            cli_op(
                "fold",
                ["fold", fold_word, *theta],
                "\n".join([f"max_bonds: {bonds}\n"] + [emit_dotbracket(s) for s in witnesses]),
            ),
            cli_op(
                "enumerate",
                ["enumerate", enum_word, *theta],
                "\n".join(emit_dotbracket(s) for s in enumerate_structures(enum_word, FoldConfig(THETA))),
            ),
            cli_op(
                "compose",
                ["compose", rel(f_path), rel(g_path), "--report"],
                emit_ddna(composite),
                0,
                format_report(report),
            ),
            cli_op("bend", ["bend", rel(f_path)], emit_dotbracket(bend(f))),
            cli_op(
                "unbend",
                ["unbend", rel(s_path), "--source-len", str(n // 2)],
                emit_ddna(unbend(structure, n // 2)),
            ),
            cli_op("parse", ["parse", *sentence, *lex], _proof_text(proof)),
            cli_op("meaning", ["meaning", *sentence, *lex], emit_dotbracket(meant)),
            cli_op("render-svg", ["render", rel(s_path)], render_structure_svg(structure)),
            cli_op("render-text", ["render", rel(s_path), "--format", "text"], render_structure_text(structure)),
        ]

    rounds = _rounds(rng, sizes["rounds"], make_round)
    info = {k: v for k, v in sizes.items() if k != "rounds"}
    # Any command imports every ddna module, so one run compiles them all.
    return Workload(rounds, info, None, rounds[0][:1])


def build_library(seed: int, mode: str, workdir: Path, launcher: Launcher) -> Workload:
    """fold, diagram and grammar in one process, round by round."""
    parts = [build(seed, mode, workdir, launcher) for build in (build_fold, build_diagram, build_grammar)]
    rng = random.Random(f"library:{seed}")
    rounds = []
    for batches in zip(*(p.rounds for p in parts)):
        merged = [op for batch in batches for op in batch]
        rng.shuffle(merged)
        rounds.append(merged)
    info = {name: p.info for name, p in zip(("fold", "diagram", "grammar"), parts)}
    return Workload(rounds, info, parts[0].probe, [op for p in parts for op in p.warmup])


BUILDERS = {
    "library": build_library,
    "cli": build_cli,
}
