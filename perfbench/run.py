"""Seeded benchmark for ddna: two workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload library --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all            # library and cli, one process
    python3 perfbench/run.py --workload all --smoke    # tiny sizes, every op once
    python3 perfbench/run.py --write-spec              # regenerate BENCHMARK.json

``ddna`` is imported from ``src/``; nothing is installed and ``src/`` is
not touched.  The run prints one line per metric (name, value, unit,
sample count), the environment (git sha, Python, nproc, load average),
the input sizes and a digest of every output, and ends with one JSON
line::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (both listed in ``spec.py`` and ``BENCHMARK.json``).
``--out FILE`` also writes every record, traced spans included, as JSON.

Workloads (why each exists; sizes are in ``workloads.py``)
-----------------------------------------------------------
library
    Three parts, merged round by round in one process.

    fold: the ``structures`` layer.  ``count_structures`` (n 150-260,
    builds nothing), ``max_bond`` plus emitting every witness as ``ddna
    fold`` does (n 55-70, words drawn so each has 150-400 witnesses by the
    benchmark's own count), ``max_bond('AT'*10, theta=0)`` with its 16,796
    witnesses, and the first 2000 structures of n40 words from
    ``enumerate_structures`` (lazy): one layer used three ways.  The
    fold-long probe (``max_bond`` on an n1200 word over {A, G}) raises
    ``RecursionError`` at the seed; it runs once per run outside the timed
    ops, so that the timed ops never fail, and is reported as
    ``structures.max_bond.long_failed``.

    diagram: ``core``, ``diagram`` and ``render`` at n2000.  800-arc
    structures made structure-first, |w|1000 duplexes, pairs f: x->y,
    g: y->z from unbending, and invalid inputs with injected crossings,
    non-complementary arcs, degree clashes and wires under arcs.  The
    O(m^2) validators, ``_arc_depths`` and path tracing dominate.  Valid
    beside invalid input uses the validators two ways.

    grammar: the ``pregroup`` layer on a seeded 28-entry lexicon.
    ``load_lexicon``; ``find_reduction`` plus ``meaning`` on 8-25 word
    sentences; rejection of 22 and 24 word alternating ``n`` /
    ``n^r n n^l`` sentences (exponential search at the seed) and of
    near-misses; ``all_reductions`` in full on ambiguous sentences.  Proof
    counts and search work are bounded by the benchmark's own interval
    recursions.  ``meaning`` composes many small diagrams, so per-call
    overhead in ``diagram`` shows here.
cli
    Thirteen commands (revcomp, validate ok and invalid, count, fold,
    enumerate, compose --report, bend, unbend, parse, meaning, render svg
    and text) run one at a time as ``python -m ddna.cli`` subprocesses,
    with ``PYTHONPATH=src``, ``PYTHONHASHSEED=0`` and no ``DDNA_THETA``.
    Inputs are small to moderate and grow from round to round (structures
    n100-2400, count n60-170, revcomp up to 120k letters), which spreads
    the latencies so their quantiles move smoothly when the host's speed
    drifts.  Interpreter start, imports and argparse dominate: import-time
    changes move every op, asymptotic fixes only the larger ones, a little.

Every workload is closed-loop with one client: ops run back to back in a
fixed seeded order.  A cycle is a list of rounds, each round a fixed mix
of op kinds in seeded order; the timed phase repeats the cycle until the
ops have taken ``--seconds`` and the cycle has run at least once, or
until the phase has taken ``TIMED_WALL_S`` of wall time, which prints a
``# problem`` line.  The mix is chosen so that the median and p90 fall
where latencies spread smoothly, not at a gap between op kinds.

Two workloads, not four separate ones, because a shared 2-core host
drifts in speed by 10-50% over seconds to minutes: runs of 45 s or more
average much of that out, and the run budget allows that for two
workloads.

End-to-end metrics (untraced run)
---------------------------------
ops_per_s (ops/s)    successful ops / summed scaled time of the ops
op_p50_ms (ms)       median scaled latency of successful ops
op_p90_ms (ms)       p90 scaled latency of successful ops
peak_rss_mb (MB)     max RSS of this process, read after the timed ops and
                     before the fold-long probe; on cli, of the largest child
setup_s (s)          import of ddna plus the median of five set-ups, each
                     generating and writing the inputs and warming up on
                     every op kind at smoke size (bytecode, lazy set-up);
                     scaled like the ops.  Interpreter start is left out:
                     ddna cannot move it (cli.python_floor_ms tracks it)
failed_frac (ratio)  failed ops / attempted ops; printed, not in the JSON
                     metrics, because it is 0 on a healthy run

Times are wall times scaled to a reference host speed.  Between ops, off
the clock, a fixed pure-Python kernel is timed (``calibrate``); an op's
latency is divided by the host's slowness around it, the mean of the
kernel's times before and after the op over ``spec.CALIBRATION_REF_S``.
The process, its helper and the CLI children share one CPU, so the kernel
sees the speed the ops saw.  On the 2-core host the benchmark was built
on, this cut the spread between runs of one program from 10-30% to 2-6%.
The unscaled values are printed too, as ``# unscaled`` lines.

An op fails when it raises, when its output breaks an invariant the
benchmark checks itself (``oracle.py``), when its output digest differs
from the stored one for the default seed (``expected.json``) or from its
own first pass, or when a CLI run's exit code or output is wrong.
Between ops, off the clock, the runner checks outputs, collects garbage
and trims the heap, so each op starts from the same heap.

Per-layer metrics (traced run)
------------------------------
A traced run first runs each op of the first round untraced and then
traced (``trace.overhead_frac`` is the ratio of the two, minus 1), then
repeats the cycle with a span recorded around every call the benchmark
makes into a public ``ddna`` function; composite ops are split into their
steps.  ``*.ms`` and ``*.us_*`` are medians per call; counts are totals
over one cycle and repeat exactly for a seed; metrics of layers a
workload does not run read 0.  The full list with units is
``spec.PER_LAYER``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
# A timed phase stops starting ops this many wall seconds after it began,
# whatever --seconds says, so that one workload's run ends within 180 s.
TIMED_WALL_S = 120.0

import spec  # noqa: E402  (spec imports nothing from ddna)


def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


MALLOC_TRIM = _malloc_trim()


def _kernel() -> list:
    table = {}
    for i in range(500):
        table[i * 7919 % 1009, i & 7] = frozenset((i, i + 3))
    return sorted(table.items())


def calibrate() -> float:
    """The host's current slowness: measured kernel time / reference time.

    The kernel is fixed pure-Python work of the kind ddna does (tuples,
    dicts, frozensets, a sort); the faster of two runs is taken, which
    drops an interrupted one.
    """
    times = []
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return min(times) / spec.CALIBRATION_REF_S


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[*spec.WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, every op once")
    p.add_argument("--out", help="also write the full result record as JSON here")
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    p.add_argument(
        "--record-expected",
        action="store_true",
        help="store this run's output digests as the expected ones for the default seed",
    )
    return p.parse_args(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def environment() -> dict:
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            sha = ref_path.read_text().strip() if ref_path.is_file() else ref[5:]
        else:
            sha = ref
    return {
        "git": sha,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg1": os.getloadavg()[0],
    }


class Runner:
    """Runs ops of one cycle, checks their outputs, and keeps the tallies."""

    def __init__(self, workload, expected: list[str] | None):
        self.ops = workload.ops
        self.expected = expected
        self.digests: list[str | None] = [None] * len(self.ops)
        self.seen: set[tuple[int, str]] = set()  # (op object, digest) pairs checked
        self.latencies: dict[str, list[float]] = {op.kind: [] for op in self.ops}
        self.checked: dict[str, list[int]] = {op.kind: [0, 0] for op in self.ops}
        # Host-speed-scaled latencies of successful ops, in seconds.
        self.scaled: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.busy_scaled = 0.0
        self.problems: list[str] = []
        self.slowness = calibrate()

    def execute(self, i: int, tracer) -> float:
        op = self.ops[i]
        tracer.op = i
        start = time.perf_counter()
        try:
            text_of, check = op.run(tracer)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - start
            problems = [f"{type(exc).__name__}: {str(exc)[:200]}"]
        else:
            elapsed = time.perf_counter() - start
            problems = self._check(i, digest(text_of()), check)
        # Off the clock: free this op's cyclic garbage and hand freed heap
        # back to the system, so every op starts from the same heap and
        # one op's peak RSS does not stack on another's leftovers.
        gc.collect()
        if MALLOC_TRIM is not None:
            MALLOC_TRIM(0)
        # The host's speed drifts; scale by its slowness around this op.
        before, self.slowness = self.slowness, calibrate()
        scaled = elapsed / ((before + self.slowness) / 2)
        self.attempted += 1
        self.busy += elapsed
        self.busy_scaled += scaled
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"op {i} ({op.kind}): {'; '.join(problems)[:400]}")
        else:
            self.latencies[op.kind].append(elapsed)
            self.scaled.append(scaled)
        return elapsed

    def _check(self, i: int, d: str, check) -> list[str]:
        first = self.digests[i]
        if first is not None:
            return [] if d == first else [f"output digest {d} differs from first pass {first}"]
        self.digests[i] = d
        problems = []
        if (id(self.ops[i]), d) not in self.seen:
            self.seen.add((id(self.ops[i]), d))
            problems = check()
            tally = self.checked[self.ops[i].kind]
            tally[0] += not problems
            tally[1] += 1
        if self.expected is not None and self.expected[i] != d:
            problems.append(f"output digest {d} != expected {self.expected[i]}")
        return problems

    def cycle_digest(self) -> str:
        return digest("\n".join(d or "-" for d in self.digests))


def set_up(name: str, seed: int, mode: str, launcher):
    """Build the inputs and warm up, SETUP_REPS times; the median time."""
    import workloads
    from tracing import Tracer

    reps = spec.SETUP_REPS if mode == "full" else 1
    times = []
    workload = None
    for _ in range(reps):
        workload = None  # lets the collector free the previous repetition
        gc.collect()
        workdir = WORK / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        before = calibrate()
        start = time.perf_counter()
        workload = workloads.BUILDERS[name](seed, mode, workdir, launcher)
        for op in workload.warmup:
            try:
                op.run(Tracer())
            except Exception:  # the timed ops record any failure
                pass
        elapsed = time.perf_counter() - start
        times.append(elapsed / ((before + calibrate()) / 2))
    return workload, statistics.median(times)


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (exclusive method); the median for q=5."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[q - 1]


def timed_phase(runner: Runner, tracer, seconds: float) -> None:
    """Repeat the cycle until the ops took ``seconds`` and it ran once.

    Counts are taken on the first pass only.  A phase cut short by
    ``TIMED_WALL_S`` is reported as a problem; its figures stand.
    """
    n = len(runner.ops)
    start = runner.busy
    wall_start = time.perf_counter()
    i = 0
    while runner.busy - start < seconds or i < n:
        wall = time.perf_counter() - wall_start
        if wall >= TIMED_WALL_S:
            runner.problems.append(
                f"timed phase cut after {wall:.1f} s of wall time: "
                f"{runner.busy - start:.1f} s of ops, {i} ops, cycle of {n}"
            )
            break
        runner.execute(i % n, tracer)
        i += 1
        if i == n:
            tracer.counting = False
    tracer.counting = False


def cli_reference(launcher, reps: int) -> tuple[float, float]:
    """Median ms of ``python -c pass`` and of ``import ddna.cli`` beyond it."""
    floor = statistics.median(launcher.run(["-c", "pass"]).seconds for _ in range(reps))
    imp = statistics.median(launcher.run(["-c", "import ddna.cli"]).seconds for _ in range(reps))
    return floor * 1000, (imp - floor) * 1000


# Metrics whose spans are not named by dropping the suffix, or that take
# only the spans of some op kinds (kind prefixes): the same public function
# runs at very different sizes in different ops of one workload.
SPANS = {
    "core.emit_dotbracket.ms": ("core.emit_dotbracket", ("fold", "enumerate")),
    "diagram.bend.ms": ("diagram.bend", ("bend",)),
    "diagram.compose.ms": ("diagram.compose", ("compose",)),
    "diagram.evaluation.ms": ("diagram.evaluation", ("evaluation",)),
    "pregroup.find_reduction.reject_ms": ("pregroup.find_reduction.reject", ("reject-alt",)),
    "pregroup.find_reduction.nearmiss_ms": ("pregroup.find_reduction.reject", ("reject-nearmiss",)),
    "structures.enumerate_structures.us_per_structure": ("structures.enumerate_structures.rest", None),
    "pregroup.all_reductions.us_per_proof": ("pregroup.all_reductions.rest", None),
}


def layer_metrics(tracer, runner: Runner, probe: dict, overhead: float, cli_ref) -> dict:
    zip_ok, zip_checked = runner.checked.get("zip", (0, 0))
    special = {
        "structures.max_bond.us_per_witness": tracer.per_size_us("structures.max_bond"),
        "structures.max_bond.peak_mb": probe.get("peak_mb", 0.0),
        "structures.max_bond.long_failed": probe.get("long_failed", 0),
        "diagram.routes_agree": zip_ok / zip_checked if zip_checked else 0.0,
        "cli.python_floor_ms": cli_ref[0],
        "cli.import_ms": cli_ref[1],
        "trace.overhead_frac": overhead,
    }
    metrics = {}
    for name, (unit, _) in spec.PER_LAYER.items():
        if name in special:
            value = special[name]
        elif unit in ("ms", "us"):
            span, kinds = SPANS.get(name, (name[:-3], None))
            ops = runner.ops
            values = [
                ms
                for s, ms in tracer.per_call_ms(span)
                if kinds is None or ops[s.op].kind.startswith(kinds)
            ]
            value = statistics.median(values) * (1000 if unit == "us" else 1) if values else 0.0
        else:
            value = tracer.counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(name: str, args, mode: str, import_s: float, launcher) -> dict:
    from tracing import Tracer

    workload, setup_s = set_up(name, args.seed, mode, launcher)
    expected = None
    if args.seed == spec.DEFAULT_SEED and not args.record_expected:
        stored = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        expected = stored.get(mode, {}).get(name)
    runner = Runner(workload, expected)
    # The inputs live for the whole run; keep the collector from scanning them.
    gc.collect()
    gc.freeze()
    seconds = 0.0 if args.smoke else args.seconds
    tracer = Tracer()
    record: dict = {"workload": name, "seed": args.seed, "trace": args.trace, "info": workload.info}
    if args.trace:
        # The first round runs twice per op, untraced then traced, so the
        # tracing overhead is measured on neighbouring, equal work.
        untraced = traced = 0.0
        for i in range(len(workload.rounds[0])):
            untraced += runner.execute(i, tracer)
            tracer.on = True
            traced += runner.execute(i, tracer)
            tracer.on = False
        tracer.on = tracer.counting = True
        timed_phase(runner, tracer, seconds)
        probe = workload.probe(tracer) if workload.probe else {}
        cli_ref = cli_reference(launcher, 1 if args.smoke else 5)
        overhead = traced / untraced - 1 if untraced else 0.0
        metrics = layer_metrics(tracer, runner, probe, overhead, cli_ref)
    else:
        timed_phase(runner, tracer, seconds)
        # Read before the probe, whose memory is not the timed ops'.
        if name == "cli":
            peak = launcher.children_peak_rss_mb()
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe = workload.probe(tracer) if workload.probe else {}
        ok = len(runner.scaled)

        def timings(lat: list[float], busy: float) -> dict:
            lat = [x * 1000 for x in lat]
            return {
                "ops_per_s": ok / busy if busy else 0.0,
                "op_p50_ms": quantile(lat, 5),
                "op_p90_ms": quantile(lat, 9),
            }

        values = {
            **timings(runner.scaled, runner.busy_scaled),
            "peak_rss_mb": peak,
            "setup_s": import_s + setup_s,
        }
        counts = {"peak_rss_mb": 1, "setup_s": spec.SETUP_REPS if mode == "full" else 1}
        metrics = {
            m: {"value": v, "unit": spec.END_TO_END[m][0], "n": counts.get(m, ok)}
            for m, v in values.items()
        }
        record["raw"] = timings([x for v in runner.latencies.values() for x in v], runner.busy)
        record["failed_frac"] = runner.failed / runner.attempted if runner.attempted else 0.0
        record["kinds"] = {
            kind: {"n": len(v), "p50_ms": quantile([x * 1000 for x in v], 5)}
            for kind, v in runner.latencies.items()
        }
    problems = list(runner.problems) + probe.get("long_problems", [])
    record.update(
        correct=runner.failed == 0 and not probe.get("long_problems"),
        attempted=runner.attempted,
        failed=runner.failed,
        problems=problems,
        probe={k: v for k, v in probe.items() if k != "long_problems"},
        digest=runner.cycle_digest(),
        digests=runner.digests,
        metrics=metrics,
        spans=[dataclasses.astuple(s) for s in tracer.spans],
    )
    return record


def print_record(record: dict) -> None:
    name = record["workload"]
    print(f"# workload {name} seed {record['seed']} trace {record['trace']}")
    print(f"# inputs {json.dumps(record['info'])}")
    print(f"# digest {name} {record['digest']}")
    if record["probe"]:
        print(f"# probe {json.dumps(record['probe'])}")
    for kind, stat in record.get("kinds", {}).items():
        print(f"# kind {kind}: n={stat['n']} p50={stat['p50_ms']:.3f} ms")
    for problem in record["problems"]:
        print(f"# problem {problem}")
    for metric, m in record["metrics"].items():
        n = f" (n={m['n']})" if "n" in m else ""
        print(f"{name}.{metric} = {m['value']:.6g} {m['unit']}{n}")
    for metric, value in record.get("raw", {}).items():
        print(f"# unscaled {name}.{metric} = {value:.6g} {spec.END_TO_END[metric][0]}")
    if "failed_frac" in record:
        print(f"{name}.failed_frac = {record['failed_frac']:.6g} {spec.FAILED_FRAC[0]} (n={record['attempted']})")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    os.chdir(ROOT)
    from launcher import Launcher

    # One CPU for this process, the helper and every child, so that the
    # calibration between ops sees the speed of the CPU the ops ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    launcher = Launcher()  # forked while this process is still small
    try:
        return run(args, launcher)
    finally:
        launcher.close()
        shutil.rmtree(WORK, ignore_errors=True)


def run(args, launcher) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    try:
        import ddna  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import ddna from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = (time.perf_counter() - start) / calibrate()
    mode = "smoke" if args.smoke else "full"
    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print(f"# perfbench mode {mode} env {json.dumps(env)}")
    records = []
    for name in names:
        record = run_workload(name, args, mode, import_s, launcher)
        print_record(record)
        records.append(record)
    if args.record_expected and args.seed == spec.DEFAULT_SEED:
        stored = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        for r in records:
            if r["correct"]:
                stored.setdefault(mode, {})[r["workload"]] = r["digests"]
        EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "records": records}, indent=1) + "\n")
    single = len(records) == 1
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (m if single else f"{r['workload']}.{m}"): {"value": v["value"], "unit": v["unit"]}
            for r in records
            for m, v in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0" or "DDNA_THETA" in os.environ:
        # Pin hashing (set order) and drop the CLI's theta default, then
        # start again with that environment.
        env = {k: v for k, v in os.environ.items() if k != "DDNA_THETA"}
        env["PYTHONHASHSEED"] = "0"
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
