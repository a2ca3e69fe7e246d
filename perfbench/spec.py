"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is written from this module by
``python3 perfbench/run.py --write-spec``, so the two cannot drift apart.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 45
DEFAULT_SEED = 0
SETUP_REPS = 5
# Seconds the calibration kernel (run.calibrate) takes at the reference host
# speed that every end-to-end time is scaled to.
CALIBRATION_REF_S = 0.55e-3

# name -> why (one line; the input sizes and known seed defects are in it
# because BENCHMARK.json has no other place for them).
WORKLOADS = {
    "library": (
        "in-process fold+diagram+grammar mix: count n150-260, fold n55-70, AT*10 fold, n2000 "
        "validate/compose/render, 22-24 word exponential rejects; fold-long probe fails on seed"
    ),
    "cli": (
        "13 ddna commands run one at a time as subprocesses on small to moderate inputs (n100-2400); "
        "interpreter start, imports (eager yaml) and argparse dominate"
    ),
}

# name -> (unit, better, bound, definition)
END_TO_END = {
    "ops_per_s": (
        "ops/s",
        "higher",
        0.1,
        "successful ops / summed scaled time of the ops (checks between ops are not timed)",
    ),
    "op_p50_ms": ("ms", "lower", 0.25, "median scaled latency of successful ops"),
    "op_p90_ms": ("ms", "lower", 0.2, "p90 scaled latency of successful ops"),
    "peak_rss_mb": (
        "MB",
        "lower",
        0.05,
        "max RSS of the benchmark process before the fold-long probe; on cli, of the largest child",
    ),
    "setup_s": (
        "s",
        "lower",
        0.25,
        "import of ddna plus the median of "
        f"{SETUP_REPS} set-ups (generate and write inputs, warm up on every op kind at smoke size)",
    ),
}

# Reported in the human-readable lines only: it is 0 on a healthy run, and
# BENCHMARK.json metrics must never be 0.
FAILED_FRAC = ("ratio", "failed ops / attempted ops")

CLI_COMMANDS = (
    "revcomp",
    "validate",
    "validate-invalid",
    "count",
    "fold",
    "enumerate",
    "compose",
    "bend",
    "unbend",
    "parse",
    "meaning",
    "render-svg",
    "render-text",
)

# name -> (unit, definition).  "ms" and "us" stats are medians per call over
# the traced run; counts are totals over one pass of the seeded op cycle and
# repeat exactly for a seed.  A layer a workload does not run reads 0.
# Only diagram.routes_agree is better when higher; the counts are work or
# output sizes, and the output sizes must not change at all.
PER_LAYER = {
    "core.SecondaryStructure.ms": ("ms", "constructor on an 800-arc structure"),
    "core.structure_violations.ms": ("ms", "on valid input"),
    "core.structure_violations.invalid_ms": ("ms", "on invalid input, listing every violation"),
    "core.parse_dotbracket.ms": ("ms", "n2000 structure text"),
    "core.emit_dotbracket.ms": ("ms", "per structure emitted by fold and enumerate ops"),
    "core.arcs": ("count", "arcs in the structures the ops returned"),
    "core.violations": ("count", "violations the validators listed"),
    "structures.count_structures.ms": ("ms", "per count_structures call"),
    "structures.dp_cells": ("count", "interval cells n(n+1)/2 over the count ops"),
    "structures.max_bond.ms": ("ms", "per max_bond call"),
    "structures.max_bond.us_per_witness": ("us", "max_bond time / witnesses returned"),
    "structures.max_bond.witnesses": ("count", "witnesses returned by the fold ops"),
    "structures.max_bond.peak_mb": ("MB", "tracemalloc peak of max_bond('AT'*10, theta=0)"),
    "structures.max_bond.long_failed": ("count", "1 when the fold-long probe raised"),
    "structures.enumerate_structures.first_ms": ("ms", "generator creation to first structure"),
    "structures.enumerate_structures.us_per_structure": ("us", "each later structure"),
    "diagram.parse_ddna.ms": ("ms", "n2000 diagram text"),
    "diagram.emit_ddna.ms": ("ms", "n2000 diagram"),
    "diagram.validate.ms": ("ms", "on a valid diagram"),
    "diagram.validate.invalid_ms": ("ms", "on an invalid diagram, listing every violation"),
    "diagram.bend.ms": ("ms", "n2000 diagram (bend ops, not meaning's bends)"),
    "diagram.unbend.ms": ("ms", "n2000 structure"),
    "diagram.compose.ms": ("ms", "n2000 pair (compose ops, not snakes or meaning)"),
    "diagram.zip_and_transfer.ms": ("ms", "per zip_and_transfer call"),
    "diagram.evaluation.ms": ("ms", "|w|2000 (evaluation ops, not snakes)"),
    "diagram.compose.edges": ("count", "edges of the gluing graphs"),
    "diagram.compose.closed_loops": ("count", "closed loops erased"),
    "diagram.routes_agree": ("ratio", "zip_and_transfer equal to bend of compose; must be 1"),
    "pregroup.load_lexicon.ms": ("ms", "30-entry lexicon"),
    "pregroup.find_reduction.accept_ms": ("ms", "grammatical sentences"),
    "pregroup.find_reduction.reject_ms": ("ms", "alternating n / n^r n n^l sentences (exponential)"),
    "pregroup.find_reduction.nearmiss_ms": ("ms", "near-misses of grammatical sentences"),
    "pregroup.functor_reduction.ms": ("ms", "per functor_reduction call"),
    "pregroup.meaning.ms": ("ms", "per meaning, all its steps"),
    "pregroup.all_reductions.first_ms": ("ms", "generator creation to first proof"),
    "pregroup.all_reductions.us_per_proof": ("us", "each later proof"),
    "pregroup.all_reductions.proofs": ("count", "proofs of the ambiguous sentences"),
    "pregroup.terms": ("count", "simple terms in the searched sentences"),
    "render.render_structure_svg.ms": ("ms", "|w|1000 duplex"),
    "render.render_structure_text.ms": ("ms", "n2000 structure"),
    "render.render_diagram_svg.ms": ("ms", "n2000 diagram"),
    "render.svg_kb": ("KB", "SVG text produced"),
    "cli.python_floor_ms": ("ms", "python -c pass; ddna cannot move it"),
    "cli.import_ms": ("ms", "python -c 'import ddna.cli' minus the floor"),
    **{f"cli.{c}.ms": ("ms", f"whole ddna {c} run") for c in CLI_COMMANDS},
    "trace.overhead_frac": ("ratio", "traced op time / untraced op time of one cycle, minus 1"),
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if n == "diagram.routes_agree" else "lower"}
            for n, (u, _) in PER_LAYER.items()
        ],
    }
