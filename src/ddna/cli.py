"""Command-line interface.

One binary, subcommand style.  Results go to standard output (or
``--output``), diagnostics to standard error; the exit code is 0 exactly
when the command succeeded semantically.  :func:`main` is the one error
boundary: a :class:`CliError`, a library ``ValueError`` or an ``OSError``
is printed as ``ddna: <message>`` with exit code 1.  A broken pipe (the
reader closed the output early, as ``| head`` does) exits 1 silently.
``.ddna`` paths hold diagrams, anything else is read as two-line
dot-bracket text.  The default ``min_loop`` comes from ``--theta`` or the
``DDNA_THETA`` environment variable.

Each command imports only the layer it runs: the module level needs just
``core`` and the standard library, so ``ddna revcomp`` never loads the
diagram, grammar, rendering or folding code, and the parser is built
without them.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext, suppress
from dataclasses import fields
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable

from .core import SecondaryStructure, emit_dotbracket, parse_dotbracket, reverse_complement

if TYPE_CHECKING:
    from .diagram import Diagram, LoopReport
    from .pregroup import ReductionProof
    from .render import RenderStyle
    from .structures import FoldConfig


class CliError(Exception):
    """Fatal command error; the message goes to stderr, exit code 1."""


def _integer(text: str) -> int:
    """An optional ``-`` and ASCII digits, the rule ``parse_ddna`` reads
    indices by; ``int()`` alone would also take ``1_0``, ``+3`` or ``٣``,
    and past the interpreter's digit limit it raises its own ``ValueError``."""
    if text.isascii() and text.removeprefix("-").isdigit():
        with suppress(ValueError):
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _default_theta() -> int:
    raw = os.environ.get("DDNA_THETA", "0")
    try:
        value = _integer(raw)
    except argparse.ArgumentTypeError:
        raise CliError(f"DDNA_THETA must be an integer, got {raw!r}") from None
    if value < 0:
        raise CliError("DDNA_THETA must be >= 0")
    return value


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write_records(records: Iterable[str], path: str | None) -> None:
    """Stream ``records`` to stdout or ``path``, with ``"\\n"`` between them."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as handle:
        for count, record in enumerate(records):
            if count:
                handle.write("\n")
            handle.write(record)


def _parser(path: str) -> Callable[[str], Diagram | SecondaryStructure]:
    if path.endswith(".ddna"):
        from .diagram import parse_ddna

        return parse_ddna
    return parse_dotbracket


def _load(path: str, parse: Callable):
    """``parse`` the file at ``path``; a parse error becomes a :class:`CliError`
    naming the path, with an invalid diagram's violations listed below it."""
    from .diagram import DiagramError

    try:
        return parse(_read(path))
    except DiagramError as exc:
        lines = "\n".join(f"  {v}" for v in exc.violations)
        raise CliError(f"{path}: invalid diagram\n{lines}") from None
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _maybe_report(report: LoopReport, wanted: bool) -> None:
    if wanted:
        from .diagram import format_report

        sys.stderr.write(format_report(report))


def _cmd_revcomp(args) -> None:
    word = "" if args.word == "-" else args.word
    _write_records([reverse_complement(word) + "\n"], args.output)


def _cmd_validate(args) -> None:
    from .diagram import DiagramError

    parse = _parser(args.path)

    def check(text: str) -> None:
        try:
            parse(text)
        except DiagramError as exc:  # listed bare, then counted
            sys.stderr.writelines(f"{violation}\n" for violation in exc.violations)
            raise CliError(f"{args.path}: {len(exc.violations)} violation(s)") from None

    _load(args.path, check)
    print("ok")


def _cmd_compose(args) -> None:
    from .diagram import compose, emit_ddna, parse_ddna

    upper, lower = (_load(path, parse_ddna) for path in (args.upper, args.lower))
    composite, report = compose(upper, lower)
    _write_records([emit_ddna(composite)], args.output)
    _maybe_report(report, args.report)


def _cmd_bend(args) -> None:
    from .diagram import bend, parse_ddna

    _write_records([emit_dotbracket(bend(_load(args.path, parse_ddna)))], args.output)


def _cmd_unbend(args) -> None:
    from .diagram import emit_ddna, unbend

    structure = _load(args.path, parse_dotbracket)
    _write_records([emit_ddna(unbend(structure, args.source_len))], args.output)


def _fold_config(args) -> FoldConfig:
    from .structures import FoldConfig

    return FoldConfig(args.theta if args.theta is not None else _default_theta())


def _cmd_enumerate(args) -> None:
    from .structures import enumerate_structures

    structures = enumerate_structures(args.word, _fold_config(args))
    _write_records(map(emit_dotbracket, structures), args.output)


def _cmd_count(args) -> None:
    from .structures import count_structures

    _write_records([f"{count_structures(args.word, _fold_config(args))}\n"], args.output)


def _cmd_fold(args) -> None:
    from .structures import max_bond_witnesses

    # Streamed, never held in a list; every witness has the maximum bond count.
    witnesses = max_bond_witnesses(args.word, _fold_config(args))
    first = next(witnesses)
    header = f"max_bonds: {len(first.arcs)}\n"
    _write_records(chain([header], map(emit_dotbracket, chain([first], witnesses))), args.output)


def _format_proof(proof: ReductionProof) -> str:
    links = " ".join(f"({p},{q})" for p, q in proof.sorted_links()) or "-"
    survivors = " ".join(str(s) for s in proof.survivors) or "-"
    return f"links: {links}\nsurvivors: {survivors}\n"


def _cmd_parse(args) -> None:
    from .pregroup import all_reductions, load_lexicon, parse_type, sentence_entries

    lexicon = _load(args.lexicon, load_lexicon)
    goal = parse_type(args.goal)
    types = [entry.type for entry in sentence_entries(lexicon, args.words)]
    proofs = all_reductions(types, goal)
    first = next(proofs, None)
    if first is None:
        raise CliError(f"no reduction of {' '.join(args.words)!r} to {args.goal!r}")
    rest = proofs if args.all_proofs else ()
    _write_records(map(_format_proof, chain([first], rest)), args.output)


def _cmd_meaning(args) -> None:
    from .pregroup import load_lexicon, meaning, parse_type

    lexicon = _load(args.lexicon, load_lexicon)
    result = meaning(args.words, parse_type(args.goal), lexicon)
    if result is None:
        raise CliError(f"no reduction of {' '.join(args.words)!r} to {args.goal!r}")
    structure, report = result
    _write_records([_formatted(structure, args)], args.output)
    _maybe_report(report, args.report)


def _style(args) -> RenderStyle:
    """The style options given; each defaults to ``argparse.SUPPRESS`` and is
    named after its field, so :class:`RenderStyle` fills in the rest."""
    from .render import RenderStyle

    given = vars(args)
    return RenderStyle(**{f.name: given[f.name] for f in fields(RenderStyle) if f.name in given})


def _formatted(value: Diagram | SecondaryStructure, args) -> str:
    """``value`` as ``args.format`` asks: dot-bracket, text art or SVG.  The
    renderer is imported only for a drawing."""
    if args.format == "dotbracket":
        return emit_dotbracket(value)
    from .render import render_diagram_svg, render_structure_svg, render_structure_text

    if args.format == "svg":
        draw = render_structure_svg if isinstance(value, SecondaryStructure) else render_diagram_svg
        return draw(value, _style(args))
    if not isinstance(value, SecondaryStructure):
        raise CliError("text rendering is for structures; use --format svg")
    return render_structure_text(value)


def _cmd_render(args) -> None:
    _write_records([_formatted(_load(args.path, _parser(args.path)), args)], args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddna",
        description="DNA words, arc diagrams, composition, folding, and grammar.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    p = command("revcomp", _cmd_revcomp, "reverse complement of a word")
    p.add_argument("word", help="DNA word ('' or '-' for the empty word)")
    p = command("validate", _cmd_validate, "check a .ddna or dot-bracket file")
    p.add_argument("path")
    p = command("compose", _cmd_compose, "stack two diagrams (upper then lower)")
    p.add_argument("upper")
    p.add_argument("lower")
    p.add_argument("--report", action="store_true", help="print the loop report to stderr")
    p = command("bend", _cmd_bend, "straighten a diagram into a structure")
    p.add_argument("path")
    p = command("unbend", _cmd_unbend, "fold a structure back into a diagram")
    p.add_argument("path")
    p.add_argument(
        "--source-len", type=_integer, required=True, help="length of the dualized prefix"
    )
    for name, func, summary in (
        ("enumerate", _cmd_enumerate, "list every structure on a word"),
        ("count", _cmd_count, "count structures without listing them"),
        ("fold", _cmd_fold, "maximum-bond structures of a word"),
    ):
        p = command(name, func, summary)
        p.add_argument("word")
        p.add_argument(
            "--theta",
            type=_integer,
            default=None,
            help="minimum unpaired slots under every arc (default: $DDNA_THETA or 0)",
        )

    p = command("parse", _cmd_parse, "find contraction proofs for a sentence")
    p.add_argument("words", nargs="+", metavar="word")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--goal", required=True, help="goal type, e.g. 's'")
    p.add_argument("--all-proofs", action="store_true")

    p = command("meaning", _cmd_meaning, "structure a sentence leaves on the goal word")
    p.add_argument("words", nargs="+", metavar="word")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--format", choices=["dotbracket", "text", "svg"], default="dotbracket")
    p.add_argument("--report", action="store_true", help="print the loop report to stderr")

    p = command("render", _cmd_render, "render a file as SVG or text art")
    p.add_argument("path")
    p.add_argument("--format", choices=["svg", "text"], default="svg")
    p.add_argument("--at-color", default=argparse.SUPPRESS)
    p.add_argument("--cg-color", default=argparse.SUPPRESS)
    p.add_argument("--spacing", type=float, default=argparse.SUPPRESS)
    p.add_argument("--arc-height", type=float, default=argparse.SUPPRESS)
    p.add_argument(
        "--arrows",
        action="store_true",
        dest="show_direction_arrows",
        default=argparse.SUPPRESS,
        help="draw 5'-to-3' direction arrows",
    )

    for name, p in sub.choices.items():  # every command but validate writes a result
        if name != "validate":
            p.add_argument("--output", "-o", default=None, help="write here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # The reader left early, as ``ddna fold ... | head`` does: stop
        # quietly, and send what is still buffered to devnull at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, ValueError, OSError) as exc:
        sys.stderr.write(f"ddna: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
