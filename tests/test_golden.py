"""Golden CLI transcripts: every subcommand on the shipped fixtures.

Each case runs ``main()`` inside ``tests/fixtures`` (so paths in messages
are bare file names) and compares ``(exit code, stdout, stderr)`` with
``tests/fixtures/golden/<name>.json``.  The transcripts pin the CLI's
output byte for byte; regenerate them only for an intended output change,
with ``python tests/test_golden.py``.  Inputs that must fail to load live
in ``tests/fixtures/broken/``, out of reach of the fixture round-trip check.
``golden/help.json`` pins the ``--help`` text of the parser and of every
subcommand, wrapped at 80 columns.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

from ddna.cli import build_parser, main
from _oracles import FIXTURES

GOLDEN = FIXTURES / "golden"
HELP_COLUMNS = 80  # argparse wraps help text to the terminal width

SENTENCE = ["Cats", "chase", "mice", "--lexicon", "lexicon.yaml", "--goal", "s"]
STYLE = [
    "--at-color",
    "#208020",
    "--cg-color",
    "purple",
    "--spacing",
    "30",
    "--arc-height",
    "12.5",
    "--arrows",
]

CASES = {
    "revcomp": ["revcomp", "ACGTTGCA"],
    "revcomp_empty": ["revcomp", "-"],
    "validate_ddna": ["validate", "stack_upper.ddna"],
    "validate_dbn": ["validate", "hairpin.dbn"],
    "compose": ["compose", "stack_upper.ddna", "stack_lower.ddna"],
    "compose_report": [
        "compose",
        "displacement_substrate.ddna",
        "displacement_invader.ddna",
        "--report",
    ],
    "compose_report_stack": ["compose", "stack_upper.ddna", "stack_lower.ddna", "--report"],
    "bend": ["bend", "bend_input.ddna"],
    "unbend": ["unbend", "bend_straightened.dbn", "--source-len", "5"],
    "enumerate": ["enumerate", "ACGTAC"],
    "count": ["count", "ACGTAGGGTACGT", "--theta", "3"],
    "fold": ["fold", "ACGTAGGGTACGT", "--theta", "3"],
    "parse": ["parse", *SENTENCE],
    "parse_all_proofs": ["parse", *SENTENCE, "--all-proofs"],
    "meaning_report": ["meaning", *SENTENCE, "--report"],
    "meaning_text": ["meaning", *SENTENCE, "--format", "text"],
    "meaning_svg": ["meaning", *SENTENCE, "--format", "svg"],
    "render_structure_svg": ["render", "hairpin.dbn"],
    "render_structure_text": ["render", "zip_result.dbn", "--format", "text"],
    "render_diagram_svg": ["render", "rectangle.ddna", "--arrows"],
    "render_structure_svg_style": ["render", "hairpin.dbn", *STYLE],
    "render_diagram_svg_style": ["render", "rectangle.ddna", *STYLE],
    "error_interface_mismatch": ["compose", "stack_upper.ddna", "stack_upper.ddna"],
    "error_no_reduction": ["parse", "Cats", "Cats", "--lexicon", "lexicon.yaml", "--goal", "s"],
    "error_missing_file": ["validate", "missing.ddna"],
    "error_bad_letters": ["revcomp", "ACGX"],
    "validate_invalid": ["validate", "broken/invalid.ddna"],
    "validate_malformed_dbn": ["validate", "broken/malformed.dbn"],
    "error_invalid_diagram": ["bend", "broken/invalid.ddna"],
    "error_malformed_ddna": ["render", "broken/malformed.ddna"],
    "error_malformed_dbn": ["unbend", "broken/malformed.dbn", "--source-len", "1"],
    "error_bad_lexicon": ["parse", "Cats", "--lexicon", "broken/bad_lexicon.yaml", "--goal", "n"],
    "error_meaning_no_reduction": [
        "meaning",
        "Cats",
        "Cats",
        "--lexicon",
        "lexicon.yaml",
        "--goal",
        "s",
    ],
}


def transcript(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_matches_golden(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert transcript(CASES[name]) == expected


def help_texts() -> dict[str, str]:
    """``format_help()`` of the top-level parser and of every subparser, by name."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    texts = {name: sub.format_help() for name, sub in subparsers.choices.items()}
    return {"ddna": parser.format_help(), **texts}


def test_help_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", str(HELP_COLUMNS))
    expected = json.loads((GOLDEN / "help.json").read_text(encoding="utf-8"))
    assert help_texts() == expected


def test_every_subcommand_is_covered():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in CASES.values()} == set(subparsers.choices)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        text = json.dumps(transcript(argv), indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
    os.environ["COLUMNS"] = str(HELP_COLUMNS)
    text = json.dumps(help_texts(), indent=1, ensure_ascii=False) + "\n"
    (GOLDEN / "help.json").write_text(text, encoding="utf-8")
