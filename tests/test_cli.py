import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from ddna.cli import main
from _oracles import FIXTURES, HOSTILE_LEXICONS, fixture_text

# ``main`` in a fresh interpreter, with PyYAML's libyaml loader or without it.
RUN_MAIN = """
import sys, yaml
if sys.argv.pop(1) == "pure":
    del yaml.CSafeLoader
from ddna.cli import main
sys.exit(main(sys.argv[1:]))
"""
CLI_HOSTILE_LEXICONS = {
    **HOSTILE_LEXICONS,
    "flow-30000-deep": (
        "theta: " + "[" * 30_000 + "]" * 30_000 + "\n",
        "lexicon nests deeper than 8 levels (line 1)",
    ),
}


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRevcomp:
    def test_word(self, capsys):
        assert run(capsys, "revcomp", "ACG") == (0, "CGT\n", "")

    @pytest.mark.parametrize("empty", ["", "-"])
    def test_empty_word(self, capsys, empty):
        assert run(capsys, "revcomp", empty) == (0, "\n", "")

    def test_bad_alphabet(self, capsys):
        code, out, err = run(capsys, "revcomp", "ACGX")
        assert code == 1 and out == "" and "invalid letters" in err


class TestValidate:
    def test_ok_files(self, capsys):
        for name in ("stack_upper.ddna", "hairpin.dbn", "displacement_invader.ddna"):
            code, out, _ = run(capsys, "validate", FIXTURES / name)
            assert (code, out) == (0, "ok\n"), name

    def test_crossing_arcs_listed(self, capsys, tmp_path):
        bad = tmp_path / "bad.ddna"
        bad.write_text("ATAT\n-\nS 1 3\nS 2 4\n")
        code, out, err = run(capsys, "validate", bad)
        assert code == 1 and out == ""
        assert "arc-arc-crossing" in err and "(1,3)" in err

    def test_dotbracket_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.dbn"
        bad.write_text("ACGT\n.(.)\n")
        code, _, err = run(capsys, "validate", bad)
        assert code == 1 and "complementarity" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.ddna")
        assert code == 1 and "no-such-file" in err


class TestCompose:
    def test_stacking_instance(self, capsys):
        code, out, err = run(
            capsys, "compose", FIXTURES / "stack_upper.ddna", FIXTURES / "stack_lower.ddna"
        )
        assert code == 0 and err == ""
        assert out == fixture_text("stack_composite.ddna")

    def test_report_goes_to_stderr(self, capsys):
        code, out, err = run(
            capsys,
            "compose",
            FIXTURES / "displacement_substrate.ddna",
            FIXTURES / "displacement_invader.ddna",
            "--report",
        )
        assert code == 0
        assert out == "TCTCTC\n-\n"
        assert "dangled_endpoints: 6" in err

    def test_identity_law_via_files(self, capsys, tmp_path):
        f = fixture_text("bend_input.ddna")
        upper = tmp_path / "id.ddna"
        upper.write_text("ATCGC\nATCGC\nT 1 1\nT 2 2\nT 3 3\nT 4 4\nT 5 5\n")
        code, out, _ = run(capsys, "compose", upper, FIXTURES / "bend_input.ddna")
        assert code == 0 and out == f

    def test_interface_mismatch_names_both_words(self, capsys):
        code, _, err = run(
            capsys, "compose", FIXTURES / "stack_upper.ddna", FIXTURES / "stack_upper.ddna"
        )
        assert code == 1
        assert "ACGATCGATCGATC" in err and "ACCATGGACT" in err

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "composite.ddna"
        code, out, _ = run(
            capsys,
            "compose",
            FIXTURES / "stack_upper.ddna",
            FIXTURES / "stack_lower.ddna",
            "-o",
            out_path,
        )
        assert code == 0 and out == ""
        assert out_path.read_text() == fixture_text("stack_composite.ddna")


class TestBendUnbend:
    def test_bend_instance(self, capsys):
        code, out, _ = run(capsys, "bend", FIXTURES / "bend_input.ddna")
        assert code == 0 and out == fixture_text("bend_straightened.dbn")

    def test_unbend_instance(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "unbend", FIXTURES / "bend_straightened.dbn", "--source-len", "5"
        )
        assert code == 0 and out == fixture_text("bend_input.ddna")

    def test_file_roundtrip(self, capsys, tmp_path):
        bent = tmp_path / "s.dbn"
        code, out, _ = run(capsys, "bend", FIXTURES / "stack_upper.ddna")
        bent.write_text(out)
        code, out, _ = run(capsys, "unbend", bent, "--source-len", "10")
        assert code == 0 and out == fixture_text("stack_upper.ddna")

    def test_unbend_source_len_zero(self, capsys):
        code, out, _ = run(
            capsys, "unbend", FIXTURES / "hairpin.dbn", "--source-len", "0"
        )
        assert code == 0
        assert out.startswith("-\nACGTAGGGTACGT\n") and "A 1 13" in out


class TestFolding:
    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "ACGT")
        assert code == 0
        records = out.strip().split("\n\n")
        assert len(records) == 4
        assert records[0] == "ACGT\n...."

    def test_count(self, capsys):
        assert run(capsys, "count", "ACGT") == (0, "4\n", "")
        assert run(capsys, "count", "") == (0, "1\n", "")

    def test_count_respects_theta_flag_and_env(self, capsys, monkeypatch):
        assert run(capsys, "count", "ACGT", "--theta", "3") == (0, "1\n", "")
        monkeypatch.setenv("DDNA_THETA", "3")
        assert run(capsys, "count", "ACGT") == (0, "1\n", "")
        monkeypatch.setenv("DDNA_THETA", "nope")
        code, _, err = run(capsys, "count", "ACGT")
        assert code == 1 and "DDNA_THETA" in err
        monkeypatch.setenv("DDNA_THETA", "-1")
        assert run(capsys, "count", "ACGT") == (1, "", "ddna: DDNA_THETA must be >= 0\n")

    @pytest.mark.parametrize(
        "raw",
        [
            "1_0",
            "+3",
            "٣",
            " 3",
            "-",
            "",
            # Past the interpreter's digit limit, int() raises its own ValueError.
            pytest.param(
                "9" * 5000,
                id="5000-digits",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
                ),
            ),
        ],
    )
    def test_integers_are_an_optional_minus_and_ascii_digits(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("DDNA_THETA", raw)
        assert run(capsys, "fold", "ACGTAGGGTACGT") == (
            1,
            "",
            f"ddna: DDNA_THETA must be an integer, got {raw!r}\n",
        )
        monkeypatch.delenv("DDNA_THETA")
        for argv in (
            ["count", "ACGT", "--theta", raw],
            ["unbend", FIXTURES / "hairpin.dbn", "--source-len", raw],
        ):
            with pytest.raises(SystemExit) as exit_:
                run(capsys, *argv)
            assert exit_.value.code == 2
            assert f"invalid int value: {raw!r}" in capsys.readouterr().err

    def test_theta_keeps_negative_and_zero_padded_values(self, capsys, monkeypatch):
        code, out, err = run(capsys, "count", "ACGT", "--theta", "-1")
        assert (code, out) == (1, "") and "min_loop must be a nonnegative integer" in err
        assert run(capsys, "count", "ACGT", "--theta", "03") == (0, "1\n", "")
        monkeypatch.setenv("DDNA_THETA", "-0")
        assert run(capsys, "count", "ACGT") == (0, "4\n", "")
        code, out, _ = run(capsys, "unbend", FIXTURES / "hairpin.dbn", "--source-len", "00")
        assert code == 0 and out.startswith("-\nACGTAGGGTACGT\n")

    def test_fold_finds_hairpin(self, capsys):
        code, out, _ = run(capsys, "fold", "ACGTAGGGTACGT", "--theta", "3")
        assert code == 0
        assert out.startswith("max_bonds: 5\n")
        assert "(((((...)))))" in out

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "count", "AXG")
        assert code == 1 and "invalid letters" in err

    def test_enumerate_bad_word_writes_no_file(self, capsys, tmp_path):
        target = tmp_path / "out.dbn"
        code, out, err = run(capsys, "enumerate", "AXT", "-o", target)
        assert code == 1 and out == "" and "invalid letters" in err
        assert not target.exists()

    def test_fold_long_word_without_pairs(self, capsys):
        word = "A" * 1500
        assert run(capsys, "fold", word) == (0, f"max_bonds: 0\n\n{word}\n{'.' * 1500}\n", "")


class TestGrammar:
    def test_parse_sentence(self, capsys):
        code, out, _ = run(
            capsys,
            "parse",
            "Cats",
            "chase",
            "mice",
            "--lexicon",
            FIXTURES / "lexicon.yaml",
            "--goal",
            "s",
        )
        assert code == 0
        assert out == "links: (1,2) (4,5)\nsurvivors: 3\n"

    def test_parse_single_word(self, capsys):
        code, out, _ = run(
            capsys, "parse", "Cats", "--lexicon", FIXTURES / "lexicon.yaml", "--goal", "n"
        )
        assert code == 0 and out == "links: -\nsurvivors: 1\n"

    def test_parse_all_proofs(self, capsys):
        code, out, _ = run(
            capsys,
            "parse",
            "Cats",
            "mice",
            "--lexicon",
            FIXTURES / "lexicon.yaml",
            "--goal",
            "n n",
            "--all-proofs",
        )
        assert code == 0 and out.count("links:") == 1

    def test_parse_ungrammatical(self, capsys):
        code, _, err = run(
            capsys,
            "parse",
            "Cats",
            "Cats",
            "--lexicon",
            FIXTURES / "lexicon.yaml",
            "--goal",
            "s",
        )
        assert code == 1 and "no reduction" in err

    def test_meaning_sentence(self, capsys):
        code, out, err = run(
            capsys,
            "meaning",
            "Cats",
            "chase",
            "mice",
            "--lexicon",
            FIXTURES / "lexicon.yaml",
            "--goal",
            "s",
            "--report",
        )
        assert code == 0
        assert out == fixture_text("meaning_sentence.dbn")
        assert "closed_loops: 2" in err

    def test_meaning_single_word_is_lexical_state(self, capsys):
        code, out, _ = run(
            capsys,
            "meaning",
            "Cats",
            "--lexicon",
            FIXTURES / "lexicon.yaml",
            "--goal",
            "n",
        )
        assert code == 0 and out == "AGGAACTGGAAG\n((...)).....\n"

    def test_meaning_unknown_word(self, capsys):
        code, _, err = run(
            capsys,
            "meaning",
            "dogs",
            "--lexicon",
            FIXTURES / "lexicon.yaml",
            "--goal",
            "n",
        )
        assert code == 1 and "dogs" in err

    @pytest.mark.parametrize("command", ["parse", "meaning"])
    def test_unknown_word_message(self, capsys, command):
        code, out, err = run(
            capsys, command, "Cats", "x", "--lexicon", FIXTURES / "lexicon.yaml", "--goal", "s"
        )
        assert (code, out, err) == (1, "", "ddna: unknown vocabulary word 'x'\n")

    def test_parse_all_proofs_in_order(self, capsys, tmp_path):
        lexicon = tmp_path / "lexicon.yaml"
        lexicon.write_text('types: {a: ACG}\nentries:\n  x: {type: "a a^r", structure: "......"}\n')
        code, out, _ = run(
            capsys, "parse", "x", "x", "--lexicon", lexicon, "--goal", "a a^r", "--all-proofs"
        )
        assert code == 0
        assert out == "links: (1,2)\nsurvivors: 3 4\n\nlinks: (3,4)\nsurvivors: 1 2\n"

    def test_long_chain_parses_and_means(self, capsys, tmp_path):
        # 1,100 linked pairs: a traceback and exit 1 while the search recursed per link.
        lexicon = tmp_path / "lexicon.yaml"
        lexicon.write_text(
            "types: {a: ACG}\nentries:\n"
            '  x: {type: a, structure: "..."}\n  y: {type: a^r, structure: "..."}\n'
        )
        words = ["x", "y"] * 1100
        links = " ".join(f"({2 * i - 1},{2 * i})" for i in range(1, 1101))
        assert run(capsys, "parse", *words, "--lexicon", lexicon, "--goal", "1") == (
            0,
            f"links: {links}\nsurvivors: -\n",
            "",
        )
        code, _, err = run(capsys, "meaning", *words, "--lexicon", lexicon, "--goal", "1")
        assert (code, err) == (0, "")

    def test_parse_ungrammatical_writes_no_file(self, capsys, tmp_path):
        target = tmp_path / "proofs.txt"
        for extra in ([], ["--all-proofs"]):
            code, _, err = run(
                capsys,
                "parse",
                "Cats",
                "Cats",
                "--lexicon",
                FIXTURES / "lexicon.yaml",
                "--goal",
                "s",
                "-o",
                target,
                *extra,
            )
            assert code == 1 and "no reduction" in err
            assert not target.exists()


class TestRender:
    def test_svg_structure(self, capsys):
        code, out, _ = run(capsys, "render", FIXTURES / "hairpin.dbn")
        assert code == 0
        ET.fromstring(out)

    def test_svg_diagram_with_style(self, capsys):
        code, out, _ = run(
            capsys,
            "render",
            FIXTURES / "rectangle.ddna",
            "--at-color",
            "#ff0000",
            "--arrows",
        )
        assert code == 0 and "#ff0000" in out
        ET.fromstring(out)

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--spacing", "nan", "finite and positive"),
            ("--arc-height", "inf", "finite and positive"),
            ("--at-color", '"/><script>', "may not contain"),
        ],
    )
    def test_bad_style_is_an_error_and_writes_nothing(self, capsys, tmp_path, option, value, message):
        target = tmp_path / "out.svg"
        code, out, err = run(
            capsys, "render", FIXTURES / "hairpin.dbn", option, value, "-o", target
        )
        assert code == 1 and out == ""
        assert err.startswith("ddna: ") and message in err
        assert not target.exists()

    @pytest.mark.parametrize("name", ["hairpin.dbn", "rectangle.ddna"])
    @pytest.mark.parametrize("option", ["--spacing", "--arc-height"])
    def test_style_too_large_to_draw_is_an_error(self, capsys, tmp_path, name, option):
        target = tmp_path / "out.svg"
        code, out, err = run(capsys, "render", FIXTURES / name, option, "1e308", "-o", target)
        assert code == 1 and out == ""
        assert err.startswith("ddna: ") and "not finite" in err
        assert not target.exists()

    def test_text_structure(self, capsys):
        code, out, _ = run(capsys, "render", FIXTURES / "hairpin.dbn", "--format", "text")
        assert code == 0 and out.splitlines()[1] == "(((((...)))))"

    def test_text_of_diagram_rejected(self, capsys):
        code, _, err = run(
            capsys, "render", FIXTURES / "rectangle.ddna", "--format", "text"
        )
        assert code == 1 and "structures" in err


class TestErrorBoundary:
    """Every failure is one ``ddna:`` line on stderr and exit code 1."""

    @staticmethod
    def assert_one_line_error(code, out, err):
        assert code == 1 and out == ""
        assert err.startswith("ddna: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_output_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "revcomp", "ACG", "-o", target)
        self.assert_one_line_error(code, out, err)
        assert "No such file or directory" in err and not target.exists()

    def test_validate_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.dbn"
        bad.write_bytes(b"AC\xff\n..\n")
        code, out, err = run(capsys, "validate", bad)
        self.assert_one_line_error(code, out, err)
        assert f"{bad}: 'utf-8' codec" in err

    def test_parse_non_utf8_lexicon(self, capsys, tmp_path):
        bad = tmp_path / "lexicon.yaml"
        bad.write_bytes(fixture_text("lexicon.yaml").encode() + b"\xff\n")
        code, out, err = run(capsys, "parse", "Cats", "--lexicon", bad, "--goal", "n")
        self.assert_one_line_error(code, out, err)
        assert f"{bad}: 'utf-8' codec" in err

    def test_lexicon_type_word_with_bad_letters(self, capsys, tmp_path):
        bad = tmp_path / "lexicon.yaml"
        bad.write_text("types: {n: AXG}\nentries: {}\n")
        code, out, err = run(capsys, "parse", "Cats", "--lexicon", bad, "--goal", "n")
        self.assert_one_line_error(code, out, err)
        assert f"{bad}: invalid letters" in err

    def test_lexicon_entry_with_null_structure(self, capsys, tmp_path):
        bad = tmp_path / "lexicon.yaml"
        bad.write_text("types: {n: AT}\nentries:\n  Cats: {type: n, structure: null}\n")
        code, out, err = run(capsys, "parse", "Cats", "--lexicon", bad, "--goal", "n")
        self.assert_one_line_error(code, out, err)
        assert err == f"ddna: {bad}: entry 'Cats': 'structure' must be a string, got None\n"

    @pytest.mark.parametrize("loader", ["libyaml", "pure"])
    @pytest.mark.parametrize("name", sorted(CLI_HOSTILE_LEXICONS))
    def test_hostile_lexicon_is_one_error_line(self, tmp_path, name, loader):
        # In a subprocess: libyaml's recursion used to segfault (exit 139) at
        # 30,000 levels, which would end the test run.
        text, message = CLI_HOSTILE_LEXICONS[name]
        lexicon = tmp_path / "lexicon.yaml"
        lexicon.write_text(text)
        env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent.parent / "src")}
        argv = ["parse", "Cats", "--lexicon", str(lexicon), "--goal", "n"]
        done = subprocess.run(
            [sys.executable, "-c", RUN_MAIN, loader, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        self.assert_one_line_error(done.returncode, done.stdout, done.stderr)
        assert done.stderr.startswith(f"ddna: {lexicon}: {message}")

    @pytest.mark.parametrize(
        "argv",
        [["enumerate", "ACGT" * 7], ["fold", "AT" * 12]],
        ids=["enumerate", "fold"],
    )
    def test_reader_closing_the_pipe_early_is_no_error(self, argv):
        # As `ddna fold ... | head -1` does: the reader takes one line and
        # leaves long before the listing ends.
        src = FIXTURES.parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        with subprocess.Popen(
            [sys.executable, "-m", "ddna.cli", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, b"")
