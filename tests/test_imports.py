"""Import footprint: each subcommand loads only the layer it runs.

Every case runs one command in a fresh interpreter (``python -c``, inside
``tests/fixtures``) and compares the ``ddna`` modules in ``sys.modules``
afterwards with the exact set that command needs.  The ``ddna`` package
itself loads a public name's home module on first use.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ddna
from _oracles import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import contextlib, io, json, sys
{setup}
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "ddna")]))
"""
RUN_MAIN = """
from ddna.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
"""

SENTENCE = ["Cats", "chase", "mice", "--lexicon", "lexicon.yaml", "--goal", "s"]
CLI = {"ddna", "ddna.cli", "ddna.core"}
FOLD = CLI | {"ddna.structures"}
DIAGRAM = CLI | {"ddna.diagram"}
RENDER = DIAGRAM | {"ddna.render"}
GRAMMAR = DIAGRAM | {"ddna.pregroup"}

CASES = {
    "revcomp": (["revcomp", "ACGTTGCA"], CLI),
    "count": (["count", "ACGTAGGGTACGT", "--theta", "3"], FOLD),
    "fold": (["fold", "ACGTAGGGTACGT", "--theta", "3"], FOLD),
    "enumerate": (["enumerate", "ACGTAC"], FOLD),
    "validate_ddna": (["validate", "stack_upper.ddna"], DIAGRAM),
    "validate_dbn": (["validate", "hairpin.dbn"], DIAGRAM),
    "compose": (["compose", "stack_upper.ddna", "stack_lower.ddna", "--report"], DIAGRAM),
    "bend": (["bend", "bend_input.ddna"], DIAGRAM),
    "unbend": (["unbend", "bend_straightened.dbn", "--source-len", "5"], DIAGRAM),
    "render_structure_svg": (["render", "hairpin.dbn", "--spacing", "30"], RENDER),
    "render_structure_text": (["render", "zip_result.dbn", "--format", "text"], RENDER),
    "render_diagram_svg": (["render", "rectangle.ddna", "--arrows"], RENDER),
    "parse": (["parse", *SENTENCE], GRAMMAR),
    "meaning": (["meaning", *SENTENCE, "--report"], GRAMMAR),
    "meaning_svg": (["meaning", *SENTENCE, "--format", "svg"], GRAMMAR | {"ddna.render"}),
}


def probe(setup: str, *argv: str) -> tuple[int | None, set[str]]:
    """Exit code and ``ddna`` modules loaded after running ``setup`` fresh."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("DDNA_THETA", None)
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(setup=setup), *argv],
        cwd=FIXTURES,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_loads_only_its_layer(name):
    argv, expected = CASES[name]
    assert probe(RUN_MAIN, *argv) == (0, expected)


def test_import_ddna_loads_no_submodule():
    assert probe("import ddna\ncode = None") == (None, {"ddna"})


def test_public_names_are_their_home_objects():
    for module, names in ddna._EXPORTS.items():
        home = importlib.import_module(f"ddna.{module}")
        for name in names:
            assert getattr(ddna, name) is getattr(home, name), name
    assert len(ddna.__all__) == sum(map(len, ddna._EXPORTS.values()))  # one home per name


def test_dir_lists_the_public_names():
    listed = dir(ddna)
    assert "__all__" in listed and set(ddna.__all__) <= set(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ddna.no_such_name
    with pytest.raises(ImportError):
        from ddna import no_such_name  # noqa: F401


@pytest.mark.parametrize("path", sorted(SRC.glob("ddna/*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """Each name a module imports (``from __future__`` aside) is read somewhere in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []


@pytest.mark.parametrize("path", sorted(SRC.glob("ddna/*.py")), ids=lambda p: p.name)
def test_every_private_module_name_is_read(path):
    """Each ``_name`` a module defines at top level -- function, class or
    assigned value -- is read somewhere in it, so no dead helper is left."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defined += [
                    (name.id, name.lineno) for name in ast.walk(target) if isinstance(name, ast.Name)
                ]
    unread = [
        f"{path.name}:{line} {name}"
        for name, line in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert unread == []
