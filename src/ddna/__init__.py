"""DNA arc-diagram calculus.

Words over {A, C, G, T} with reverse-complement duality, typed
noncrossing matchings between them, composition by gluing with loop
erasure, the bending correspondence between diagrams and secondary
structures, zip-and-transfer composition on complementary interfaces,
folding enumeration, and a functor from pregroup grammars whose
contractions become Watson-Crick duplex pairings.

Each public name loads its home module on first use: ``import ddna``
reads no submodule, and ``ddna.compose`` (or ``from ddna import
compose``) imports ``ddna.diagram`` and what it needs, once.  A caller
pays only for the layers it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "ALPHABET",
        "AlphabetError",
        "DotBracketError",
        "SecondaryStructure",
        "StructureError",
        "Violation",
        "brackets_of",
        "canonical_word",
        "complement",
        "emit_dotbracket",
        "is_complementary",
        "pair_class",
        "parse_dotbracket",
        "reverse_complement",
        "structure_from_brackets",
        "structure_violations",
    ),
    "diagram": (
        "DdnaFormatError",
        "Diagram",
        "DiagramError",
        "InterfaceError",
        "LoopReport",
        "bend",
        "bond_count",
        "coevaluation",
        "compose",
        "emit_ddna",
        "evaluation",
        "format_report",
        "identity",
        "parse_ddna",
        "structure_as_diagram",
        "tensor",
        "tensor_all",
        "unbend",
        "validate",
        "zip_and_transfer",
    ),
    "pregroup": (
        "Lexicon",
        "LexiconEntry",
        "LexiconError",
        "PregroupType",
        "ReductionProof",
        "SimpleTerm",
        "TypeSyntaxError",
        "all_reductions",
        "find_reduction",
        "functor_object",
        "functor_reduction",
        "load_lexicon",
        "load_lexicon_file",
        "meaning",
        "parse_type",
        "proof_violations",
    ),
    "render": (
        "RenderStyle",
        "render_diagram_svg",
        "render_structure_svg",
        "render_structure_text",
    ),
    "structures": (
        "FoldConfig",
        "count_max_bond",
        "count_structures",
        "enumerate_structures",
        "is_member",
        "max_bond",
        "max_bond_witnesses",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the home module of a public ``name`` and cache the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
