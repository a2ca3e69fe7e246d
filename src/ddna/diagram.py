"""Typed noncrossing planar matchings between DNA words, and their calculus.

A diagram from ``source`` to ``target`` lives in a rectangle with the
source word along the top boundary and the target word along the bottom.
Its edges come in three kinds:

* ``through`` wires ``(i, j)`` joining source position ``i`` to target
  position ``j``, carrying the same letter on both ends;
* ``source_arcs`` ``(i, j)``, ``i < j``, pairing two complementary source
  positions;
* ``target_arcs``, the same on the target side.

Every position touches at most one edge (unmatched positions are fine),
through wires are order-preserving, arcs on one boundary are mutually
noncrossing, and no through wire is anchored strictly inside an arc's
span.  Together these say exactly that the picture can be drawn in the
rectangle without crossings.  Equivalently: the arcs obtained by bending
the source up alongside the target (see :func:`bend`) form a valid
secondary structure on ``reverse_complement(source) + target``.

Composition stacks two rectangles and traces the glued paths.  Paths that
survive to the outer boundary become edges of the composite; closed loops
are erased (each one counts for nothing), as are paths trapped entirely
at the interface; a path that dead-ends at an unmatched interface
position leaves its boundary endpoint unmatched.  :class:`LoopReport`
tallies everything erased so the bond bookkeeping of a composition can be
audited.

:func:`zip_and_transfer` is composition in the straightened picture:
juxtapose the two bent structures, pair the complementary interface
segments position-by-position, and trace.  This is the combinatorial
content of toehold-mediated strand displacement.  It *is*
``bend(compose(unbend(fhat), unbend(ghat)))``: it unbends both structures
at the interface, composes, and bends the result back, so one gluing
routine builds every composite and its :class:`LoopReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import index
from typing import Iterable, Union

from .core import (
    PAIR_TYPE,
    SecondaryStructure,
    Violation,
    canonical_word,
    crossing_violations,
    reverse_complement,
    spanned_anchors,
    typing_violations,
    well_formed_arcs,
)


class DiagramError(ValueError):
    """A diagram failed validation; carries every violation."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class InterfaceError(ValueError):
    """Two values were glued along boundaries that do not match."""


class DdnaFormatError(ValueError):
    """Malformed ``.ddna`` text."""


@dataclass(frozen=True)
class Diagram:
    """A morphism ``source -> target``.

    The public constructor validates eagerly.  Operations trust valid
    operands and build their results without validating again.
    """

    source: str
    target: str
    through: frozenset[tuple[int, int]] = frozenset()
    source_arcs: frozenset[tuple[int, int]] = frozenset()
    target_arcs: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", canonical_word(self.source))
        object.__setattr__(self, "target", canonical_word(self.target))
        for field in ("through", "source_arcs", "target_arcs"):
            object.__setattr__(
                self,
                field,
                frozenset((index(i), index(j)) for i, j in getattr(self, field)),
            )
        violations = validate(self)
        if violations:
            raise DiagramError(violations)

    @classmethod
    def unchecked(
        cls,
        source: str,
        target: str,
        through: Iterable[tuple[int, int]] = (),
        source_arcs: Iterable[tuple[int, int]] = (),
        target_arcs: Iterable[tuple[int, int]] = (),
    ) -> "Diagram":
        """Build from canonical words and ``(i, j)`` tuples without validating
        or copying: a frozenset edge set is shared as it is.  A value not
        derived from valid operands must pass :func:`validate` before an
        operation uses it."""
        self = object.__new__(cls)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "through", frozenset(through))
        object.__setattr__(self, "source_arcs", frozenset(source_arcs))
        object.__setattr__(self, "target_arcs", frozenset(target_arcs))
        return self


@dataclass(frozen=True)
class LoopReport:
    """What a composition erased, and the bond arithmetic it implies.

    ``bonds_before`` counts the arcs of both inputs (through wires are not
    bonds) and ``bonds_after`` the arcs of the result.
    ``interface_bonds_formed`` is the number of complementary interface
    pairings applied by :func:`zip_and_transfer` (always the full
    interface length; zero for plain :func:`compose`).

    The erased material is broken down so the count balances exactly:

    * ``closed_loop_bonds`` -- input arcs erased inside closed loops.  In
      a zip-and-transfer every closed loop alternates input arcs with
      interface pairings, so the loop also consumed the same number of
      interface bonds.
    * ``erased_path_bonds`` -- bond edges (input arcs plus interface
      pairings) erased with interior-only open paths and with dead-end
      paths.
    * ``absorbed_bonds`` -- bond edges swallowed when a surviving
      boundary-to-boundary path is rewired down to its single composite
      edge.

    For zip-and-transfer these satisfy::

        bonds_after == bonds_before + interface_bonds_formed
                       - 2 * closed_loop_bonds
                       - erased_path_bonds - absorbed_bonds

    ``loop_at_pairs``/``loop_cg_pairs`` split every erased closed-loop
    bond edge by pair type, for weighted-loop variants layered on top.
    """

    closed_loops: int = 0
    erased_open_paths: int = 0
    dangled_endpoints: int = 0
    interface_bonds_formed: int = 0
    bonds_before: int = 0
    bonds_after: int = 0
    closed_loop_bonds: int = 0
    erased_path_bonds: int = 0
    absorbed_bonds: int = 0
    loop_at_pairs: int = 0
    loop_cg_pairs: int = 0


def validate(d: Diagram) -> list[Violation]:
    """Check every diagram invariant, returning all failures with indices.

    Costs O(n + m log m) for n boundary positions and m edges, plus the
    crossing pairs listed once :func:`~ddna.core.arc_depths` rejects a side.
    """
    ns, nt = len(d.source), len(d.target)
    violations = []
    # One sorted pass per edge set reports the malformed edges and keeps the rest.
    through = []
    for i, j in sorted(d.through):
        if 1 <= i <= ns and 1 <= j <= nt:
            through.append((i, j))
        else:
            violations.append(Violation("index-range", f"through ({i},{j}) outside boundaries"))
    sides = []  # (side, word, well-formed arcs, the through wires' anchors on it)
    for side, word, arcs, end in (
        ("source", d.source, d.source_arcs, 0),
        ("target", d.target, d.target_arcs, 1),
    ):
        kept, bad = well_formed_arcs(sorted(arcs), len(word), f"{side} arc")
        violations.extend(bad)
        sides.append((side, word, kept, [wire[end] for wire in through]))

    # Degree: each boundary position in at most one edge on its side.
    for side, _, arcs, anchors in sides:
        uses: dict[int, list[tuple[str, int, int]]] = {}
        for wire, k in zip(through, anchors):
            uses.setdefault(k, []).append(("through", *wire))
        for i, j in arcs:
            uses.setdefault(i, []).append((f"{side} arc", i, j))
            uses.setdefault(j, []).append((f"{side} arc", i, j))
        for pos in sorted(p for p, used in uses.items() if len(used) > 1):
            listed = " and ".join(f"{kind} ({i},{j})" for kind, i, j in uses[pos])
            violations.append(Violation("degree", f"{side} position {pos} in {listed}"))

    for i, j in through:
        if d.source[i - 1] != d.target[j - 1]:
            violations.append(
                Violation(
                    "through-typing",
                    f"through ({i},{j}) joins {d.source[i - 1]} to {d.target[j - 1]}",
                )
            )
    for side, word, arcs, _ in sides:
        violations.extend(typing_violations(word, arcs, "arc-typing", f"{side} arc"))

    for (i, j), (k, l) in zip(through, through[1:]):
        if j >= l:
            violations.append(
                Violation(
                    "through-crossing",
                    f"through wires ({i},{j}) and ({k},{l}) cross",
                )
            )
    for side, _, arcs, anchors in sides:
        violations.extend(
            Violation("arc-wire-crossing", f"{side} arc ({i},{j}) spans through anchor {k}")
            for i, j, k in spanned_anchors(arcs, anchors)
        )
        violations.extend(crossing_violations(arcs, "arc-arc-crossing", f"{side} arcs"))
    return violations


def identity(word: str) -> Diagram:
    """The straight-through matching on ``word``: wire ``i -> i``, no arcs."""
    word = canonical_word(word)
    return Diagram.unchecked(word, word, ((i, i) for i in range(1, len(word) + 1)))


def evaluation(word: str) -> Diagram:
    """The cup ``word + dual(word) -> empty``: nested source arcs ``(i, 2n+1-i)``.

    This is the canonical duplex pairing of a word against its reverse
    complement.
    """
    word = canonical_word(word)
    n = len(word)
    return Diagram.unchecked(
        word + reverse_complement(word),
        "",
        source_arcs=((i, 2 * n + 1 - i) for i in range(1, n + 1)),
    )


def coevaluation(word: str) -> Diagram:
    """The cap ``empty -> dual(word) + word``: the cup on ``dual(word)``,
    whose source is ``dual(word) + word``, reflected onto the target."""
    cup = evaluation(reverse_complement(word))
    return Diagram.unchecked("", cup.source, target_arcs=cup.source_arcs)


def tensor(f: Diagram, g: Diagram) -> Diagram:
    """Horizontal juxtaposition: ``g`` drawn to the right of ``f``."""
    ds, dt = len(f.source), len(f.target)
    return Diagram.unchecked(
        f.source + g.source,
        f.target + g.target,
        through=f.through | {(i + ds, j + dt) for i, j in g.through},
        source_arcs=f.source_arcs | {(i + ds, j + ds) for i, j in g.source_arcs},
        target_arcs=f.target_arcs | {(i + dt, j + dt) for i, j in g.target_arcs},
    )


def tensor_all(diagrams: Iterable[Diagram]) -> Diagram:
    """The diagrams side by side, left to right (``identity("")`` if none), in
    one linear pass with running offsets; a fold over :func:`tensor` is quadratic."""
    diagrams = list(diagrams)
    through, source_arcs, target_arcs = [], [], []
    ds = dt = 0
    for d in diagrams:
        through.extend((i + ds, j + dt) for i, j in d.through)
        source_arcs.extend((i + ds, j + ds) for i, j in d.source_arcs)
        target_arcs.extend((i + dt, j + dt) for i, j in d.target_arcs)
        ds, dt = ds + len(d.source), dt + len(d.target)
    source, target = "".join(d.source for d in diagrams), "".join(d.target for d in diagrams)
    return Diagram.unchecked(source, target, through, source_arcs, target_arcs)


# One routine builds every composite and its LoopReport: compose stacks two
# diagrams, and zip_and_transfer *is* bend(compose(unbend(fhat),
# unbend(ghat))), glued with ``zipped`` set.
#
# _glue walks the interface positions 1..m.  Each piece attaches at most one
# edge at a position: ``up[t]`` for the upper piece, ``down[t]`` for the lower
# one, each the edge's far end and pair type as ``(layer, position,
# pair_type)``.  Layer ``_INNER`` is another interface position,
# ``_UPPER``/``_LOWER`` an outer boundary.  A path alternates between the two
# maps.  A position is a path end when its edge on one side is missing or
# leaves the interface.  One pass traces each path with ends from the first
# end met, and a second pass traces what is left: closed loops.
#
# One bond rule covers the report.  Zipped, every edge is a bond, through
# wires included (each is an arc of the straightened picture), and each
# interface position is also a complementary pairing, ``crossings[t]`` its
# pair type, so every position lies on a path and adds a bond to it.  Not
# zipped, only arcs are bonds (pair type ``""`` marks a wire), and an
# untouched position lies on no path.

_INNER, _UPPER, _LOWER = 0, 1, 2

_End = tuple[int, int, str]


def _glue(f: Diagram, g: Diagram, zipped: bool) -> tuple[Diagram, LoopReport]:
    """Glue ``f.target`` to ``g.source`` and trace every path through the
    interface.  Returns the composite ``f.source -> g.target`` and its report."""
    mid = f.target
    m = len(mid)
    up: list[_End | None] = [None] * (m + 1)
    down: list[_End | None] = [None] * (m + 1)
    for i, j in f.through:
        up[j] = (_UPPER, i, PAIR_TYPE[mid[j - 1]] if zipped else "")
    for i, j in g.through:
        down[i] = (_LOWER, j, PAIR_TYPE[mid[i - 1]] if zipped else "")
    for side, arcs in ((up, f.target_arcs), (down, g.source_arcs)):
        for i, j in arcs:
            pair = PAIR_TYPE[mid[i - 1]]
            side[i] = (_INNER, j, pair)
            side[j] = (_INNER, i, pair)
    crossings = [""] + [PAIR_TYPE[c] for c in mid] if zipped else None
    seen = [False] * (m + 1)
    sides = (up, down)

    def walk(t: int, side: int, bonds: list[str]) -> _End | None:
        """Leave position ``t`` by ``sides[side]`` and follow the path,
        appending each bond's pair type to ``bonds``.  Returns the outer
        end reached, or None at a dead end or back at the start."""
        while not seen[t]:
            seen[t] = True
            if zipped:
                bonds.append(crossings[t])
            end = sides[side][t]
            if end is None:
                return None
            layer, t, pair = end
            if pair:
                bonds.append(pair)
            if layer != _INNER:
                return end
            side = 1 - side
        return None

    through: set[tuple[int, int]] = set()
    source_arcs, target_arcs = set(f.source_arcs), set(g.target_arcs)
    dangled = path_bonds = absorbed = open_paths = loops = loop_bonds = loop_at = loop_cg = 0
    for t in range(1, m + 1):  # paths with ends
        u, d = up[t], down[t]
        side, start = (0, d) if u and u[0] == _INNER else (1, u)
        if seen[t] or (start and start[0] == _INNER) or not (u or d or zipped):
            continue  # traced already, inside a path, or on no path
        bonds = [start[2]] if start and start[2] else []
        end = walk(t, side, bonds)
        if start and end:  # outer to outer: one edge of the composite
            (la, a, _), (lb, b, _) = (start, end) if start < end else (end, start)
            if la != lb:
                through.add((a, b))
            else:
                (source_arcs if la == _UPPER else target_arcs).add((a, b))
            absorbed += len(bonds) - (zipped or la == lb)
            continue
        if start or end:
            dangled += 1
        else:
            open_paths += 1
        path_bonds += len(bonds)
    for t in range(1, m + 1):  # what is left is closed loops
        if not seen[t] and up[t]:
            bonds = []
            walk(t, 0, bonds)
            loops += 1
            # A zipped loop alternates input arcs with interface pairings.
            loop_bonds += len(bonds) // 2 if zipped else len(bonds)
            loop_at += bonds.count("AT")
            loop_cg += bonds.count("CG")

    def bonds_of(d: Diagram) -> int:
        return bond_count(d) + (len(d.through) if zipped else 0)

    composite = Diagram.unchecked(f.source, g.target, through, source_arcs, target_arcs)
    report = LoopReport(
        closed_loops=loops, erased_open_paths=open_paths, dangled_endpoints=dangled,
        interface_bonds_formed=m if zipped else 0,
        bonds_before=bonds_of(f) + bonds_of(g), bonds_after=bonds_of(composite),
        closed_loop_bonds=loop_bonds, erased_path_bonds=path_bonds, absorbed_bonds=absorbed,
        loop_at_pairs=loop_at, loop_cg_pairs=loop_cg,
    )
    return composite, report


def bond_count(value: Union[Diagram, SecondaryStructure]) -> int:
    """Number of base-pair bonds: arcs only, through wires excluded."""
    if isinstance(value, Diagram):
        return len(value.source_arcs) + len(value.target_arcs)
    return len(value.arcs)


def compose(f: Diagram, g: Diagram) -> tuple[Diagram, LoopReport]:
    """Stack ``f`` on top of ``g``, gluing ``f.target`` to ``g.source``.

    Returns the composite ``f.source -> g.target`` plus the erasure
    report.  Raises :class:`InterfaceError` unless the glued boundary
    words are equal.
    """
    if f.target != g.source:
        raise InterfaceError(
            f"cannot glue: upper target {f.target or '-'!r} != lower source {g.source or '-'!r}"
        )
    return _glue(f, g, False)


def bend(f: Diagram) -> SecondaryStructure:
    """Straighten a diagram into a structure on ``dual(source) + target``.

    Source position ``i`` lands at ``len(source) + 1 - i`` inside the
    reversed-complement prefix; target position ``j`` keeps its order at
    ``len(source) + j``.  Every edge of the diagram becomes one arc.
    """
    n = len(f.source)
    word = reverse_complement(f.source) + f.target
    arcs = [(n + 1 - i, n + j) for i, j in f.through]
    arcs += [(n + 1 - j, n + 1 - i) for i, j in f.source_arcs]
    arcs += [(n + i, n + j) for i, j in f.target_arcs]
    return SecondaryStructure.unchecked(word, arcs)


def unbend(structure: SecondaryStructure, source_length: int) -> Diagram:
    """Invert :func:`bend`: read the first ``source_length`` positions as
    the dualized source and the rest as the target."""
    k = source_length
    if not 0 <= k <= len(structure.word):
        raise ValueError(
            f"source length {k} outside 0..{len(structure.word)}"
        )
    source = reverse_complement(structure.word[:k])
    target = structure.word[k:]
    through, source_arcs, target_arcs = [], [], []
    for p, q in structure.arcs:
        if q <= k:
            source_arcs.append((k + 1 - q, k + 1 - p))
        elif p > k:
            target_arcs.append((p - k, q - k))
        else:
            through.append((k + 1 - p, q - k))
    return Diagram.unchecked(source, target, through, source_arcs, target_arcs)


def structure_as_diagram(structure: SecondaryStructure) -> Diagram:
    """View a structure on ``w`` as the morphism ``empty -> w``."""
    return Diagram.unchecked("", structure.word, target_arcs=structure.arcs)


def zip_and_transfer(
    fhat: SecondaryStructure, ghat: SecondaryStructure, interface: str
) -> tuple[SecondaryStructure, LoopReport]:
    """Compose two straightened diagrams across a complementary interface.

    ``fhat`` must end with ``interface`` and ``ghat`` must start with its
    reverse complement.  The interface segments are zipped position ``i``
    against position ``len(interface) + 1 - i``, connectivity transfers
    through the zipped pairs, and interior leftovers are erased exactly as
    in :func:`compose`.  Defined as ``bend(compose(unbend(fhat),
    unbend(ghat)))``, each unbent at the interface; the report counts every
    edge as a bond, since each is an arc in the straightened picture.
    """
    y = canonical_word(interface)
    ny = len(y)
    nx = len(fhat.word) - ny
    if nx < 0 or fhat.word[nx:] != y:
        raise InterfaceError(f"left word {fhat.word!r} does not end with {y!r}")
    if len(ghat.word) < ny or ghat.word[:ny] != reverse_complement(y):
        raise InterfaceError(
            f"right word {ghat.word!r} does not start with {reverse_complement(y)!r}"
        )
    composite, report = _glue(unbend(fhat, nx), unbend(ghat, ny), True)
    return bend(composite), report


# --- the .ddna text format ---------------------------------------------------
#
# Line 1: source word ("-" for the empty word).  Line 2: target word.  Then
# one edge per line: "T i j" (through), "S i j" (source arc), "A i j"
# (target arc), 1-based.  '#' starts a comment; blank lines are ignored.
# emit_ddna writes edges in T/S/A order, each block sorted, so canonical
# files round-trip byte-exactly.

_EDGE_FIELDS = {"T": "through", "S": "source_arcs", "A": "target_arcs"}


def parse_ddna(text: str) -> Diagram:
    """Parse ``.ddna`` text into a validated diagram.

    Raises :class:`DdnaFormatError` on syntax problems and
    :class:`DiagramError` (carrying the full violation list) when the
    parsed edges break a diagram invariant.
    """
    words: list[str] = []
    edges: dict[str, list[tuple[int, int]]] = {"T": [], "S": [], "A": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(words) < 2:
            words.append("" if line == "-" else line)
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in edges:
            raise DdnaFormatError(f"line {lineno}: expected 'T|S|A i j', got {raw!r}")
        # An optional "-" and ASCII digits only: int() would also take "1_0", "+1" or "١",
        # and past the interpreter's digit limit it raises its own ValueError.
        try:
            if not all(x.isascii() and x.removeprefix("-").isdigit() for x in parts[1:]):
                raise ValueError
            edges[parts[0]].append((int(parts[1]), int(parts[2])))
        except ValueError:
            raise DdnaFormatError(f"line {lineno}: non-integer index in {raw!r}") from None
    if len(words) < 2:
        raise DdnaFormatError("expected a source line and a target line")
    return Diagram(words[0], words[1], edges["T"], edges["S"], edges["A"])


def emit_ddna(d: Diagram) -> str:
    """Serialize a diagram canonically; round-trips through :func:`parse_ddna`."""
    lines = [d.source or "-", d.target or "-"]
    for tag, field in _EDGE_FIELDS.items():
        lines.extend(f"{tag} {i} {j}" for i, j in sorted(getattr(d, field)))
    return "\n".join(lines) + "\n"


def format_report(report: LoopReport) -> str:
    """One ``key: value`` line per field, for diagnostic printing."""
    return "".join(f"{f.name}: {getattr(report, f.name)}\n" for f in fields(LoopReport))
