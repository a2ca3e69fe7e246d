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

:func:`zip_and_transfer` computes the same composite in the straightened
picture: juxtapose the two bent structures, pair the complementary
interface segments position-by-position, and trace.  This is the
combinatorial content of toehold-mediated strand displacement.  Both
routes share one walk over the interface positions, where each piece
attaches at most one edge per position; :func:`compose` is the case with
no interface edges.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Union

from .core import (
    PAIR_TYPE,
    SecondaryStructure,
    Violation,
    canonical_word,
    crossing_violations,
    is_complementary,
    reverse_complement,
    spanned_anchors,
    structure_violations,
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
                frozenset((int(i), int(j)) for i, j in getattr(self, field)),
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
        """Build from canonical words without validating.  A value not
        derived from valid operands must pass :func:`validate` before an
        operation uses it."""
        self = object.__new__(cls)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "through", frozenset(map(tuple, through)))
        object.__setattr__(self, "source_arcs", frozenset(map(tuple, source_arcs)))
        object.__setattr__(self, "target_arcs", frozenset(map(tuple, target_arcs)))
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
        name, n, kept = f"{side} arc", len(word), []
        for i, j in sorted(arcs):
            if not (1 <= i <= n and 1 <= j <= n):
                violations.append(Violation("index-range", f"{name} ({i},{j}) outside 1..{n}"))
            elif i >= j:
                violations.append(Violation("arc-order", f"{name} ({i},{j}) needs i < j"))
            else:
                kept.append((i, j))
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
        for i, j in arcs:
            if not is_complementary(word[i - 1], word[j - 1]):
                violations.append(
                    Violation(
                        "arc-typing",
                        f"{side} arc ({i},{j}) pairs {word[i - 1]} with {word[j - 1]}",
                    )
                )

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


# Both composition routes glue by one walk over the interface positions
# 1..m.  Each piece attaches at most one edge at a position: ``up[t]`` for
# the upper (left) piece, ``down[t]`` for the lower (right) one, each the
# edge's far end and pair type as ``(layer, position, pair_type)``.  Layer
# ``_INNER`` is another interface position, ``_UPPER``/``_LOWER`` an outer
# boundary; pair type ``""`` marks a through wire, which is not a bond.  A
# path alternates between the two maps.  In zip_and_transfer each position
# is also a complementary pairing, ``crossings[t]`` its pair type, so every
# position lies on a path and adds a bond to it; compose is the case with no
# interface edges (``crossings`` is None), where an untouched position lies
# on no path.

_INNER, _UPPER, _LOWER = 0, 1, 2

_End = tuple[int, int, str]


def _glue(
    m: int,
    up: list[_End | None],
    down: list[_End | None],
    crossings: list[str] | None,
    emit,
) -> dict[str, int]:
    """Trace every path through the interface.  ``emit(a, b)`` receives the
    outer ends ``a < b`` of each boundary-to-boundary path and returns
    whether the composite edge it adds is a bond.  Returns the erasure
    counts, keyed by the :class:`LoopReport` field each fills."""
    seen = [False] * (m + 1)
    sides = (up, down)
    zipped = crossings is not None

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

    dangled = path_bonds = absorbed = open_paths = loops = loop_bonds = loop_at = loop_cg = 0
    # Paths from the outer boundaries: an end on the upper piece leaves by the
    # lower one and vice versa.  Each path is traced once, from either end.
    for side, starts in ((1, up), (0, down)):
        for t, start in enumerate(starts):
            if start is None or start[0] == _INNER or seen[t]:
                continue
            bonds = [start[2]] if start[2] else []
            end = walk(t, side, bonds)
            if end is None:
                dangled += 1
                path_bonds += len(bonds)
            else:
                absorbed += len(bonds) - (emit(start, end) if start < end else emit(end, start))
    for t in range(1, m + 1):  # open paths between two interface dead ends
        u, d = up[t], down[t]
        if not seen[t] and not (u and d) and (u or d or zipped):
            bonds = []
            walk(t, 0 if u else 1, bonds)
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
    return dict(
        closed_loops=loops, erased_open_paths=open_paths, dangled_endpoints=dangled,
        closed_loop_bonds=loop_bonds, erased_path_bonds=path_bonds, absorbed_bonds=absorbed,
        loop_at_pairs=loop_at, loop_cg_pairs=loop_cg,
    )


def _attach(side: list[_End | None], i: int, j: int, pair: str) -> None:
    """Record an arc between interface positions ``i`` and ``j``."""
    side[i] = (_INNER, j, pair)
    side[j] = (_INNER, i, pair)


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
    mid = f.target
    m = len(mid)
    up: list[_End | None] = [None] * (m + 1)
    down: list[_End | None] = [None] * (m + 1)
    for i, j in f.through:
        up[j] = (_UPPER, i, "")
    for i, j in f.target_arcs:
        _attach(up, i, j, PAIR_TYPE[mid[i - 1]])
    for i, j in g.through:
        down[i] = (_LOWER, j, "")
    for i, j in g.source_arcs:
        _attach(down, i, j, PAIR_TYPE[mid[i - 1]])

    through: set[tuple[int, int]] = set()
    source_arcs = set(f.source_arcs)
    target_arcs = set(g.target_arcs)

    def emit(a: _End, b: _End) -> bool:
        if a[0] != b[0]:
            through.add((a[1], b[1]))
            return False
        (source_arcs if a[0] == _UPPER else target_arcs).add((a[1], b[1]))
        return True

    tally = _glue(m, up, down, None, emit)
    result = Diagram.unchecked(f.source, g.target, through, source_arcs, target_arcs)
    report = LoopReport(
        bonds_before=bond_count(f) + bond_count(g), bonds_after=bond_count(result), **tally
    )
    return result, report


def bend(f: Diagram) -> SecondaryStructure:
    """Straighten a diagram into a structure on ``dual(source) + target``.

    Source position ``i`` lands at ``len(source) + 1 - i`` inside the
    reversed-complement prefix; target position ``j`` keeps its order at
    ``len(source) + j``.  Every edge of the diagram becomes one arc.
    """
    n = len(f.source)
    word = reverse_complement(f.source) + f.target

    def src(i: int) -> int:
        return n + 1 - i

    def tgt(j: int) -> int:
        return n + j

    arcs = (
        {(src(i), tgt(j)) for i, j in f.through}
        | {(src(j), src(i)) for i, j in f.source_arcs}
        | {(tgt(i), tgt(j)) for i, j in f.target_arcs}
    )
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
    through = set()
    source_arcs = set()
    target_arcs = set()
    for p, q in structure.arcs:
        if q <= k:
            source_arcs.add((k + 1 - q, k + 1 - p))
        elif p > k:
            target_arcs.add((p - k, q - k))
        else:
            through.add((k + 1 - p, q - k))
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
    in :func:`compose`.  Agrees with bending, composing, and unbending.
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
    nz = len(ghat.word) - ny
    # Interface position t is fhat position nx + t and ghat position ny + 1 - t.
    up: list[_End | None] = [None] * (ny + 1)
    down: list[_End | None] = [None] * (ny + 1)
    arcs: set[tuple[int, int]] = set()
    for i, j in fhat.arcs:
        pair = PAIR_TYPE[fhat.word[i - 1]]
        if j <= nx:
            arcs.add((i, j))
        elif i <= nx:
            up[j - nx] = (_UPPER, i, pair)
        else:
            _attach(up, i - nx, j - nx, pair)
    for i, j in ghat.arcs:
        pair = PAIR_TYPE[ghat.word[i - 1]]
        if i > ny:
            arcs.add((nx + i - ny, nx + j - ny))
        elif j > ny:
            down[ny + 1 - i] = (_LOWER, j - ny, pair)
        else:
            _attach(down, ny + 1 - i, ny + 1 - j, pair)
    crossings = [""] + [PAIR_TYPE[c] for c in y]

    def emit(a: _End, b: _End) -> bool:
        # Upper ends are fhat positions 1..nx, so a < b keeps the arc ordered.
        (la, pa, _), (lb, pb, _) = a, b
        arcs.add((pa if la == _UPPER else nx + pa, pb if lb == _UPPER else nx + pb))
        return True

    tally = _glue(ny, up, down, crossings, emit)
    result = SecondaryStructure.unchecked(fhat.word[:nx] + ghat.word[ny:], arcs)
    report = LoopReport(
        interface_bonds_formed=ny,
        bonds_before=len(fhat.arcs) + len(ghat.arcs),
        bonds_after=len(result.arcs),
        **tally,
    )
    return result, report


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
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise DdnaFormatError(f"line {lineno}: non-integer index in {raw!r}") from None
        edges[parts[0]].append((i, j))
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
