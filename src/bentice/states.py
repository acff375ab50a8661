"""Admissible states, state counts and partition functions.

A graph is a sequence of units (``models.Unit``: tetravalent vertices,
u-turn bends, corner joints, and strand crossings for the local
diagrams).  Admissibility is local: a vertex needs two arrows in and two
out, the degree-two units need one each.

Two engines sweep the units in the order given, for a model the order of
``ModelSpec.units`` (bends and rightmost columns first, which prunes
hardest).  Both read one compiled move table per unit (``move_tables``):
the bits of the unit's edges that earlier units set map to the list of
its admissible ``(bits of the edges it sets, tag)``, with every
configuration that clashes with the fixed boundary dropped once, when the
table is built.

- ``enumerate_tags`` backtracks over a flat bit list, trying each unit's
  moves in the order of its configurations, and collects every state, as
  the tuple of the tag each unit took, into a list, so state lists are
  deterministic and stable across runs.  It serves whatever needs the
  states themselves: JSON/TikZ export, the ASM dictionary and its
  bijection, ``partition_function`` and the local diagrams of
  ``relations.local_z``.
- ``contract`` never builds a state.  It keeps only the frontier, the
  bits of the edges a processed unit set and a later unit still reads,
  with one accumulated value per frontier key (a transfer-matrix sum).
  ``count_states`` runs it with every unit worth 1.

A state stores only the tag each unit of its model took, as the paper
names a state by its local configurations (a1..c2, U/D, R/L).  Its vertex
kinds, bend and corner directions, and its weight (``weights.unit_weight``
per unit, in ``ModelSpec.units`` order) are read from those tags by unit
position.  Only the exports need edge bits: JSON reads them through
``ModelSpec.edge_sources``, built once per model, and TikZ from
``models.VERTEX_CONFIGS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .laurent import LaurentPoly
from .models import VERTEX_CONFIGS, ModelSpec
from .weights import unit_weight

def move_tables(units, fixed: dict) -> list:
    """Compile each unit, in sweep order, into ``(reads, sets, moves)``.

    ``reads`` are the unit's edges that an earlier unit set, ``sets`` its
    edges that neither an earlier unit nor ``fixed`` set, and ``moves`` maps
    the bits of ``reads`` to the list of admissible ``(bits of sets, tag)``,
    in the order of ``unit.configs``.  A configuration that clashes with a
    fixed edge, or gives one edge two bits, is dropped here, once per unit.
    """
    seen = set()
    tables = []
    for unit in units:
        edges = dict.fromkeys(e for e, _pol in unit.edges)
        reads = tuple(e for e in edges if e in seen)
        sets = tuple(e for e in edges if e not in seen and e not in fixed)
        moves = {}
        for bits, tag in zip(unit.configs, unit.tags):
            local = {}
            if all(local.setdefault(e, b) == b for (e, _pol), b in zip(unit.edges, bits)) \
                    and all(fixed[e] == b for e, b in local.items() if e in fixed):
                moves.setdefault(tuple(local[e] for e in reads), []).append(
                    (tuple(local[e] for e in sets), tag))
        seen.update(sets)
        tables.append((reads, sets, moves))
    return tables


def enumerate_tags(units, fixed: dict) -> list:
    """Every orientation consistent with all units and the fixed edges, depth
    first, trying each unit's configurations in order.  An orientation is the
    tuple of the tag each unit took, in the order of ``units``."""
    # the edges each unit sets take the next slice of one flat bit list
    index, steps = {}, []
    for reads, sets, moves in move_tables(units, fixed):
        lo = len(index)
        index.update((e, lo + k) for k, e in enumerate(sets))
        steps.append((_picker([index[e] for e in reads]), lo, len(index), moves))
    bits = [False] * len(index)
    tags = [None] * len(steps)
    found = []

    def dfs(i: int):
        if i == len(steps):
            found.append(tuple(tags))
            return
        read, lo, hi, moves = steps[i]
        for new, tag in moves.get(read(bits), ()):
            # a later unit only reads what this and earlier units set, so
            # each move overwrites the last and nothing needs undoing
            bits[lo:hi] = new
            tags[i] = tag
            dfs(i + 1)

    dfs(0)
    return found


def contract(units, fixed: dict, unit_value):
    """Sum, over every orientation consistent with the units and the fixed
    edges, of the product of ``unit_value(unit, tag)`` over the units.

    The units are swept in order through their ``move_tables``.  The
    frontier maps each key, the bits of the open edges (set by a swept
    unit and read by a unit still to come), to the sum of the products over
    the swept units; an edge leaves the key after its last unit.  Values
    need only ``+`` and ``*``: as with ``sum`` and ``math.prod``, the empty
    sum is 0 and the empty product is 1.
    """
    last = {}
    for i, unit in enumerate(units):
        for edge, _pol in unit.edges:
            last[edge] = i
    open_edges = ()
    frontier = {(): 1}
    for i, (unit, (reads, sets, table)) in enumerate(zip(units, move_tables(units, fixed))):
        scope = open_edges + sets
        kept = [k for k, e in enumerate(scope) if last[e] > i]
        moves = {key: [(new, unit_value(unit, tag)) for new, tag in options]
                 for key, options in table.items()}
        read, keep = _picker([open_edges.index(e) for e in reads]), _picker(kept)
        out = {}
        for key, value in frontier.items():
            for new, weight in moves.get(read(key), ()):
                nxt = keep(key + new)
                term = value * weight
                out[nxt] = out[nxt] + term if nxt in out else term
        frontier, open_edges = out, tuple(scope[k] for k in kept)
    return frontier.get((), 0)


def _picker(positions):
    """seq -> the tuple of its items at positions."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        return lambda seq, p=positions[0]: (seq[p],)
    return lambda seq: ()


# ---------------------------------------------------------------------------
# full models


@dataclass(frozen=True)
class IceState:
    """One admissible state of a model: the tag each unit took."""

    spec: ModelSpec
    tags: tuple            # aligned with spec.units

    def _tags(self, kind: str) -> dict:
        """Map label -> tag for every unit of the given kind."""
        return {u.label: tag for u, tag in zip(self.spec.units, self.tags) if u.kind == kind}

    def vertex_kinds(self) -> dict:
        """Map (row, col) -> kind for every tetravalent vertex."""
        return self._tags("vertex")

    def bend_dirs(self) -> dict:
        """Map unbarred row label -> 'U' or 'D'."""
        return {row: tag for (row,), tag in self._tags("bend").items()}

    def corner_dir(self) -> Optional[str]:
        return self._tags("corner").get(())

    def to_json(self) -> dict:
        configs = [u.configs[u.tags.index(tag)] for u, tag in zip(self.spec.units, self.tags)]
        return {
            "family": self.spec.family,
            "lambda": list(self.spec.lam),
            "edges": {name: configs[i][k] for name, i, k in self.spec.edge_sources},
            "kinds": {f"{r}:{c}": k for (r, c), k in sorted(self.vertex_kinds().items())},
            "bends": self.bend_dirs(),
            "corner": self.corner_dir(),
        }


def enumerate_states(spec: ModelSpec) -> list:
    """All admissible states, complete and in a stable deterministic order."""
    return [IceState(spec=spec, tags=tags) for tags in enumerate_tags(spec.units, spec.boundary)]


def count_states(spec: ModelSpec) -> int:
    """The number of admissible states, by contraction: no state is built."""
    return contract(spec.units, spec.boundary, lambda unit, tag: 1)


def state_weight(state: IceState, scheme) -> LaurentPoly:
    """Product of Boltzmann weights over all units: vertices, bends and corner."""
    return LaurentPoly.prod(unit_weight(unit, tag, scheme)
                            for unit, tag in zip(state.spec.units, state.tags))


def partition_function(spec: ModelSpec, scheme) -> LaurentPoly:
    """Sum of state weights; associative merge, order independent."""
    return LaurentPoly.sum(state_weight(s, scheme) for s in enumerate_states(spec))


# ---------------------------------------------------------------------------
# exports


def state_tikz(state: IceState) -> str:
    """TikZ in the style of the figures: arrow tips at edge midpoints."""
    spec = state.spec
    # coordinates are stored doubled so that edge midpoints stay integral
    xof = {col: 2 * (i + 1) for i, col in enumerate(spec.full_cols)}
    if spec.half_col is not None:
        xof[spec.half_col] = 2 * (len(spec.full_cols) + 1)
    yof = {row: 2 * (len(spec.rows) - i) for i, row in enumerate(spec.rows)}
    top = _coord(2 * len(spec.rows) + 1)
    lines = ["\\begin{tikzpicture}[scale=.75]"]
    for row in spec.rows:
        lines.append(f"\\node [label=left:${_row_tex(row)}$] at ({_coord(0)},{_coord(yof[row])}) {{}};")
    for col in spec.full_cols:
        lines.append(f"\\node [label=above:${col}$] at ({_coord(xof[col])},{top}) {{}};")
    if spec.half_col is not None:
        lines.append(
            f"\\node [label=above:${spec.half_col}$] at ({_coord(xof[spec.half_col])},{top}) {{}};")

    def tip_h(bit):
        return ">" if bit else "<"

    def tip_v(bit):
        return "<" if bit else ">"   # path is drawn downward; up-arrow is a back-tip

    # rows top to bottom, each left to right
    kinds = state.vertex_kinds()
    for row, col in sorted(kinds, key=lambda label: (-yof[label[0]], -label[1])):
        x, y = xof[col], yof[row]
        n, e, s, w = VERTEX_CONFIGS[kinds[row, col]]
        lines.append(f"\\draw [{tip_h(w)}-{tip_h(e)}] "
                     f"({_coord(x - 1)},{_coord(y)}) -- ({_coord(x + 1)},{_coord(y)});")
        lines.append(f"\\draw [{tip_v(n)}-{tip_v(s)}] "
                     f"({_coord(x)},{_coord(y + 1)}) -- ({_coord(x)},{_coord(y - 1)});")
    for row, tag in state.bend_dirs().items():
        yt, yb = yof[row], yof[row + "b"]
        x = max(xof.values()) + 1
        lines.append(f"% bend {row}: {tag}")
        lines.append(f"\\draw ({_coord(x)},{_coord(yt)}) arc (90:-90:{_coord((yt - yb) // 2)});")
    tag = state.corner_dir()
    if tag is not None:
        lines.append(f"% corner: {tag}")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines)


def _coord(doubled: int) -> str:
    """A nonnegative doubled coordinate as a one-place decimal: 5 -> 2.5."""
    return f"{doubled // 2}.{5 * (doubled % 2)}"


def _row_tex(row: str) -> str:
    return f"\\overline{{{row[:-1]}}}" if row.endswith("b") else row
