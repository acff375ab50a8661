"""Admissible states, state counts and partition functions.

A graph is a sequence of units (``models.Unit``: tetravalent vertices,
u-turn bends, corner joints, and strand crossings for the local
diagrams).  Admissibility is local: a vertex needs two arrows in and two
out, the degree-two units need one each.

Two engines sweep the units in the order given, for a model the order of
``ModelSpec.units`` (bends and rightmost columns first, which prunes
hardest):

- ``enumerate_orientations`` backtracks, trying local configurations in
  a fixed sequence, and yields every state, so state lists are
  deterministic and stable across runs.  It serves whatever needs the
  states themselves: JSON/TikZ export, the ASM dictionary, the state
  bijection, ``partition_function`` and the local diagrams of
  ``relations.local_z``.
- ``contract`` never builds a state.  It keeps only the frontier, the
  bits of the edges a processed unit touched and a later unit still
  reads, with one accumulated value per frontier key (a transfer-matrix
  sum).  ``count_states`` runs it with every unit worth 1.

A state stores only its edge bits.  Its vertex kinds, bend and corner
directions, and its weight (``weights.unit_weight`` per unit) are read
through ``ModelSpec.unit_table``, built once per model.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .laurent import LaurentPoly
from .models import ModelSpec, Unit
from .weights import unit_weight

DEFAULT_MAX_N = 4
DEFAULT_MAX_COLS = 8


class EnumerationCapError(RuntimeError):
    """Raised instead of silently attempting a too-large enumeration."""


def enumerate_orientations(units, fixed: dict):
    """Yield every total orientation consistent with all units, depth first."""
    n_units = len(units)
    assignment = dict(fixed)

    def dfs(i: int):
        if i == n_units:
            yield dict(assignment)
            return
        unit = units[i]
        for bits in unit.configs:
            touched = []
            ok = True
            for (edge, _pol), bit in zip(unit.edges, bits):
                cur = assignment.get(edge)
                if cur is None:
                    assignment[edge] = bit
                    touched.append(edge)
                elif cur != bit:
                    ok = False
                    break
            if ok:
                yield from dfs(i + 1)
            for edge in touched:
                del assignment[edge]

    yield from dfs(0)


def unit_tag(unit: Unit, orientation: dict) -> object:
    tag = unit.tag_of.get(tuple(orientation[e] for e, _ in unit.edges))
    if tag is None:
        raise ValueError(f"orientation not admissible at {unit.kind}{unit.label}")
    return tag


def contract(units, fixed: dict, unit_value):
    """Sum, over every orientation consistent with the units and the fixed
    edges, of the product of ``unit_value(unit, tag)`` over the units.

    The units are swept in order.  The frontier maps each key, the bits of
    the open edges (touched by a swept unit, not fixed, and read by a unit
    still to come), to the sum of the products over the swept units; an
    edge leaves the key after its last unit.  Values need only ``+`` and
    ``*``: as with ``sum`` and ``math.prod``, the empty sum is 0 and the
    empty product is 1.
    """
    last = {}
    for i, unit in enumerate(units):
        for edge, _pol in unit.edges:
            last[edge] = i
    open_edges = ()
    frontier = {(): 1}
    for i, unit in enumerate(units):
        edges = dict.fromkeys(e for e, _pol in unit.edges)
        reads = [k for k, e in enumerate(open_edges) if e in edges]
        new_edges = tuple(e for e in edges if e not in fixed and e not in open_edges)
        scope = open_edges + new_edges
        kept = [k for k, e in enumerate(scope) if last[e] > i]
        # open bits a config reads -> [(bits it gives the new edges, its value)]
        moves = {}
        for bits, tag in zip(unit.configs, unit.tags):
            local = {}
            if all(local.setdefault(e, b) == b for (e, _pol), b in zip(unit.edges, bits)) \
                    and all(fixed[e] == b for e, b in local.items() if e in fixed):
                moves.setdefault(tuple(local[open_edges[k]] for k in reads), []).append(
                    (tuple(local[e] for e in new_edges), unit_value(unit, tag)))
        read, keep = _picker(reads), _picker(kept)
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
    """One admissible orientation of a model, with derived vertex kinds."""

    spec: ModelSpec
    orientation: tuple     # bits aligned with spec.edges

    def bit(self, edge) -> bool:
        return self.orientation[self.spec.edge_index[edge]]

    def _tags(self, kind: str) -> dict:
        """Map label -> tag for every unit of the given kind."""
        return {u.label: u.tag_of[bits_of(self.orientation)]
                for u, bits_of in self.spec.unit_table if u.kind == kind}

    def vertex_kinds(self) -> dict:
        """Map (row, col) -> kind for every tetravalent vertex."""
        return self._tags("vertex")

    def bend_dirs(self) -> dict:
        """Map unbarred row label -> 'U' or 'D'."""
        return {row: tag for (row,), tag in self._tags("bend").items()}

    def corner_dir(self) -> Optional[str]:
        return self._tags("corner").get(())

    def to_json(self) -> dict:
        return {
            "family": self.spec.family,
            "lambda": list(self.spec.lam),
            "edges": {f"{e[0]}:{e[1]}:{e[2]}": bool(b)
                      for e, b in zip(self.spec.edges, self.orientation)},
            "kinds": {f"{r}:{c}": k for (r, c), k in sorted(self.vertex_kinds().items())},
            "bends": self.bend_dirs(),
            "corner": self.corner_dir(),
        }


def resolve_caps(max_n: int = None, max_cols: int = None) -> tuple:
    """The caps in force: each given value, else its environment variable, else the default."""
    if max_n is None:
        max_n = int(os.environ.get("BENTICE_MAX_N", DEFAULT_MAX_N))
    if max_cols is None:
        max_cols = int(os.environ.get("BENTICE_MAX_COLS", DEFAULT_MAX_COLS))
    return max_n, max_cols


def check_caps(spec: ModelSpec, max_n: int = None, max_cols: int = None):
    """Raise EnumerationCapError if the model exceeds the caps in force."""
    max_n, max_cols = resolve_caps(max_n, max_cols)
    if spec.n > max_n or spec.lam[0] > max_cols:
        raise EnumerationCapError(
            f"model {spec.family}^{list(spec.lam)} exceeds caps n<={max_n}, lambda_1<={max_cols}")


def enumerate_states(spec: ModelSpec, max_n: int = None, max_cols: int = None) -> list:
    """All admissible states, complete and in a stable deterministic order."""
    check_caps(spec, max_n, max_cols)
    index = spec.edge_index
    states = []
    for orientation in enumerate_orientations(spec.units, spec.boundary):
        bits = [False] * len(spec.edges)
        for e, b in orientation.items():
            bits[index[e]] = b
        states.append(IceState(spec=spec, orientation=tuple(bits)))
    return states


def count_states(spec: ModelSpec, max_n: int = None, max_cols: int = None) -> int:
    """The number of admissible states, by contraction: no state is built."""
    check_caps(spec, max_n, max_cols)
    return contract(spec.units, spec.boundary, lambda unit, tag: 1)


def state_weight(state: IceState, scheme) -> LaurentPoly:
    """Product of Boltzmann weights over all vertices (by row and column), bends, and corner."""
    total = LaurentPoly.const(1)
    for unit, bits_of in state.spec.unit_table:
        total = total * unit_weight(unit, unit.tag_of[bits_of(state.orientation)], scheme)
        if total.is_zero():
            return total
    return total


def partition_function(spec: ModelSpec, scheme, states=None) -> LaurentPoly:
    """Sum of state weights; associative merge, order independent."""
    if states is None:
        states = enumerate_states(spec)
    return LaurentPoly.sum(state_weight(s, scheme) for s in states)


# ---------------------------------------------------------------------------
# exports


def state_json(state: IceState) -> str:
    return json.dumps(state.to_json(), indent=2)


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
    vertices = sorted((u for u in spec.units if u.kind == "vertex"),
                      key=lambda u: (-yof[u.label[0]], -u.label[1]))
    for v in vertices:
        row, col = v.label
        x, y = xof[col], yof[row]
        n, e, s, w = (state.bit(edge) for edge, _ in v.edges)
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
