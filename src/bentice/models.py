"""Lattice model construction: compile (family, partition) into a graph.

Seven families share one grid language.  Rows are labelled top to bottom
("1".."n", optionally a central row, then "nb".."1b" for the barred rows);
columns are labelled by descending integers left to right.  Families with a
u-turn boundary join the right ends of rows j and jb with a bend vertex;
two families add a half column through the barred rows, and one adds a
corner vertex joining the central row to its half column.

Edge identifiers are ("h", row, i) / ("v", col, k); orientation bits mean
east for horizontal edges and up (north) for vertical ones.  Boundary
orientations are fixed by the partition:

- west edge of every row points inward (east);
- top edge of a column points outward (up) iff the column label is a part
  of the partition, half column included for family D;
- bottom edges all point outward (down);
- family-specific ends: Bstar's central row exits east, BC's central row
  points inward at both ends, Cstar's half-column top always points in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Optional

FAMILIES = ("A", "B", "Bstar", "C", "Cstar", "D", "BC")

EdgeId = tuple
RowLabel = str


class ModelError(ValueError):
    pass


def check_strict_partition(parts) -> tuple:
    lam = tuple(int(p) for p in parts)
    if not lam:
        raise ModelError("partition must be nonempty")
    if lam[-1] < 1:
        raise ModelError("smallest part must be at least 1")
    if any(a <= b for a, b in zip(lam, lam[1:])):
        raise ModelError("parts must be strictly decreasing")
    return lam


def bar(label: RowLabel) -> RowLabel:
    return label[:-1] if label.endswith("b") else label + "b"


@dataclass(frozen=True)
class Vertex:
    row: RowLabel
    col: int
    n_edge: EdgeId
    e_edge: EdgeId
    s_edge: EdgeId
    w_edge: EdgeId


@dataclass(frozen=True)
class Bend:
    """U-turn joining the right ends of rows j and jb; j is unbarred."""

    row: RowLabel
    top_edge: EdgeId
    bottom_edge: EdgeId


@dataclass(frozen=True)
class Corner:
    """Right-angle joint between the central row and the half column (C)."""

    h_edge: EdgeId
    v_edge: EdgeId


@dataclass(frozen=True)
class ModelSpec:
    family: str
    lam: tuple
    n: int
    rows: tuple            # all row labels, top to bottom
    full_cols: tuple       # full column labels, left to right (descending)
    half_col: Optional[int]
    half_rows: tuple       # rows crossed by the half column, top to bottom
    central: Optional[RowLabel]
    bend_rows: tuple       # unbarred labels carrying bends, outermost first
    vertices: tuple
    bends: tuple
    corner: Optional[Corner]
    boundary: dict         # EdgeId -> bool (east / up)
    edges: tuple           # every edge id, deterministic order

    def vertex_count(self) -> int:
        """Tetravalent vertices only; bends and corners excluded."""
        return len(self.vertices)

    @cached_property
    def edge_index(self) -> dict:
        """Edge id -> position in ``edges``."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def unit_table(self) -> tuple:
        """(unit, getter of its edge bits from a state's orientation) for
        every unit: vertices by (row, col), then the bends, then the corner."""
        from .states import model_units   # states builds units from a spec
        units = model_units(self)
        vertices = sorted((u for u in units if u.kind == "vertex"), key=lambda u: u.label)
        return tuple((u, itemgetter(*(self.edge_index[e] for e, _ in u.edges)))
                     for u in vertices + [u for u in units if u.kind != "vertex"])

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "lambda": list(self.lam),
            "rows": list(self.rows),
            "columns": list(self.full_cols),
            "half_column": self.half_col,
            "central_row": self.central,
            "bend_rows": list(self.bend_rows),
            "vertex_count": self.vertex_count(),
            "boundary": {_edge_name(e): ("out" if _outward(self, e) else "in")
                         for e in sorted(self.boundary, key=_edge_name)},
        }


def _edge_name(e: EdgeId) -> str:
    return f"{e[0]}:{e[1]}:{e[2]}"


def _outward(spec: ModelSpec, e: EdgeId) -> bool:
    """Render a fixed boundary bit as inward/outward relative to the grid."""
    kind, label, k = e
    bit = spec.boundary[e]
    if kind == "h":
        return bit if k > 0 else not bit       # east at the right end is out
    return bit if k == 0 else not bit          # up at the top is out


def build_model(family: str, lam_parts) -> ModelSpec:
    """Construct the lattice graph for one family and strict partition."""
    if family not in FAMILIES:
        raise ModelError(f"unknown family {family!r}")
    lam = check_strict_partition(lam_parts)
    n = len(lam)
    lam1 = lam[0]

    top = [str(j) for j in range(1, n + 1)]
    bot = [str(j) + "b" for j in range(n, 0, -1)]
    central: Optional[str] = None
    half_col: Optional[int] = None
    half_rows: tuple = ()
    full_cols = tuple(range(lam1, 0, -1))
    bend_rows = tuple(str(j) for j in range(1, n + 1))

    if family == "A":
        rows = tuple(top)
        bend_rows = ()
    elif family == "B":
        rows = tuple(top + bot)
    elif family == "Bstar":
        central = "0"
        rows = tuple(top + [central] + bot)
    elif family == "C":
        central = "0"
        half_col = 0
        rows = tuple(top + [central] + bot)
        half_rows = tuple(bot)
    elif family == "Cstar":
        half_col = 0
        rows = tuple(top + bot)
        half_rows = tuple(bot)
    elif family == "D":
        half_col = 1
        full_cols = tuple(range(lam1, 1, -1))
        rows = tuple(top + bot)
        half_rows = tuple(bot)
    else:  # BC
        central = str(n)
        rows = tuple(top[:-1] + [central] + [str(j) + "b" for j in range(n - 1, 0, -1)])
        bend_rows = tuple(str(j) for j in range(1, n))

    spec_rows = rows

    # column -> rows it crosses, in top-to-bottom order
    def col_rows(col: int):
        if half_col is not None and col == half_col:
            return list(half_rows)
        return list(spec_rows)

    all_cols = list(full_cols) + ([half_col] if half_col is not None else [])

    vertices = []
    for r_idx, row in enumerate(spec_rows):
        cols_here = list(full_cols)
        if half_col is not None and row in half_rows:
            cols_here.append(half_col)
        for c_idx, col in enumerate(cols_here):
            rows_of_col = col_rows(col)
            k = rows_of_col.index(row)
            vertices.append(Vertex(
                row=row, col=col,
                n_edge=("v", col, k),
                s_edge=("v", col, k + 1),
                w_edge=("h", row, c_idx),
                e_edge=("h", row, c_idx + 1),
            ))

    boundary: dict = {}
    bends = []
    corner = None

    # west ends point inward for every row
    for row in spec_rows:
        boundary[("h", row, 0)] = True

    # right ends
    for row in spec_rows:
        m = len(full_cols) + (1 if (half_col is not None and row in half_rows) else 0)
        east = ("h", row, m)
        if family == "A":
            boundary[east] = False                      # west, inward
        elif row == central:
            if family == "Bstar":
                boundary[east] = True                   # east, outward
            elif family == "BC":
                boundary[east] = False                  # west, inward
            # C: handled by the corner below
        # bend rows: both ends feed the bend, added after the loop

    for j in bend_rows:
        jb = j + "b"
        m_top = len(full_cols)
        m_bot = len(full_cols) + (1 if (half_col is not None and jb in half_rows) else 0)
        bends.append(Bend(row=j,
                          top_edge=("h", j, m_top),
                          bottom_edge=("h", jb, m_bot)))

    # column tops and bottoms
    for col in all_cols:
        rows_of_col = col_rows(col)
        top_edge = ("v", col, 0)
        bottom_edge = ("v", col, len(rows_of_col))
        boundary[bottom_edge] = False                   # down, outward
        if family == "C" and col == half_col:
            pass                                        # top edge is the corner's
        elif family == "Cstar" and col == half_col:
            boundary[top_edge] = False                  # down, always inward
        else:
            boundary[top_edge] = (col in lam)

    if family == "C":
        # the central row ends in the corner: its east edge is internal
        corner = Corner(h_edge=("h", central, len(full_cols)), v_edge=("v", half_col, 0))

    edge_set = set(boundary)
    for v in vertices:
        edge_set.update((v.n_edge, v.e_edge, v.s_edge, v.w_edge))
    for b in bends:
        edge_set.update((b.top_edge, b.bottom_edge))
    if corner is not None:
        edge_set.update((corner.h_edge, corner.v_edge))

    return ModelSpec(
        family=family, lam=lam, n=n,
        rows=spec_rows, full_cols=full_cols,
        half_col=half_col, half_rows=half_rows,
        central=central, bend_rows=bend_rows,
        vertices=tuple(vertices), bends=tuple(bends), corner=corner,
        boundary=boundary,
        edges=tuple(sorted(edge_set, key=_edge_name)),
    )
