"""Lattice model construction: compile (family, partition) into its units.

Seven families share one grid language.  Rows are labelled top to bottom
("1".."n", optionally a central row, then "nb".."1b" for the barred rows);
columns are labelled by descending integers left to right.  Edge
identifiers are ("h", row, i) / ("v", col, k); orientation bits mean east
for horizontal edges and up (north) for vertical ones.

The families differ only by the four columns of ``SHAPES``:

- central row: None, "0" (an extra row between the unbarred and the
  barred rows) or "n" (row n keeps no bar and becomes the central row);
- half column: None, or the label of a column that crosses only the
  barred rows, right of the full columns;
- east arrow of a row without a bar: the fixed bit at its east end
  (False: west, inward; True: east, outward).  Every row of family A is
  such a row; elsewhere only the central row is.  None in family C, whose
  central row turns down into its half column through a corner unit;
- bars: whether each regular row j (an unbarred row other than the
  central row; ``row_layout`` lists them) has a barred row jb, a u-turn
  bend joining their right ends (``has_bars``).  Only family A has none.

The rest of the boundary is fixed by the partition: the west edge of
every row points inward (east), the top edge of a column points outward
(up) iff its label is a part, half column included (so Cstar's column 0
always points in), and every bottom edge points outward (down).  So
D^lambda without a part 1 is Cstar^(lambda - 1), columns relabelled one
lower (``reduced``).

A graph is a tuple of units (tetravalent vertices, u-turn bends, corner
joints, and strand crossings for the local diagrams of ``relations``),
each listing its edges together with a polarity bit: polarity True means
"edge bit True points into this unit", and its admissible configurations
with the tag that names each (vertex kind, U/D, R/L, crossing in-set); a
state is the tag each unit took.  ``build_model`` emits a model's units in
the order the engines of ``states`` sweep them: bends, the corner, then
the columns right to left with rows top to bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

FAMILIES = ("A", "B", "Bstar", "C", "Cstar", "D", "BC")

# family -> (central row, half column, east arrow of a row without a bar, bars)
SHAPES = {
    "A": (None, None, False, False),
    "B": (None, None, None, True),
    "Bstar": ("0", None, True, True),
    "C": ("0", 0, None, True),
    "Cstar": (None, 0, None, True),
    "D": (None, 1, None, True),
    "BC": ("n", None, False, True),
}
BENT_FAMILIES = tuple(f for f in FAMILIES if SHAPES[f][3])  # the families with bars

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


# vertex kind -> orientation bits in N,E,S,W order (True = up / east)
VERTEX_CONFIGS = {
    "a1": (False, True, False, True),
    "a2": (True, False, True, False),
    "b1": (True, True, True, True),
    "b2": (False, False, False, False),
    "c1": (False, True, True, False),
    "c2": (True, False, False, True),
}
KINDS = tuple(VERTEX_CONFIGS)


@dataclass(frozen=True)
class Unit:
    """One local constraint: a vertex, bend, corner, or crossing.

    ``edges`` pairs each edge id with its polarity; ``configs`` is the
    tuple of admissible local assignments (bit per edge, in edge order),
    and ``tags`` names each config (vertex kind, U/D, R/L, crossing
    in-set), the name a state records and weighs it by.
    """

    kind: str
    label: tuple
    edges: tuple          # ((edge_id, polarity_bool), ...)
    configs: tuple        # ((bit, ...), ...)
    tags: tuple


def vertex_unit(row, col, n_edge, e_edge, s_edge, w_edge) -> Unit:
    edges = ((n_edge, False), (e_edge, False), (s_edge, True), (w_edge, True))
    return Unit("vertex", (row, col), edges, tuple(VERTEX_CONFIGS.values()), KINDS)


def bend_unit(row, top_edge, bottom_edge) -> Unit:
    """U-turn joining the right ends of rows j and jb; j is unbarred."""
    # both edges point east into the bend when their bit is True
    return Unit("bend", (row,), ((top_edge, True), (bottom_edge, True)),
                ((True, False), (False, True)), ("D", "U"))


def corner_unit(h_edge, v_edge) -> Unit:
    """Right-angle joint between the central row and the half column (C)."""
    # horizontal-in/vertical-out is R, the reverse is L
    return Unit("corner", (), ((h_edge, True), (v_edge, True)),
                ((True, False), (False, True)), ("R", "L"))


CROSS_INSETS = (
    frozenset({"NW", "SW"}), frozenset({"NE", "SE"}),
    frozenset({"SW", "NE"}), frozenset({"NW", "SE"}),
    frozenset({"NW", "NE"}), frozenset({"SW", "SE"}),
)


def cross_unit(j, k, nw, ne, sw, se) -> Unit:
    """Crossing of strands j (enters NW, leaves SE) and k (SW to NE)."""
    ports = ("NW", "NE", "SW", "SE")
    polarity = {"NW": True, "SW": True, "NE": False, "SE": False}
    edges = tuple((e, polarity[p]) for p, e in zip(ports, (nw, ne, sw, se)))
    configs = tuple(tuple((p in inset) == polarity[p] for p in ports) for inset in CROSS_INSETS)
    return Unit("cross", (j, k), edges, configs, CROSS_INSETS)


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
    units: tuple           # bends, corner, then columns right to left, rows top to bottom
    boundary: dict         # EdgeId -> bool (east / up)
    edges: tuple           # every edge id, deterministic order

    @cached_property
    def edge_sources(self) -> tuple:
        """``(name, unit position, edge position)`` for every edge in ``edges``
        order: where the first unit in ``units`` that touches it keeps its bit."""
        where = {}
        for i, unit in enumerate(self.units):
            for k, (e, _pol) in enumerate(unit.edges):
                where.setdefault(e, (i, k))
        return tuple((_edge_name(e), *where[e]) for e in self.edges)

    @cached_property
    def weight_tables(self) -> dict:
        """id(scheme) -> (scheme, its states.WeightTable over units), filled
        by states.weight_table, so each scheme's table is built once per model."""
        return {}

    @cached_property
    def cell_layout(self) -> tuple:
        """Where a state's vertices land in its sign matrix, laid out flat row
        after row: ``(nrows, ncols, cells, centre)``.

        ``cells`` holds ``(its position in units, its cell, its image)`` for
        every vertex.  In a family with bars (all but A) the grid is completed
        by half-turn symmetry, so the image is the cell's half-turn image, a
        cell that no vertex fills; in family A it is the cell itself.
        ``centre`` is None, or, where no vertex fills the middle cell of a
        half column (family C), ``(that cell, the other cells of its
        column)``.
        """
        half_turn = has_bars(self.family)
        nrows, n_full = len(self.rows), len(self.full_cols)
        col_at = {c: j for j, c in enumerate(self.full_cols)}
        if self.half_col is not None:
            col_at[self.half_col] = n_full
        ncols = 2 * n_full + (1 if self.half_col is not None else 0) if half_turn else n_full
        row_at = {r: i for i, r in enumerate(self.rows)}
        last = nrows * ncols - 1
        cells = []
        for i, unit in enumerate(self.units):
            if unit.kind == "vertex":
                row, col = unit.label
                cell = row_at[row] * ncols + col_at[col]
                cells.append((i, cell, last - cell if half_turn else cell))
        centre = None
        if self.half_col is not None and nrows % 2:
            middle = last // 2
            if all(middle not in (cell, image) for _, cell, image in cells):
                column = range(middle % ncols, last + 1, ncols)
                centre = (middle, tuple(k for k in column if k != middle))
        return nrows, ncols, tuple(cells), centre


def _edge_name(e: EdgeId) -> str:
    return f"{e[0]}:{e[1]}:{e[2]}"


def row_layout(family: str, n: int) -> tuple:
    """The regular rows "1".."m" at rank n and the central row or None (BC: row n)."""
    central = SHAPES[family][0]
    regular = tuple(str(j) for j in range(1, n + 1))
    if central == "n":
        regular, central = regular[:-1], regular[-1]
    return regular, central


def has_bars(family: str) -> bool:
    """Whether each regular row j has a barred row jb, joined to it by a bend."""
    return SHAPES[family][3]


def rho(n: int) -> range:
    """The staircase (n, ..., 1), the least strict partition with n parts;
    a range, so naming a huge one costs nothing until a model is built."""
    return range(n, 0, -1)


def reduced(family: str, lam) -> tuple:
    """(family, lambda) of the model with family^lambda's states, its
    columns relabelled: Cstar^(lambda - 1) for D without a part 1.  A
    check weighs the model by its reduction's scheme."""
    if family == "D" and 1 not in lam:
        return "Cstar", tuple(p - 1 for p in lam)
    return family, lam


def build_model(family: str, lam_parts) -> ModelSpec:
    """Construct the lattice graph for one family and strict partition."""
    if family not in FAMILIES:
        raise ModelError(f"unknown family {family!r}")
    lam = check_strict_partition(lam_parts)
    n = len(lam)
    _, half_col, east, bars = SHAPES[family]
    regular, central = row_layout(family, n)
    if not bars:
        rows, bend_rows, unbarred = regular, (), regular
    else:
        bend_rows = regular
        unbarred = (central,) if central else ()
        rows = regular + unbarred + tuple(bar(j) for j in reversed(regular))
    half_rows = tuple(bar(j) for j in reversed(bend_rows)) if half_col is not None else ()
    full_cols = tuple(c for c in range(lam[0], 0, -1) if c != half_col)
    cols = full_cols + (() if half_col is None else (half_col,))
    corner = central is not None and half_col is not None

    def width(row):
        """The number of columns a row crosses, so ("h", row, width) is its east end."""
        return len(full_cols) + (row in half_rows)

    units = [bend_unit(j, ("h", j, width(j)), ("h", bar(j), width(bar(j)))) for j in bend_rows]
    boundary = {("h", row, 0): True for row in rows}         # west ends point inward
    if corner:                                              # the central row turns down
        units.append(corner_unit(("h", central, width(central)), ("v", half_col, 0)))
    else:
        boundary.update((("h", row, width(row)), east) for row in unbarred)
    for x in reversed(range(len(cols))):                    # columns right to left
        col = cols[x]
        col_rows = half_rows if col == half_col else rows
        for k, row in enumerate(col_rows):
            units.append(vertex_unit(row, col, ("v", col, k), ("h", row, x + 1),
                                     ("v", col, k + 1), ("h", row, x)))
        boundary[("v", col, len(col_rows))] = False         # bottoms point out
        if not (corner and col == half_col):
            boundary[("v", col, 0)] = col in lam
    edges = set(boundary).union(e for u in units for e, _ in u.edges)
    return ModelSpec(
        family=family, lam=lam, n=n, rows=rows, full_cols=full_cols,
        half_col=half_col, half_rows=half_rows, central=central,
        bend_rows=bend_rows, units=tuple(units), boundary=boundary,
        edges=tuple(sorted(edges, key=_edge_name)),
    )
