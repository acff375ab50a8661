"""States as sign matrices: the dictionary, statistics, and the bijection.

A vertex maps to +1 when both horizontal arrows point in (the orientation
source, kind c2), to -1 when both vertical arrows point in (kind c1), and
to 0 otherwise; each cell is read from the kind the state records at its
vertex.  Bent families fill the left half of a matrix and complete
it by half-turn symmetry, entry(i,j) = entry(N+1-i, M+1-j).

For the B family at lambda = rho the completed matrices are exactly the
half-turn symmetric alternating sign matrices, and the matrix statistics
(inversion number, minus count, quartile counts) reproduce the lattice
weights under the shared-t specialization.  The statistics fold the
matrix row by row, and the same fold is the alternating-sign test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from operator import add, mul

from .laurent import LaurentPoly, Var
from .models import ModelSpec, build_model, rho
from .states import IceState, enumerate_states, state_weight
from .weights import make_okada

_CELL = {"c2": 1, "c1": -1}
_PARTIALS = {0, 1}


class AsmError(ValueError):
    pass


def matrix_layout(spec: ModelSpec) -> tuple:
    """``spec.cell_layout``, for a family with a direct matrix dictionary."""
    if spec.family == "BC":
        raise AsmError("BC states export via transposition of the D family; "
                       "no direct matrix dictionary")
    return spec.cell_layout


def state_to_matrix(state: IceState) -> tuple:
    """The sign matrix of a state, completed by half-turn symmetry."""
    nrows, ncols, cells, centre = matrix_layout(state.spec)
    grid = [None] * (nrows * ncols)
    tags = state.tags
    for i, cell, image in cells:
        grid[cell] = grid[image] = _CELL.get(tags[i], 0)
    # C family: the centre cell balances its column
    if centre is not None:
        middle, others = centre
        grid[middle] = 1 - sum(map(grid.__getitem__, others))
        if grid[middle] not in (-1, 0, 1):
            raise AsmError("center cell completion out of range")
    if None in grid:
        raise AsmError("incomplete matrix")
    return tuple(zip(*[iter(grid)] * ncols))


@cache
def _row_step(column_sums: tuple, row: tuple):
    """What one row of a square matrix adds, given the column sums of the
    rows above it: None if its partial sums leave {0, 1}, it does not sum to
    1 or a new column sum leaves {0, 1}; else the new column sums, the
    row's inversions against the rows above, its -1 count, its dot product
    with delta (doubled), and its +1 and -1 counts in the right half.

    The entries, the steps between partial sums, are then in -1..1.  Every
    matrix is folded only up to its first failing row, so the column sums
    are 0/1 vectors and the cache holds one entry per distinct pair met.
    """
    size = len(column_sums)
    if len(row) != size or not set(accumulate(row)) <= _PARTIALS or sum(row) != 1:
        return None
    new = tuple(map(add, column_sums, row))
    if not set(new) <= _PARTIALS:
        return None
    # inv sums matrix[i][j] * matrix[k][l] over i < k and l < j, so row k
    # pairs each entry l with the suffix sum, past l, of the column sums
    # of the rows above it
    right = list(accumulate(reversed(column_sums[1:])))[::-1]    # right[l] = sum(above[l+1:])
    inv = sum(map(mul, row, right))
    dot = sum(map(mul, row, range(size - 1, -size, -2)))         # doubled delta: 2n-1, ..., 1-2n
    half = row[size // 2:]
    return new, inv, row.count(-1), dot, half.count(1), half.count(-1)


def _row_steps(matrix):
    """The ``_row_step`` of each row of a square matrix, top to bottom, or
    None if it is not an alternating sign matrix: every row and column has
    partial sums in {0, 1} and sum 1.

    Every final column sum is then 1 without a further check: the N sums
    lie in {0, 1} and add up to N, the total of the N row sums.
    """
    if not matrix:
        return None
    column_sums = (0,) * len(matrix)
    steps = []
    for row in matrix:
        step = _row_step(column_sums, tuple(row))
        if step is None:
            return None
        column_sums = step[0]
        steps.append(step)
    return steps


def is_half_turn_symmetric(matrix) -> bool:
    """entry(i, j) == entry(N-1-i, M-1-j): each row is its partner row reversed."""
    return all(tuple(row) == tuple(reversed(partner))
               for row, partner in zip(matrix, reversed(matrix)))


# ---------------------------------------------------------------------------
# matrix statistics


@dataclass(frozen=True)
class OkadaStats:
    inv: int
    minus_count: int
    i1_plus: int
    i1_minus: int
    i2: int
    x_exponent: tuple      # doubled integers, first half of delta - A delta

    def to_json(self) -> dict:
        return {"inv": self.inv, "minus_count": self.minus_count,
                "i1_plus": self.i1_plus, "i1_minus": self.i1_minus,
                "i2": self.i2, "x_exponent_doubled": list(self.x_exponent)}


def okada_stats(matrix) -> OkadaStats:
    """Inversion/minus/quartile statistics of a half-turn symmetric ASM,
    summed row by row over the ``_row_step`` of each row."""
    steps = _row_steps(matrix)
    if steps is None:
        raise AsmError("statistics need a completed square ASM")
    if not is_half_turn_symmetric(matrix):
        raise AsmError("statistics need half-turn symmetry")
    size = len(matrix)
    if size % 2:
        raise AsmError("statistics are defined for even size 2n")
    n = size // 2
    _, invs, minuses, dots, pluses_right, minuses_right = zip(*steps)
    inv = sum(invs)
    minus_count = sum(minuses)
    i1_plus = sum(pluses_right[:n])          # the upper right quarter
    i1_minus = sum(minuses_right[:n])
    i2 = inv - i1_plus - i1_minus
    delta = range(size - 1, -size, -2)                  # doubled half-integers
    exponent = tuple(d - dot for d, dot in zip(delta, dots))
    if any(exponent[size - 1 - i] != -exponent[i] for i in range(size)):
        raise AsmError("exponent vector is not half-turn antisymmetric")
    if minus_count % 2 or (i2 - minus_count) % 2:
        raise AsmError("parity invariant breached in matrix statistics")
    return OkadaStats(inv=inv, minus_count=minus_count, i1_plus=i1_plus,
                      i1_minus=i1_minus, i2=i2, x_exponent=exponent[:n])


def okada_matrix_weight(st: OkadaStats) -> LaurentPoly:
    """The statistics-based weight of a matrix, in the shared t = q**2 and x's."""
    n = len(st.x_exponent)
    sign = -1 if (st.i1_plus + (st.i2 - st.minus_count) // 2) % 2 else 1
    q = Var.qshared()
    t_power = LaurentPoly.term(sign, [(q, 2 * (st.inv - st.minus_count))])
    one_minus_t2 = LaurentPoly.const(1) - LaurentPoly.term(1, [(q, 4)])
    xpart = LaurentPoly.term(1, [(Var.x(j + 1), st.x_exponent[j])
                                 for j in range(n)])
    return t_power * (one_minus_t2 ** (st.minus_count // 2)) * xpart


# ---------------------------------------------------------------------------
# the weight-preserving bijection (family B at lambda = rho)


def bijection_check(family: str, n: int, scheme=None) -> dict:
    """wt(matrix) == wt(state) for every state, plus the counting lemmas."""
    if family != "B":
        raise AsmError("the bijection with sign matrices is checked for family B only")
    spec = build_model("B", rho(n))
    scheme = scheme or make_okada("B", n)
    failures = []
    checked = 0
    for state in enumerate_states(spec):
        matrix = state_to_matrix(state)
        st = okada_stats(matrix)
        kinds = list(state.vertex_kinds().values())
        bends = state.bend_dirs()
        c1 = kinds.count("c1")
        b_total = kinds.count("b1") + kinds.count("b2")
        d_bends = sum(1 for d in bends.values() if d == "D")
        lattice = state_weight(state, scheme)
        from_matrix = okada_matrix_weight(st)
        checked += 1
        if st.minus_count != 2 * c1:
            failures.append(("minus-count lemma", matrix))
        elif st.inv - st.minus_count != b_total:
            failures.append(("inversion lemma", matrix))
        elif st.i1_plus - st.i1_minus != d_bends:
            failures.append(("D-vertex identity", matrix))
        elif lattice != from_matrix:
            failures.append(("weight mismatch", matrix))
        if failures:
            break
    return {"ok": not failures, "checked": checked, "failures": failures}


def matrix_text(matrix) -> str:
    return "\n".join(" ".join(f"{v:2d}" for v in row) for row in matrix)
