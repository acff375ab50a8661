"""States as sign matrices: the dictionary, statistics, and bijections.

A vertex maps to +1 when both horizontal arrows point in (the orientation
source, kind c2), to -1 when both vertical arrows point in (kind c1), and
to 0 otherwise.  Bent families fill the left half of a matrix and complete
it by half-turn symmetry, entry(i,j) = entry(N+1-i, M+1-j).

For the B family at lambda = rho the completed matrices are exactly the
half-turn symmetric alternating sign matrices, and the matrix statistics
(inversion number, minus count, quartile counts) reproduce the lattice
weights under the shared-t specialization.  Independent brute-force
enumerators for ASMs and their half-turn symmetric subclass serve as
oracles for the counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from operator import add, mul

from .laurent import LaurentPoly, Var
from .models import build_model
from .states import IceState, enumerate_states, state_weight
from .weights import make_okada

_CELL = {"c2": 1, "c1": -1}
_PARTIALS = {0, 1}


class AsmError(ValueError):
    pass


def state_to_matrix(state: IceState) -> tuple:
    """The sign matrix of a state, completed by half-turn symmetry."""
    spec = state.spec
    if spec.family == "BC":
        raise AsmError("BC states export via transposition of the D family; "
                       "no direct matrix dictionary")
    # outside family A each vertex also fills its half-turn image, a cell
    # that no vertex fills
    half_turn = spec.family != "A"
    nrows = len(spec.rows)
    n_full = len(spec.full_cols)
    has_center_col = spec.half_col is not None
    ncols = 2 * n_full + (1 if has_center_col else 0) if half_turn else n_full
    row_at = {r: i for i, r in enumerate(spec.rows)}
    col_at = {c: j for j, c in enumerate(spec.full_cols)}
    if has_center_col:
        col_at[spec.half_col] = n_full
    grid = [[None] * ncols for _ in range(nrows)]
    orientation = state.orientation
    for unit, bits_of in spec.unit_table:
        if unit.kind == "vertex":
            row, col = unit.label
            i, j = row_at[row], col_at[col]
            grid[i][j] = _CELL.get(unit.tag_of[bits_of(orientation)], 0)
            if half_turn:
                grid[nrows - 1 - i][ncols - 1 - j] = grid[i][j]
    # C family: the center cell balances its column
    if has_center_col and nrows % 2 == 1:
        ci, cj = nrows // 2, ncols // 2
        if grid[ci][cj] is None:
            col_sum = sum(grid[i][cj] for i in range(nrows) if i != ci)
            grid[ci][cj] = 1 - col_sum
            if grid[ci][cj] not in (-1, 0, 1):
                raise AsmError("center cell completion out of range")
    if any(None in row for row in grid):
        raise AsmError("incomplete matrix")
    return tuple(tuple(row) for row in grid)


def is_asm(matrix) -> bool:
    """Full alternating-sign-matrix test (square matrices)."""
    if not matrix or len(matrix) != len(matrix[0]):
        return False
    # every row and column has partial sums in {0, 1} and sum 1; entries,
    # the steps between partial sums, are then in -1..1
    return all(set(accumulate(line)) <= _PARTIALS and sum(line) == 1
               for line in chain(matrix, zip(*matrix)))


def is_half_turn_symmetric(matrix) -> bool:
    """entry(i, j) == entry(N-1-i, M-1-j): each row is its partner row reversed."""
    return all(tuple(row) == tuple(reversed(partner))
               for row, partner in zip(matrix, reversed(matrix)))


def asm_matrices(n: int) -> list:
    """All n x n alternating sign matrices, by depth-first row filling."""
    results = []
    rows: list = []

    def candidate_rows(col_partials):
        # rows whose prefix sums stay in {0,1} and keep column partials legal
        out = []

        def rec(j, row, row_partial):
            if j == n:
                if row_partial == 1:
                    out.append(tuple(row))
                return
            for v in (-1, 0, 1):
                if row_partial + v in (0, 1) and col_partials[j] + v in (0, 1):
                    row.append(v)
                    rec(j + 1, row, row_partial + v)
                    row.pop()

        rec(0, [], 0)
        return out

    def dfs(i, col_partials):
        if i == n:
            if all(p == 1 for p in col_partials):
                results.append(tuple(rows))
            return
        for row in candidate_rows(col_partials):
            rows.append(row)
            dfs(i + 1, [p + v for p, v in zip(col_partials, row)])
            rows.pop()

    dfs(0, [0] * n)
    return results


def htsasm_matrices(n: int) -> list:
    """Half-turn symmetric n x n ASMs, independently of any ice model."""
    return [m for m in asm_matrices(n) if is_half_turn_symmetric(m)]


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
    """Inversion/minus/quartile statistics of a half-turn symmetric ASM."""
    if not is_asm(matrix):
        raise AsmError("statistics need a completed square ASM")
    if not is_half_turn_symmetric(matrix):
        raise AsmError("statistics need half-turn symmetry")
    size = len(matrix)
    if size % 2:
        raise AsmError("statistics are defined for even size 2n")
    n = size // 2
    # inv sums matrix[i][j] * matrix[k][l] over i < k and l < j, so row k
    # pairs each entry l with the suffix sum, past l, of the column sums of
    # the rows above it
    inv = 0
    above = [0] * size
    for row in matrix:
        right = list(accumulate(reversed(above[1:])))[::-1]    # right[l] = sum(above[l+1:])
        inv += sum(map(mul, row, right))
        above = list(map(add, above, row))
    minus_count = sum(row.count(-1) for row in matrix)
    quartile = [v for row in matrix[:n] for v in row[n:]]      # the upper right quarter
    i1_plus, i1_minus = quartile.count(1), quartile.count(-1)
    i2 = inv - i1_plus - i1_minus
    delta = [2 * (n - i) - 1 for i in range(size)]       # doubled half-integers
    exponent = tuple(d - sum(map(mul, row, delta)) for d, row in zip(delta, matrix))
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
        raise AsmError("the matrix statistics are printed for family B only")
    rho = list(range(n, 0, -1))
    spec = build_model("B", rho)
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


# ---------------------------------------------------------------------------
# interleaving partition chain (family B)


def interleave_chain(state: IceState) -> list:
    """Up-arrow column sets between consecutive rows, top to bottom."""
    spec = state.spec
    if spec.family != "B":
        raise AsmError("the partition chain is defined for family B states")
    n = spec.n
    chain = []
    for gap in range(2 * n + 1):
        parts = tuple(sorted((c for c in spec.full_cols
                              if state.bit(("v", c, gap))), reverse=True))
        chain.append(parts)
    if chain[0] != spec.lam:
        raise AsmError("chain must start at lambda")
    if chain[-1] != ():
        raise AsmError("chain must end empty")
    for upper, lower in zip(chain, chain[1:]):
        for j in range(len(lower)):
            if not (j < len(upper) and upper[j] >= lower[j]
                    and (j + 1 >= len(upper) or lower[j] >= upper[j + 1])):
                raise AsmError(f"interleaving violated between {upper} and {lower}")
        if len(lower) > len(upper):
            raise AsmError("chain lengths may not grow downward")
    for i in range(1, n + 2):
        if len(chain[i - 1]) - len(chain[2 * n + 1 - i]) != n + 1 - i:
            raise AsmError("length bookkeeping violated")
    return chain


def chain_to_c_matrix(chain, lam1: int) -> tuple:
    """Row differences of the part-indicator matrix; entries in -1,0,1."""
    b_rows = [[1 if col in parts else 0 for col in range(lam1, 0, -1)]
              for parts in chain[:-1]]
    out = []
    for i in range(len(b_rows)):
        if i + 1 < len(b_rows):
            row = [a - b for a, b in zip(b_rows[i], b_rows[i + 1])]
        else:
            row = b_rows[i]
        if any(v not in (-1, 0, 1) for v in row):
            raise AsmError("chain differences leave -1,0,1")
        out.append(tuple(row))
    return tuple(out)


def matrix_text(matrix) -> str:
    return "\n".join(" ".join(f"{v:2d}" for v in row) for row in matrix)
