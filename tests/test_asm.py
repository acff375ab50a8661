import itertools
import random

import pytest

from bentice import asm
from bentice.asm import (
    AsmError, OkadaStats, bijection_check, is_half_turn_symmetric, matrix_layout,
    okada_matrix_weight, okada_stats, state_to_matrix,
)
from bentice.laurent import LaurentPoly, Var
from bentice.models import FAMILIES, build_model
from bentice.states import enumerate_states, state_weight
from bentice.weights import make_okada

from oracles import (
    asm_matrices, chain_to_c_matrix, edge_bits, htsasm_matrices, interleave_chain, is_asm,
)

FIG_BSTAR_42 = (
    (1, -1, 0, 0, 1, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, -1, -1, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 0, -1, 1),
)
FIG_CSTAR_32 = (
    (1, 0, -1, 1, 0, 0, 0),
    (0, 1, 0, -1, 1, 0, 0),
    (0, 0, 1, -1, 0, 1, 0),
    (0, 0, 0, 1, -1, 0, 1),
)


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def antidiagonal_matrix(n):
    return tuple(tuple(1 if i + j == n - 1 else 0 for j in range(n)) for i in range(n))


class TestIndependentEnumerators:
    def test_asm_counts(self):
        assert [len(asm_matrices(n)) for n in range(1, 6)] == [1, 2, 7, 42, 429]

    def test_htsasm_even_counts(self):
        assert [len(htsasm_matrices(n)) for n in (2, 4, 6)] == [2, 10, 140]

    def test_htsasm_odd_counts(self):
        assert [len(htsasm_matrices(n)) for n in (1, 3, 5)] == [1, 3, 25]

    def test_is_asm_rejects_bad_column(self):
        assert not is_asm(((0, 1), (0, 1)))
        assert is_asm(identity_matrix(3))

    def test_is_asm_rejects_ragged_rows(self):
        assert not is_asm(((1, 0), (0, 1, 0)))
        assert not is_asm(((1, 0, 0), (0, 1), (0, 0, 1)))


def is_asm_per_cell(matrix) -> bool:
    """The cell-by-cell ASM test that the row-by-row one replaced, kept as an oracle."""
    rows = [list(r) for r in matrix]
    if not rows or len(rows) != len(rows[0]):
        return False
    for line in rows + [list(col) for col in zip(*rows)]:
        if any(v not in (-1, 0, 1) for v in line):
            return False
        partial = 0
        for v in line:
            partial += v
            if partial not in (0, 1):
                return False
        if partial != 1:
            return False
    return True


def is_half_turn_symmetric_per_cell(matrix) -> bool:
    """The cell-by-cell symmetry test that the row-by-row one replaced, kept as an oracle."""
    n = len(matrix)
    m = len(matrix[0])
    return all(matrix[i][j] == matrix[n - 1 - i][m - 1 - j]
               for i in range(n) for j in range(m))


def half_turn_image(matrix) -> tuple:
    return tuple(tuple(reversed(row)) for row in reversed(matrix))


def random_matrices():
    """3000 random matrices, square about half the time, each followed by
    its top half completed by half-turn symmetry and by that completion
    with one cell changed."""
    rng = random.Random(20261019)
    for _ in range(3000):
        nrows, ncols = rng.randint(1, 6), rng.choice([None, rng.randint(1, 6)])
        ncols = nrows if ncols is None else ncols
        low = rng.choice([-2, -1, 0])
        matrix = tuple(tuple(rng.randint(low, min(low + 2, 2)) for _ in range(ncols))
                       for _ in range(nrows))
        yield matrix
        # complete the top half by half-turn symmetry, then maybe break one cell
        top = matrix[:(nrows + 1) // 2]
        symmetric = [list(row) for row in top + half_turn_image(top)[nrows % 2:]]
        if nrows % 2:
            middle = symmetric[nrows // 2]
            middle[ncols // 2:] = reversed(middle[:(ncols + 1) // 2])
        assert is_half_turn_symmetric_per_cell(symmetric)
        yield tuple(map(tuple, symmetric))
        symmetric[rng.randrange(nrows)][rng.randrange(ncols)] = rng.randint(-2, 2)
        yield tuple(map(tuple, symmetric))


def one_cell_changes(n):
    """Every n x n ASM, each followed by its copies with one cell set to -2..2."""
    for matrix in asm_matrices(n):
        yield matrix
        for i in range(n):
            for j in range(n):
                for v in (-2, -1, 0, 1, 2):
                    rows = [list(row) for row in matrix]
                    rows[i][j] = v
                    yield tuple(map(tuple, rows))


class TestRowByRowChecksAgreeWithThePerCellOracles:
    @staticmethod
    def agree(matrix):
        for form in (matrix, [list(row) for row in matrix]):
            assert is_asm(form) == is_asm_per_cell(form), matrix
            assert is_half_turn_symmetric(form) == is_half_turn_symmetric_per_cell(form), matrix

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_asm_and_its_one_cell_changes(self, n):
        for matrix in asm_matrices(n):
            assert is_asm(matrix)
        for matrix in one_cell_changes(n):
            self.agree(matrix)

    def test_random_matrices(self):
        for matrix in random_matrices():
            self.agree(matrix)


class TestOkadaStatsChecksEveryRow:
    ASM_MESSAGE = "^statistics need a completed square ASM$"

    def raises_exactly_on_non_asms(self, matrix):
        for form in (matrix, [list(row) for row in matrix]):
            if is_asm_per_cell(form):
                try:
                    okada_stats(form)
                except AsmError as exc:
                    assert str(exc) != "statistics need a completed square ASM", matrix
            else:
                with pytest.raises(AsmError, match=self.ASM_MESSAGE):
                    okada_stats(form)

    def test_random_matrices(self):
        for matrix in random_matrices():
            self.raises_exactly_on_non_asms(matrix)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_asm_and_its_one_cell_changes(self, n):
        for matrix in one_cell_changes(n):
            self.raises_exactly_on_non_asms(matrix)


def row_step_by_definition(column_sums, row):
    """Oracle: what ``asm._row_step`` returns, each part from its definition."""
    size = len(column_sums)
    partials = [sum(row[:k + 1]) for k in range(len(row))]
    new = tuple(c + v for c, v in zip(column_sums, row))
    if len(row) != size or any(p not in (0, 1) for p in partials) or sum(row) != 1 \
            or any(c not in (0, 1) for c in new):
        return None
    inv = sum(row[l] * column_sums[j] for l in range(size) for j in range(l + 1, size))
    # delta_j = n - j - 1/2 at size 2n, doubled
    dot = sum(row[j] * (size - 1 - 2 * j) for j in range(size))
    right = [row[j] for j in range(size) if j >= size // 2]
    return new, inv, list(row).count(-1), dot, right.count(1), right.count(-1)


class TestRowStep:
    @pytest.mark.parametrize("size, entries", [
        (1, (-2, -1, 0, 1, 2)), (2, (-2, -1, 0, 1, 2)), (3, (-2, -1, 0, 1, 2)),
        (4, (-2, -1, 0, 1, 2)), (5, (-1, 0, 1)), (6, (-1, 0, 1))])
    def test_every_row_against_every_0_1_column_sums(self, size, entries):
        rows = list(itertools.product(entries, repeat=size))
        for column_sums in itertools.product((0, 1), repeat=size):
            for row in rows:
                assert asm._row_step(column_sums, row) == \
                    row_step_by_definition(column_sums, row), (column_sums, row)

    def test_a_row_of_another_length_fails(self):
        assert asm._row_step((0, 0), (1,)) is None
        assert asm._row_step((0, 0), (0, 1, 0)) is None


_CELL = {"c2": 1, "c1": -1}


def state_to_matrix_per_state(state) -> tuple:
    """The dictionary as it was before the cell layout was compiled per
    model, kept as an oracle: it rebuilds the grid shape and every vertex's
    cell for each state."""
    spec = state.spec
    if spec.family == "BC":
        raise AsmError("BC states export via transposition of the D family; "
                       "no direct matrix dictionary")
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
    bits = edge_bits(spec.units, spec.boundary, state.tags)
    for unit in spec.units:
        if unit.kind == "vertex":
            row, col = unit.label
            i, j = row_at[row], col_at[col]
            kind = dict(zip(unit.configs, unit.tags))[tuple(bits[e] for e, _pol in unit.edges)]
            grid[i][j] = _CELL.get(kind, 0)
            if half_turn:
                grid[nrows - 1 - i][ncols - 1 - j] = grid[i][j]
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


# every family with a dictionary at every strict lambda with n <= 3 and
# lambda_1 <= 4 (C[4,3,1] among them), and B[4,3,2,1]
DICTIONARY_CASES = [(family, list(lam)) for family in FAMILIES if family != "BC"
                    for n in range(1, 4)
                    for lam in itertools.combinations(range(4, 0, -1), n)]
DICTIONARY_CASES.append(("B", [4, 3, 2, 1]))


@pytest.mark.parametrize("family, lam", DICTIONARY_CASES,
                         ids=[f"{family}[{','.join(map(str, lam))}]"
                              for family, lam in DICTIONARY_CASES])
def test_state_to_matrix_matches_the_per_state_dictionary(family, lam):
    states = enumerate_states(build_model(family, lam))
    assert states
    for state in states:
        assert state_to_matrix(state) == state_to_matrix_per_state(state)


def test_family_bc_has_no_layout():
    spec = build_model("BC", [2, 1])
    message = "^BC states export via transposition of the D family; no direct matrix dictionary$"
    with pytest.raises(AsmError, match=message):
        matrix_layout(spec)
    with pytest.raises(AsmError, match=message):
        state_to_matrix(enumerate_states(spec)[0])


class TestDictionary:
    def test_a_singleton(self):
        (state,) = enumerate_states(build_model("A", [1]))
        assert state_to_matrix(state) == ((1,),)

    def test_a_rho_images_are_all_asms(self):
        spec = build_model("A", [3, 2, 1])
        images = {state_to_matrix(s) for s in enumerate_states(spec)}
        assert images == set(asm_matrices(3))

    @pytest.mark.parametrize("n", [1, 2])
    def test_b_rho_images_are_htsasms(self, n):
        spec = build_model("B", list(range(n, 0, -1)))
        images = [state_to_matrix(s) for s in enumerate_states(spec)]
        assert len(set(images)) == len(images)          # injective
        assert all(is_asm(m) and is_half_turn_symmetric(m) for m in images)
        assert set(images) == set(htsasm_matrices(2 * n))

    @pytest.mark.parametrize("n", [1, 2])
    def test_c_rho_images_are_odd_htsasms(self, n):
        spec = build_model("C", list(range(n, 0, -1)))
        images = [state_to_matrix(s) for s in enumerate_states(spec)]
        assert len(set(images)) == len(images)
        assert set(images) == set(htsasm_matrices(2 * n + 1))

    def test_printed_bstar_matrix_has_unique_source(self):
        images = [state_to_matrix(s)
                  for s in enumerate_states(build_model("Bstar", [4, 2]))]
        assert images.count(FIG_BSTAR_42) == 1
        assert len(set(images)) == len(images)

    def test_printed_cstar_matrix_has_unique_source(self):
        images = [state_to_matrix(s)
                  for s in enumerate_states(build_model("Cstar", [3, 2]))]
        assert images.count(FIG_CSTAR_32) == 1

    def test_bc_export_unsupported(self):
        (state,) = [s for s in enumerate_states(build_model("BC", [1]))][:1]
        with pytest.raises(AsmError):
            state_to_matrix(state)

    def test_d_shape(self):
        spec = build_model("D", [2, 1])
        m = state_to_matrix(enumerate_states(spec)[0])
        assert len(m) == 4 and len(m[0]) == 3
        assert is_half_turn_symmetric(m)


class TestOkadaStats:
    def test_identity_matrix(self):
        st = okada_stats(identity_matrix(4))
        assert (st.inv, st.minus_count) == (0, 0)
        assert st.x_exponent == (0, 0)
        assert okada_matrix_weight(okada_stats(identity_matrix(4))) == LaurentPoly.const(1)

    def test_antidiagonal_matrix(self):
        st = okada_stats(antidiagonal_matrix(4))
        assert st.minus_count == 0
        # J*delta = -delta, so the exponent vector is 2*delta
        assert st.x_exponent == (6, 2)

    def test_formula_instance(self):
        # any matrix with s=0, i1+=1, i2=0 has i=1 and weight -t * x-part
        found = False
        for m in htsasm_matrices(4):
            st = okada_stats(m)
            if st.minus_count == 0 and st.i1_plus == 1 and st.i2 == 0:
                w = okada_matrix_weight(st)
                expect = -LaurentPoly.term(1, [(Var.qshared(), 2)]) * LaurentPoly.term(
                    1, [(Var.x(j + 1), e) for j, e in enumerate(st.x_exponent)])
                assert w == expect
                found = True
        assert found

    def test_rejects_non_asm(self):
        with pytest.raises(AsmError):
            okada_stats(((1, 1), (0, -1)))

    def test_cross_check_with_source_state(self):
        # statistics agree with per-vertex counts on every B^rho state
        spec = build_model("B", [2, 1])
        scheme = make_okada("B", 2)
        for state in enumerate_states(spec):
            m = state_to_matrix(state)
            st = okada_stats(m)
            kinds = list(state.vertex_kinds().values())
            assert st.minus_count == 2 * kinds.count("c1")
            assert st.inv - st.minus_count == kinds.count("b1") + kinds.count("b2")
            assert okada_matrix_weight(st) == state_weight(state, scheme)


def stats_by_definition(matrix) -> OkadaStats:
    """Oracle: the statistics of an even half-turn symmetric ASM, with the
    inversion number summed straight from its O(N^4) definition."""
    size = len(matrix)
    n = size // 2
    inv = 0
    for i in range(size):
        for k in range(i + 1, size):
            for j in range(size):
                for l in range(j):
                    inv += matrix[i][j] * matrix[k][l]
    minus_count = sum(1 for row in matrix for v in row if v == -1)
    i1_plus = sum(1 for i in range(n) for j in range(n, size) if matrix[i][j] == 1)
    i1_minus = sum(1 for i in range(n) for j in range(n, size) if matrix[i][j] == -1)
    delta = [2 * (n - i) - 1 for i in range(size)]
    a_delta = [sum(matrix[i][j] * delta[j] for j in range(size)) for i in range(size)]
    exponent = tuple(delta[i] - a_delta[i] for i in range(size))
    return OkadaStats(inv=inv, minus_count=minus_count, i1_plus=i1_plus,
                      i1_minus=i1_minus, i2=inv - i1_plus - i1_minus, x_exponent=exponent[:n])


class TestOkadaStatsAgainstTheDefinition:
    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_every_htsasm(self, size):
        for m in htsasm_matrices(size):
            assert okada_stats(m) == stats_by_definition(m), m

    def test_every_b_rho_matrix_at_n_4(self):
        states = enumerate_states(build_model("B", [4, 3, 2, 1]))
        assert len(states) == 5544
        for state in states:
            m = state_to_matrix(state)
            assert okada_stats(m) == stats_by_definition(m), m

    @pytest.mark.parametrize("matrix, message", [
        (((1, 1), (0, -1)), "statistics need a completed square ASM"),
        (((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
         "statistics need half-turn symmetry"),
        (identity_matrix(3), "statistics are defined for even size 2n"),
    ])
    def test_each_rejection_keeps_its_message(self, matrix, message):
        with pytest.raises(AsmError, match=f"^{message}$"):
            okada_stats(matrix)

    @pytest.mark.parametrize("matrix, message", [
        (((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
         "exponent vector is not half-turn antisymmetric"),
        (((0, 0, 1, 0), (0, 1, 0, 0), (1, -1, 0, 1), (0, 1, 0, 0)),
         "parity invariant breached in matrix statistics"),
    ])
    def test_the_invariant_checks_keep_their_messages(self, monkeypatch, matrix, message):
        # no half-turn symmetric ASM breaks these, so skip the symmetry check
        # to reach them with an ASM that has no half-turn symmetry
        monkeypatch.setattr(asm, "is_half_turn_symmetric", lambda m: True)
        with pytest.raises(AsmError, match=f"^{message}$"):
            okada_stats(matrix)


class TestBijection:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_b_family(self, n):
        result = bijection_check("B", n)
        assert result["ok"]
        assert result["checked"] == len(htsasm_matrices(2 * n))

    def test_detector_sanity(self):
        # corrupting the weight table must produce a witness state
        base = make_okada("B", 1)
        entries = dict(base.vertex)
        entries[("b1", "1")] = entries[("b1", "1")] * LaurentPoly.const(2)
        bad = base.__class__(name="bad", family="B", n=1, vertex=entries,
                             bend_up=base.bend_up, bend_down=base.bend_down)
        result = bijection_check("B", 1, scheme=bad)
        assert not result["ok"] and result["failures"]

    def test_unsupported_family(self):
        with pytest.raises(AsmError):
            bijection_check("C", 1)

    def test_each_matrix_is_measured_once(self, monkeypatch):
        calls = []

        def counted(matrix):
            calls.append(matrix)
            return okada_stats(matrix)

        monkeypatch.setattr(asm, "okada_stats", counted)
        result = bijection_check("B", 2)
        assert result["ok"] and result["checked"] == 10
        assert len(calls) == 10


class TestInterleaveChain:
    def test_paper_example_chain(self):
        # the B^{[2,1]} state whose chain is [2,1],[2],[1],(),()
        target = [(2, 1), (2,), (1,), (), ()]
        spec = build_model("B", [2, 1])
        chains = [interleave_chain(s) for s in enumerate_states(spec)]
        assert target in chains
        idx = chains.index(target)
        c = chain_to_c_matrix(target, 2)
        assert c == ((0, 1), (1, -1), (0, 1), (0, 0))
        m = state_to_matrix(enumerate_states(spec)[idx])
        assert tuple(tuple(r[:2]) for r in m) == c

    def test_chain_starts_at_lambda(self):
        spec = build_model("B", [3, 1])
        for s in enumerate_states(spec):
            assert interleave_chain(s)[0] == (3, 1)

    def test_identity_state_drops_parts_late(self):
        # all bends down, part lambda_j leaving below row jb: the identity
        # state keeps the full partition through the whole top half
        spec = build_model("B", [2, 1])
        chains = [interleave_chain(s) for s in enumerate_states(spec)
                  if all(d == "D" for d in s.bend_dirs().values())]
        assert [(2, 1), (2, 1), (2, 1), (2,), ()] in chains

    def test_roundtrip_to_matrix_left_half(self):
        spec = build_model("B", [3, 2])
        for s in enumerate_states(spec):
            c = chain_to_c_matrix(interleave_chain(s), 3)
            left = tuple(tuple(row[:3]) for row in state_to_matrix(s))
            assert c == left
