import itertools

import pytest

from bentice.models import (
    FAMILIES, ModelError, bar, build_model, check_strict_partition, has_bars, reduced, rho,
    row_layout,
)
from bentice.states import partition_function
from bentice.weights import BUILTIN_SCHEMES

from oracles import model_to_json, scheme_rows, vertex_count


class TestPartition:
    def test_valid(self):
        assert check_strict_partition([5, 4, 2]) == (5, 4, 2)

    def test_rejects_weak_decrease(self):
        with pytest.raises(ModelError):
            check_strict_partition([3, 3, 1])

    def test_rejects_zero_part(self):
        with pytest.raises(ModelError):
            check_strict_partition([2, 0])

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            check_strict_partition([])


def test_bar_involution():
    assert bar("3") == "3b"
    assert bar("3b") == "3"


class TestTypeA:
    def test_shape(self):
        spec = build_model("A", [5, 4, 2])
        assert spec.rows == ("1", "2", "3")
        assert spec.full_cols == (5, 4, 3, 2, 1)
        assert vertex_count(spec) == 15
        assert {u.kind for u in spec.units} == {"vertex"}

    def test_boundary_tops(self):
        spec = build_model("A", [5, 4, 2])
        tops = {col: spec.boundary[("v", col, 0)] for col in spec.full_cols}
        assert tops == {5: True, 4: True, 3: False, 2: True, 1: False}

    def test_boundary_sides(self):
        spec = build_model("A", [5, 4, 2])
        for row in spec.rows:
            assert spec.boundary[("h", row, 0)] is True      # west, in
            assert spec.boundary[("h", row, 5)] is False     # east end, in
        for col in spec.full_cols:
            assert spec.boundary[("v", col, 3)] is False     # bottom, out


class TestTypeB:
    def test_smallest(self):
        spec = build_model("B", [1])
        assert spec.rows == ("1", "1b")
        assert spec.full_cols == (1,)
        assert [u.kind for u in spec.units].count("bend") == 1
        assert vertex_count(spec) == 2

    def test_rho_vertex_count(self):
        # 2n^2 tetravalent vertices at lambda = rho
        spec = build_model("B", [2, 1])
        assert vertex_count(spec) == 8
        spec = build_model("B", [3, 2, 1])
        assert vertex_count(spec) == 18

    def test_bend_edges_are_internal(self):
        spec = build_model("B", [2, 1])
        bends = [u for u in spec.units if u.kind == "bend"]
        assert len(bends) == 2
        for b in bends:
            (top_edge, _), (bottom_edge, _) = b.edges
            assert top_edge not in spec.boundary
            assert bottom_edge not in spec.boundary


class TestCentralRowFamilies:
    def test_bstar_rows_and_ends(self):
        spec = build_model("Bstar", [4, 2])
        assert spec.rows == ("1", "2", "0", "2b", "1b")
        assert spec.boundary[("h", "0", 0)] is True      # west in
        assert spec.boundary[("h", "0", 4)] is True      # east out

    def test_bc_rows_and_ends(self):
        spec = build_model("BC", [5, 4, 1])
        assert spec.rows == ("1", "2", "3", "2b", "1b")
        assert spec.central == "3"
        assert spec.bend_rows == ("1", "2")
        assert spec.boundary[("h", "3", 0)] is True      # west in
        assert spec.boundary[("h", "3", 5)] is False     # east in

    def test_c_has_corner_and_half_column(self):
        spec = build_model("C", [2, 1])
        assert spec.half_col == 0
        corners = [u for u in spec.units if u.kind == "corner"]
        assert len(corners) == 1
        (h_edge, _), (v_edge, _) = corners[0].edges
        assert h_edge == ("h", "0", 2)
        assert v_edge == ("v", 0, 0)
        assert ("v", 0, 0) not in spec.boundary          # internal edge
        assert spec.boundary[("v", 0, 2)] is False       # bottom out
        assert vertex_count(spec) == 2 * 5 + 2


class TestHalfColumnFamilies:
    def test_cstar_top_edge_always_in(self):
        for lam in ([2, 1], [3, 2]):
            spec = build_model("Cstar", lam)
            assert spec.boundary[("v", 0, 0)] is False

    def test_d_half_column_counts_in_lambda_rule(self):
        spec = build_model("D", [5, 1])
        assert spec.full_cols == (5, 4, 3, 2)
        assert spec.half_col == 1
        assert spec.boundary[("v", 1, 0)] is True        # 1 in lambda: out
        spec = build_model("D", [5, 2])
        assert spec.boundary[("v", 1, 0)] is False       # 1 not in lambda: in

    def test_d_half_column_rows(self):
        spec = build_model("D", [3, 2, 1])
        assert spec.half_rows == ("3b", "2b", "1b")


def test_determinism():
    a = build_model("C", [3, 1])
    b = build_model("C", [3, 1])
    assert a == b
    assert model_to_json(a) == model_to_json(b)


def test_outward_top_arrow_count_is_n():
    for family in ("A", "B", "Bstar", "C", "Cstar", "D", "BC"):
        for lam in ([2, 1], [3, 1], [4, 2]):
            spec = build_model(family, lam)
            cols = list(spec.full_cols) + ([spec.half_col] if spec.half_col is not None else [])
            outs = sum(
                1 for col in cols
                if ("v", col, 0) in spec.boundary and spec.boundary[("v", col, 0)]
            )
            assert outs == spec.n, (family, lam)


@pytest.mark.parametrize("family", FAMILIES)
def test_row_layout_is_the_rows_of_model_and_schemes(family):
    for n in range(1, 5):
        regular, central = row_layout(family, n)
        spec = build_model(family, range(n, 0, -1))
        assert has_bars(family) == (family != "A")
        assert spec.bend_rows == (regular if has_bars(family) else ()), n
        assert spec.central == central, n
        for regime, make in BUILTIN_SCHEMES.items():
            if family == "A" and regime == "okada":
                continue
            # family A has no barred rows, in its model and its schemes alike
            scheme = make(family, n)
            assert set(scheme_rows(scheme)) == set(spec.rows), (regime, n)
            bend_rows = set(spec.bend_rows) | {bar(j) for j in spec.bend_rows}
            assert set(scheme.bend_up) == set(scheme.bend_down) == bend_rows, (regime, n)


def test_rho_is_the_staircase():
    assert [list(rho(n)) for n in range(4)] == [[], [1], [2, 1], [3, 2, 1]]


# every strict partition with at most 3 parts and lambda_1 <= 6
STRICT = [lam for n in (1, 2, 3) for lam in itertools.combinations(range(6, 0, -1), n)]


@pytest.mark.parametrize("lam", [lam for lam in STRICT if 1 not in lam],
                         ids=lambda lam: ",".join(map(str, lam)))
def test_d_without_1_has_the_partition_function_of_its_reduction(lam):
    family, base = reduced("D", lam)
    assert (family, base) == ("Cstar", tuple(p - 1 for p in lam))
    d, cstar = build_model("D", lam), build_model(family, base)
    for regime, make in BUILTIN_SCHEMES.items():
        assert (partition_function(d, make("D", len(lam)))
                == partition_function(cstar, make(family, len(lam)))), regime


@pytest.mark.parametrize("family", FAMILIES)
def test_every_other_model_is_its_own_reduction(family):
    for lam in STRICT:
        if family != "D" or 1 in lam:
            assert reduced(family, lam) == (family, lam), lam
