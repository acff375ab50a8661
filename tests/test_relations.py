import itertools
from dataclasses import replace

import pytest

from bentice import relations
from bentice.laurent import GI, LaurentPoly, Var
from bentice.models import build_model, rho
from bentice.relations import (
    bend_ybe_check, caduceus_check, fish_check, fish_closed_form,
    jellyfish_check, jellyfish_closed_form, ybe_check,
)
from bentice.weights import (
    WeightScheme, make_character, make_deformation, make_generic,
)

from oracles import zero

ONE = LaurentPoly.const(1)
I = LaurentPoly.const(GI)


def with_bend_down(scheme, w):
    """The scheme with D^(r) = w in every bend row."""
    return replace(scheme, bend_down=dict.fromkeys(scheme.bend_down, w))


def const_rows(**kinds):
    return {k: LaurentPoly.const(v) for k, v in kinds.items()}


class TestYbe:
    def test_deformation_rows_pass(self):
        s = make_deformation("B", 2)
        v = ybe_check(s.row_weights("1"), s.row_weights("2"))
        assert v.ok and v.checked == 64

    def test_generic_symbolic_rows_pass(self):
        s = make_generic("B", 2)
        v = ybe_check(s.row_weights("1"), s.row_weights("2"))
        assert v.ok

    def test_all_ones_fails_with_witness(self):
        w = const_rows(a1=1, a2=1, b1=1, b2=1, c1=1, c2=1)  # delta = 1
        v = ybe_check(w, dict(w))
        assert not v.ok
        assert v.witness is not None

    def test_field_free_pythagorean_passes(self):
        wj = const_rows(a1=3, a2=3, b1=4, b2=4, c1=5, c2=5)
        wk = const_rows(a1=5, a2=5, b1=12, b2=12, c1=13, c2=13)
        assert ybe_check(wj, wk).ok


class TestBendYbe:
    def test_table_weights_pass(self):
        s = make_generic("B", 2)
        v = bend_ybe_check(s, 1, 2)
        assert v.ok and v.checked == 16

    def test_mismatched_ratio_fails(self):
        s = replace(make_generic("B", 2), bend_down={"1": I, "1b": I, "2": ONE, "2b": ONE})
        v = bend_ybe_check(s, 1, 2)
        assert not v.ok and v.witness is not None

    def test_character_weights_pass_despite_ratios(self):
        # c1 = 0 makes the identity unconditional
        s = replace(make_character("B", 2), bend_down={"1": I, "1b": I, "2": ONE, "2b": ONE})
        assert bend_ybe_check(s, 1, 2).ok

    def test_missing_bend_row_is_named(self):
        # BC at n = 2 has one regular row, so row 2 carries no bend
        with pytest.raises(ValueError, match="generic weights of family BC have no bend row 2"):
            bend_ybe_check(make_generic("BC", 2), 1, 2)

    def test_zero_bend_is_not_a_missing_one(self):
        s = replace(make_generic("B", 2), bend_down={"1": I, "1b": I, "2": zero(), "2b": zero()})
        with pytest.raises(ValueError, match=r"^D\^\(2\) must be nonzero$"):
            bend_ybe_check(s, 1, 2)


class TestFish:
    def test_b_closed_form(self):
        s = make_generic("B", 1)
        v = fish_check(s, 1)
        assert v.ok and v.closed_form_ok
        a1, a2 = LaurentPoly.var(Var.a1(1)), LaurentPoly.var(Var.a2(1))
        b1, b2 = LaurentPoly.var(Var.b1(1)), LaurentPoly.var(Var.b2(1))
        assert fish_closed_form(s, 1) == (a1 - I * b2) * (a2 + I * b1)

    def test_cstar_closed_form(self):
        s = make_generic("Cstar", 1)
        v = fish_check(s, 1)
        assert v.ok and v.closed_form_ok
        a2, b1 = LaurentPoly.var(Var.a2(1)), LaurentPoly.var(Var.b1(1))
        assert fish_closed_form(s, 1) == a2 * a2 + b1 * b1

    def test_d_with_1_closed_form(self):
        s = make_generic("D", 1)
        v = fish_check(s, 1)
        assert v.ok and v.closed_form_ok
        a1, b2 = LaurentPoly.var(Var.a1(1)), LaurentPoly.var(Var.b2(1))
        assert fish_closed_form(s, 1) == a1 * a1 + b2 * b2

    def test_b_with_unit_ratio_fails(self):
        s = with_bend_down(make_generic("B", 1), ONE)
        v = fish_check(s, 1)
        assert not v.ok and v.witness is not None

    def test_deformation_weights_pass(self):
        s = make_deformation("B", 2)
        assert fish_check(s, 2).ok

    def test_zero_bend_is_error(self):
        s = with_bend_down(make_generic("B", 1), zero())
        with pytest.raises(ValueError):
            fish_check(s, 1)


class TestJellyfish:
    def test_c_closed_form(self):
        s = make_generic("C", 1)
        v = jellyfish_check(s, 1)
        assert v.ok and v.closed_form_ok

    def test_bstar_closed_form(self):
        s = make_generic("Bstar", 1)
        v = jellyfish_check(s, 1)
        assert v.ok and v.closed_form_ok

    def test_bc_closed_form(self):
        s = make_generic("BC", 2)
        v = jellyfish_check(s, 1)
        assert v.ok and v.closed_form_ok

    def test_bstar_negated_bend_still_constant(self):
        # only D^2 = U^2 is forced; D = -U keeps the ratio constant
        s = with_bend_down(make_generic("Bstar", 1), -ONE)
        v = jellyfish_check(s, 1)
        assert v.ok

    def test_bstar_non_square_ratio_fails(self):
        s = with_bend_down(make_generic("Bstar", 1), LaurentPoly.const(2))
        v = jellyfish_check(s, 1)
        assert not v.ok

    def test_c_perturbed_corner_fails(self):
        a0, b0 = LaurentPoly.var(Var.a0(0)), LaurentPoly.var(Var.b0(0))
        s = replace(make_generic("C", 1), corner_l=a0 + I * b0)
        v = jellyfish_check(s, 1)
        assert not v.ok or not v.closed_form_ok

    def test_deformation_weights_pass(self):
        for fam in ("C", "Bstar"):
            s = make_deformation(fam, 2)
            v = jellyfish_check(s, 2)
            assert v.ok and v.closed_form_ok, fam

    def test_family_without_central_row_is_error(self):
        with pytest.raises(ValueError, match="family B "):
            jellyfish_check(make_generic("B", 1), 1)

    def test_closed_form_without_central_row_is_error(self):
        with pytest.raises(ValueError, match="^family D has no central row for a jellyfish$"):
            jellyfish_closed_form(make_generic("D", 1), 1)


class TestCaduceus:
    def test_deformation_bstar_passes(self):
        s = make_deformation("Bstar", 1)
        v = caduceus_check(s, 1)
        assert v.ok and v.checked == 256

    def test_generic_free_fermion_passes(self):
        assert caduceus_check(make_generic("Bstar", 1), 1).ok

    def test_generic_c_passes(self):
        assert caduceus_check(make_generic("C", 1), 1).ok

    def test_bc_passes(self):
        assert caduceus_check(make_generic("BC", 2), 1).ok

    def test_family_without_central_row_is_error(self):
        with pytest.raises(ValueError, match="^family B has no central row for a caduceus$"):
            caduceus_check(make_generic("B", 1), 1)

    def test_delta_nonzero_fails(self):
        base = make_generic("Bstar", 1)
        entries = dict(base.vertex)
        for r in ("1", "1b", "0"):
            entries[("c1", r)] = ONE  # breaks the free-fermion condition
        bad = WeightScheme(name="bad", family="Bstar", n=1, vertex=entries,
                           bend_up=base.bend_up, bend_down=base.bend_down)
        v = caduceus_check(bad, 1)
        assert not v.ok and v.witness is not None


def all_pairs_verdict(scheme, lhs_units, rhs_units, names, lhs_fixed, rhs_fixed):
    """(ok, witness, checked) of the ratio check comparing every two sides."""
    sides = []
    for fixed in relations._assignments(names):
        zl = relations.local_z(lhs_units, {**fixed, **lhs_fixed}, scheme)
        zr = relations.local_z(rhs_units, {**fixed, **rhs_fixed}, scheme)
        if not (zl.is_zero() and zr.is_zero()):
            sides.append((dict(fixed), zl, zr))
    for (f1, l1, r1), (f2, l2, r2) in itertools.combinations(sides, 2):
        if l1 * r2 != l2 * r1:
            return False, {"first": f1, "second": f2}, len(sides)
    return True, None, len(sides)


def perturbed_corner(family):
    a0, b0 = LaurentPoly.var(Var.a0(0)), LaurentPoly.var(Var.b0(0))
    return replace(make_generic(family, 1), corner_l=a0 + I * b0)


# the fish and jellyfish schemes of the tests above, perturbed and not
RATIO_CASES = {
    "fish-B": ("fish", make_generic("B", 1)),
    "fish-Cstar": ("fish", make_generic("Cstar", 1)),
    "fish-D": ("fish", make_generic("D", 1)),
    "fish-B-unit-ratio": ("fish", with_bend_down(make_generic("B", 1), ONE)),
    "jellyfish-C": ("jellyfish", make_generic("C", 1)),
    "jellyfish-Bstar": ("jellyfish", make_generic("Bstar", 1)),
    "jellyfish-BC": ("jellyfish", make_generic("BC", 2)),
    "jellyfish-Bstar-negated-bend": (
        "jellyfish", with_bend_down(make_generic("Bstar", 1), -ONE)),
    "jellyfish-Bstar-non-square": (
        "jellyfish", with_bend_down(make_generic("Bstar", 1), LaurentPoly.const(2))),
    "jellyfish-C-perturbed-corner": ("jellyfish", perturbed_corner("C")),
}


@pytest.mark.parametrize("case", RATIO_CASES)
def test_ratio_check_agrees_with_every_pair_compared(case):
    relation, scheme = RATIO_CASES[case]
    if relation == "fish":
        v = fish_check(scheme, 1)
        sides = relations._fish_sides(scheme, 1)
    else:
        v = jellyfish_check(scheme, 1)
        sides = relations._jellyfish_sides(scheme, 1)
    assert (v.ok, v.witness, v.checked) == all_pairs_verdict(scheme, *sides)


def test_verdict_json_roundtrip():
    s = make_generic("B", 1)
    v = fish_check(s, 1)
    js = v.to_json()
    assert js["ok"] is True and js["closed_form_ok"] is True


# the fixed arrows of the fish and jellyfish diagrams are the models' own at rho


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", ["B", "Cstar", "D"])
def test_fish_fixes_the_half_column_top_as_the_model_does(family, n):
    spec = build_model(family, rho(n))
    _lhs, _rhs, names, lhs_fixed, rhs_fixed = relations._fish_sides(make_generic(family, n), 1)
    if spec.half_col is None:
        assert (names, lhs_fixed, rhs_fixed) == (("A", "B"), {}, {})
    else:
        assert lhs_fixed == rhs_fixed == {"HN": spec.boundary[("v", spec.half_col, 0)]}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", ["Bstar", "C", "BC"])
def test_jellyfish_fixes_the_central_row_as_the_model_does(family, n):
    spec = build_model(family, rho(n))
    lhs, rhs, _names, lhs_fixed, rhs_fixed = relations._jellyfish_sides(make_generic(family, n), 1)
    corner = any(u.kind == "corner" for u in spec.units)
    assert any(u.kind == "corner" for u in lhs) == any(u.kind == "corner" for u in rhs) == corner
    if corner:
        assert lhs_fixed == rhs_fixed == {}
    else:
        east = spec.boundary[("h", spec.central, len(spec.full_cols))]
        # edges B and M6 are the west and east ends of the central row
        assert (lhs_fixed, rhs_fixed) == ({"B": east, "M6": east}, {})
