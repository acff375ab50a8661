from dataclasses import replace

import pytest

from bentice.laurent import GI, GInt, LaurentPoly, Var
from bentice.models import BENT_FAMILIES
from bentice.weights import (
    BUILTIN_SCHEMES, ONE, make_character, make_deformation, make_generic, make_okada,
    make_scheme, make_tokuyama,
)

from oracles import check_scheme, delta, scheme_rows


def v(var):
    return LaurentPoly.var(var)


def xpow(j, k=2):
    return LaurentPoly.term(1, [(Var.x(j), k)])


def t_of(j):
    return LaurentPoly.term(1, [(Var.q(j), 2)])


class TestGeneric:
    def test_barred_entries_forced_by_symmetry(self):
        s = make_generic("B", 2)
        assert s.vertex[("b2", "1b")] == v(Var.b1(1))
        assert s.vertex[("a1", "2b")] == v(Var.a2(2))
        assert s.vertex[("c1", "1b")] == s.vertex[("c1", "1")]

    def test_c1_free_fermion_normalization(self):
        s = make_generic("B", 2)
        want = v(Var.a1(1)) * v(Var.a2(1)) + v(Var.b1(1)) * v(Var.b2(1))
        assert s.vertex[("c1", "1")] == want

    def test_delta_zero_by_construction(self):
        s = make_generic("C", 2)
        for r in ("1", "2", "1b", "2b", "0"):
            assert delta(s, r).is_zero()

    def test_central_degeneracy(self):
        s = make_generic("Bstar", 2)
        a0, b0 = v(Var.a0(0)), v(Var.b0(0))
        assert s.vertex[("a1", "0")] == a0
        assert s.vertex[("b2", "0")] == b0
        assert s.vertex[("c1", "0")] == a0 * a0 + b0 * b0

    def test_bc_central_uses_index_n(self):
        s = make_generic("BC", 3)
        assert s.vertex[("a1", "3")] == v(Var.a0(3))

    def test_table_bends(self):
        assert make_generic("B", 1).bend_down["1"] == LaurentPoly.const(GI)
        assert make_generic("Cstar", 1).bend_down["1"] == ONE
        assert make_generic("B", 1).bend_up["1"] == ONE

    def test_corner_weights(self):
        s = make_generic("C", 1)
        assert s.corner_r == ONE
        assert s.corner_l == v(Var.a0(0)) - LaurentPoly.const(GI) * v(Var.b0(0))


class TestDeformation:
    def test_b1_entry(self):
        s = make_deformation("B", 2)
        assert s.vertex[("b1", "2")] == LaurentPoly.const(GI) * t_of(2) * xpow(2)

    def test_central_c1_bstar(self):
        s = make_deformation("Bstar", 1)
        want = ONE - LaurentPoly.term(1, [(Var.q(0), 4), (Var.x(0), 4)])
        assert s.vertex[("c1", "0")] == want

    def test_delta_zero(self):
        for fam in ("B", "Bstar", "C", "Cstar", "D"):
            s = make_deformation(fam, 2)
            for r in scheme_rows(s):
                assert delta(s, r).is_zero(), (fam, r)

    def test_check_scheme_clean(self):
        assert check_scheme(make_deformation("B", 3)) == []


class TestOkada:
    def test_b_family_keeps_t(self):
        s = make_okada("B", 2)
        q2 = LaurentPoly.term(1, [(Var.qshared(), 2)])
        assert s.vertex[("b1", "1")] == LaurentPoly.const(GI) * q2 * xpow(1)

    def test_bstar_c1_is_one_plus_t(self):
        s = make_okada("Bstar", 2)
        want = ONE + LaurentPoly.term(1, [(Var.qshared(), 2)])
        assert s.vertex[("c1", "1")] == want

    def test_c_central_b_is_minus_i_t(self):
        s = make_okada("C", 2)
        want = LaurentPoly.term(GInt(0, -1), [(Var.qshared(), 2)])
        assert s.vertex[("b1", "0")] == want

    def test_delta_zero(self):
        for fam in ("B", "Bstar", "C", "Cstar", "D", "BC"):
            n = 2 if fam != "BC" else 3
            s = make_okada(fam, n)
            for r in scheme_rows(s):
                assert delta(s, r).is_zero(), (fam, r)


class TestCharacter:
    def test_c1_vanishes(self):
        s = make_character("B", 2)
        assert s.vertex[("c1", "1")].is_zero()
        assert s.vertex[("c1", "2b")].is_zero()

    def test_l_vertex_vanishes_in_c(self):
        s = make_character("C", 2)
        assert s.corner_l.is_zero()
        assert s.vertex[("c1", "0")].is_zero()

    def test_b1_is_i_x(self):
        s = make_character("B", 2)
        assert s.vertex[("b1", "1")] == LaurentPoly.const(GI) * xpow(1)

    def test_exactly_two_zero_weight_kinds_in_c(self):
        s = make_character("C", 2)
        zero_entries = {(k, r) for (k, r), w in s.vertex.items() if w.is_zero()}
        assert zero_entries == {("c1", r) for r in scheme_rows(s)}
        assert s.corner_l.is_zero() and not s.corner_r.is_zero()


# every weight table of a scheme; a corner is None outside family C
ENTRIES = ("vertex", "bend_up", "bend_down", "corner_r", "corner_l")


def entries(scheme) -> dict:
    return {name: getattr(scheme, name) for name in ENTRIES}


@pytest.mark.parametrize("family", BENT_FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_character_weights_are_okada_weights_at_t_j_one(family, n):
    # t = q^2 in B and C and t_j = i q elsewhere, so t_j = 1 is q = 1 or q = -i
    q = ONE if family in ("B", "C") else LaurentPoly.const(GInt(0, -1))

    def at_q(w):
        return None if w is None else w.substitute({Var.qshared(): q})

    okada = {name: ({k: at_q(w) for k, w in table.items()} if isinstance(table, dict)
                    else at_q(table))
             for name, table in entries(make_okada(family, n)).items()}
    assert okada == entries(make_character(family, n))


@pytest.mark.parametrize("regime", BUILTIN_SCHEMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_d_and_cstar_schemes_hold_equal_weights(regime, n):
    # so D^lambda without a part 1 may be weighed by its reduction's scheme
    assert entries(make_scheme(regime, "D", n)) == entries(make_scheme(regime, "Cstar", n))


class TestDelta:
    def test_hand_scheme_all_ones(self):
        spec_like = make_generic("B", 1)
        ones = {(k, "1"): ONE for k in ("a1", "a2", "b1", "b2", "c1", "c2")}
        s = spec_like.__class__(name="hand", family="B", n=1, vertex=ones)
        assert delta(s, "1") == ONE  # 1 + 1 - 1

    def test_field_free_pythagorean(self):
        vals = {"a1": 3, "a2": 3, "b1": 4, "b2": 4, "c1": 5, "c2": 5}
        s = make_generic("B", 1).__class__(
            name="ff", family="B", n=1,
            vertex={(k, "1"): LaurentPoly.const(c) for k, c in vals.items()})
        assert delta(s, "1").is_zero()


class TestCheckScheme:
    def test_symmetry2_violation(self):
        s = replace(make_generic("B", 1), bend_down={"1": ONE, "1b": LaurentPoly.const(GI)})
        report = check_scheme(s)
        assert any("symmetry-2" in line for line in report)

    def test_c2_two_breaks_free_fermion(self):
        base = make_generic("B", 1)
        entries = dict(base.vertex)
        entries[("c2", "1")] = LaurentPoly.const(2)
        entries[("c2", "1b")] = LaurentPoly.const(2)
        s = base.__class__(name="bad", family="B", n=1, vertex=entries,
                           bend_up=base.bend_up, bend_down=base.bend_down)
        report = check_scheme(s)
        assert any("free-fermion" in line for line in report)

    def test_bend_table_violation_reported(self):
        s = replace(make_generic("B", 1), bend_down={"1": ONE, "1b": ONE})
        report = check_scheme(s)
        assert any("bend convention" in line for line in report)


def test_make_scheme_dispatch():
    assert make_scheme("deformation", "B", 2).name == "deformation"
    assert make_scheme("tokuyama", "A", 2).name == "tokuyama"
    with pytest.raises(ValueError):
        make_scheme("nope", "B", 2)
    with pytest.raises(ValueError):
        make_scheme("okada", "A", 2)


@pytest.mark.parametrize("name", ["tokuyama", "deformation", "generic"])
def test_family_a_schemes_need_n_at_least_one(name):
    with pytest.raises(ValueError, match="n must be at least 1"):
        make_scheme(name, "A", 0)


def test_deformation_means_tokuyama_in_family_a():
    resolved = make_scheme("deformation", "A", 2)
    builtin = BUILTIN_SCHEMES["deformation"]("A", 2)
    assert resolved.name == "tokuyama" and resolved.vertex[("a2", "1")] == xpow(1)
    assert builtin.name == "deformation" and builtin.vertex[("a2", "1")] == ONE


def test_tokuyama_free_fermion():
    s = make_tokuyama(3)
    for r in ("1", "2", "3"):
        assert delta(s, r).is_zero()
