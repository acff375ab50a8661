import itertools

import pytest

from bentice.characters import (
    EVEN_SIGNS, FAMILY_CHARACTER, HYPEROCTAHEDRAL, SYMMETRIC, SignedPermutation, _x_monomial,
    alternant, character_theorem_check, family_character, tokuyama_check, weyl_denominator,
    weyl_group, weyl_vector,
)
from bentice.laurent import LaurentPoly, Var, gpow_i
from bentice.models import build_model, reduced
from bentice.states import enumerate_states, partition_function, state_weight
from bentice.weights import make_character

from oracles import (
    CharacterBijectionError, alternant_ratio, compose, identity_element,
    nonzero_weight_states, phi_statistic, state_to_weyl, weyl_state_weight,
)

ONE = LaurentPoly.const(1)


def xp(j, e):
    return LaurentPoly.term(1, [(Var.x(j), e)])


def generators(group: str, n: int) -> list:
    """Adjacent swaps, plus the group's sign flip for the signed groups."""
    gens = []
    for i in range(1, n):
        sigma = list(range(1, n + 1))
        sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
        gens.append(SignedPermutation(tuple(sigma), (1,) * n))
    if group == HYPEROCTAHEDRAL:
        signs = [1] * n
        signs[-1] = -1
        gens.append(SignedPermutation(tuple(range(1, n + 1)), tuple(signs)))
    elif group == EVEN_SIGNS and n >= 2:
        sigma = list(range(1, n + 1))
        sigma[-2], sigma[-1] = sigma[-1], sigma[-2]
        signs = [1] * n
        signs[-2] = signs[-1] = -1
        gens.append(SignedPermutation(tuple(sigma), tuple(signs)))
    return gens


def word_length_table(group: str, n: int) -> dict:
    """Breadth-first minimal word lengths; the brute-force oracle."""
    gens = generators(group, n)
    start = identity_element(n)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                u = compose(g, w)
                if u not in dist:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


class TestGroup:
    def test_orders(self):
        assert [len(weyl_group(HYPEROCTAHEDRAL, n)) for n in (1, 2, 3)] == [2, 8, 48]
        assert [len(weyl_group(EVEN_SIGNS, n)) for n in (2, 3)] == [4, 24]
        assert [len(weyl_group(SYMMETRIC, n)) for n in (1, 2, 3, 4)] == [1, 2, 6, 24]

    def test_identity_det(self):
        assert identity_element(3).det() == 1

    def test_group_law_convention(self):
        # (s1,v1)(s2,v2) = (s2 s1, v1 v2^s1): signs_j = v1_j * v2_{sigma1(j)}
        a = SignedPermutation((2, 1), (1, -1))
        b = SignedPermutation((1, 2), (-1, 1))
        ab = compose(a, b)
        assert ab.sigma == (2, 1)
        assert ab.signs == (1 * 1, -1 * -1) == (1, 1)

    @pytest.mark.parametrize("group,n", [
        (HYPEROCTAHEDRAL, 1), (HYPEROCTAHEDRAL, 2), (HYPEROCTAHEDRAL, 3),
        (EVEN_SIGNS, 2), (EVEN_SIGNS, 3), (SYMMETRIC, 3), (SYMMETRIC, 4),
    ])
    def test_det_equals_word_length_parity(self, group, n):
        # det w = (-1)^length(w) in the reflection representation
        table = word_length_table(group, n)
        assert set(table) == set(weyl_group(group, n))
        for w, wl in table.items():
            assert w.det() == (-1) ** wl

    def test_det_parity(self):
        # the determinant is a character of each group
        for group in (SYMMETRIC, HYPEROCTAHEDRAL, EVEN_SIGNS):
            elements = weyl_group(group, 3)
            for a, b in itertools.product(elements, repeat=2):
                assert compose(a, b).det() == a.det() * b.det()


class TestAlternants:
    def test_b_n1_rho(self):
        # x^{1/2} - x^{-1/2}
        alt = alternant(HYPEROCTAHEDRAL, 1, weyl_vector("B", 1))
        assert alt == xp(1, 1) - xp(1, -1)

    def test_c_n1_rho(self):
        alt = alternant(HYPEROCTAHEDRAL, 1, weyl_vector("C", 1))
        assert alt == xp(1, 2) - xp(1, -2)

    def test_d_n1_trivial_group(self):
        assert alternant(EVEN_SIGNS, 1, weyl_vector("D", 1)) == ONE

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_type_a_delta_is_the_vandermonde_product(self, n):
        # x_i^2 in doubled exponents is x_i
        vandermonde = ONE
        for i, j in itertools.combinations(range(1, n + 1), 2):
            vandermonde = vandermonde * (xp(i, 2) - xp(j, 2))
        assert alternant(SYMMETRIC, n, weyl_vector("A", n)) == vandermonde

    def test_antisymmetry_under_simple_reflection(self):
        alpha = (2 * 2 + 3, 2 * 0 + 1)  # mu=(2,0) + rho_B doubled
        alt = alternant(HYPEROCTAHEDRAL, 2, alpha)
        swapped = alt.substitute({Var.x(1): LaurentPoly.var(Var.x(2)),
                                  Var.x(2): LaurentPoly.var(Var.x(1))})
        assert swapped == -alt
        flipped = alt.substitute({Var.x(2): LaurentPoly.term(1, [(Var.x(2), -1)])})
        assert flipped == -alt


class TestCharacters:
    def test_mu_zero_is_one(self):
        for family in ("B", "C", "D"):
            assert family_character(family, 2, [0, 0]) == ONE

    def test_c_n1_fundamental(self):
        assert family_character("C", 1, [1]) == xp(1, 2) + xp(1, -2)

    def test_b_n1_fundamental(self):
        assert family_character("B", 1, [1]) == xp(1, 2) + ONE + xp(1, -2)

    def test_c_n2_dimension_spot_check(self):
        chi = family_character("C", 2, [1, 0])
        at_one = chi.substitute({Var.x(1): ONE, Var.x(2): ONE})
        assert at_one == LaurentPoly.const(4)

    def test_schur_small(self):
        assert family_character("A", 2, [1, 0]) == xp(1, 2) + xp(2, 2)
        assert family_character("A", 2, [1, 1]) == xp(1, 2) * xp(2, 2)

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            family_character("B", 2, [0, 1])


def dominant_weights(n: int, size: int) -> list:
    """Weakly decreasing nonnegative n-tuples with entries summing to at most size."""
    return [mu for mu in itertools.product(range(size + 1), repeat=n)
            if sum(mu) <= size and all(a >= b for a, b in zip(mu, mu[1:]))]


def at_last_one(p: LaurentPoly, n: int) -> LaurentPoly:
    return p.substitute({Var.x(n): ONE})


class TestWeylDenominator:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("family", ["A", "B", "C", "D", "BC"])
    def test_root_factors_multiply_to_the_alternant_at_rho(self, family, n):
        group, vec = FAMILY_CHARACTER[family]
        delta = alternant(group, n, weyl_vector(vec, n))
        if family == "BC":
            delta = at_last_one(delta, n)
        assert LaurentPoly.prod(weyl_denominator(family, n)) == delta

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["B", "Bstar", "C", "Cstar", "D", "BC"])
    def test_the_ice_at_rho_is_x_rho_times_the_denominator(self, family, n):
        # Z(rho) = sign x^rho prod (x^a - x^-a) under the character weights,
        # with sign (-1)^n for the hyperoctahedral families
        group, vec = FAMILY_CHARACTER[family]
        rho = list(range(n, 0, -1))
        z = partition_function(build_model(family, rho), make_character(family, n))
        sign = (-1) ** n if group == HYPEROCTAHEDRAL else 1
        product = LaurentPoly.prod([LaurentPoly.const(sign), _x_monomial(weyl_vector(vec, n)),
                                    *weyl_denominator(family, n)])
        assert z == (at_last_one(product, n) if family == "BC" else product)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", list(FAMILY_CHARACTER))
    def test_character_is_the_alternant_ratio(self, family, n):
        for mu in dominant_weights(n, 4):
            assert family_character(family, n, mu) == alternant_ratio(family, n, mu), mu

    @pytest.mark.parametrize("mu", [(1, 0, 0, 0, 0), (1, 1, 1, 1, 1)])
    @pytest.mark.parametrize("family", list(FAMILY_CHARACTER))
    def test_character_is_the_alternant_ratio_at_rank_5(self, family, mu):
        assert family_character(family, 5, mu) == alternant_ratio(family, 5, mu)


class TestStateBijection:
    @pytest.mark.parametrize("family,lam,expect", [
        ("B", [2, 1], 8), ("Bstar", [2, 1], 8), ("C", [2, 1], 8),
        ("Cstar", [2, 1], 8), ("D", [2, 1], 4), ("BC", [2, 1], 4),
        ("B", [3, 1], 8), ("D", [3, 1], 4),
    ])
    def test_counts_match_group_order(self, family, lam, expect):
        assert len(nonzero_weight_states(family, lam)) == expect

    def test_b_n3_count(self):
        assert len(nonzero_weight_states("B", [3, 2, 1])) == 48

    def test_bijectivity(self):
        states = nonzero_weight_states("B", [3, 1])
        images = {state_to_weyl(s) for s in states}
        assert len(images) == len(states) == 8

    def test_identity_element_from_all_bends_down(self):
        for s in nonzero_weight_states("B", [2, 1]):
            w = state_to_weyl(s)
            if w == identity_element(2):
                assert all(d == "D" for d in s.bend_dirs().values())
                kinds = s.vertex_kinds()
                # c2 of pair j sits in row jb at column lambda_j
                assert kinds[("1b", 2)] == "c2" and kinds[("2b", 1)] == "c2"
                break
        else:
            pytest.fail("identity state not found")

    def test_b1_bend_up_state(self):
        ups = [s for s in nonzero_weight_states("B", [1]) if s.bend_dirs()["1"] == "U"]
        assert len(ups) == 1
        w = state_to_weyl(ups[0])
        assert w.sigma == (1,) and w.signs == (-1,)

    def test_zero_weight_state_rejected(self):
        spec = build_model("B", [2, 1])
        scheme = make_character("B", 2)
        dead = [s for s in enumerate_states(spec)
                if state_weight(s, scheme).is_zero()]
        with pytest.raises(CharacterBijectionError):
            state_to_weyl(dead[0])

    def test_d_requires_lambda_n_one(self):
        spec = build_model("D", [3, 2])
        with pytest.raises(CharacterBijectionError):
            state_to_weyl(enumerate_states(spec)[0])


class TestWeightLemma:
    @pytest.mark.parametrize("family,lam", [
        ("B", [2, 1]), ("B", [3, 1]), ("Bstar", [3, 1]), ("C", [3, 1]),
        ("Cstar", [3, 1]), ("D", [3, 1]), ("BC", [3, 1]), ("B", [3, 2, 1]),
    ])
    def test_closed_form_matches_every_state(self, family, lam):
        n = len(lam)
        scheme = make_character(family, n)
        for s in nonzero_weight_states(family, lam):
            w = state_to_weyl(s)
            assert state_weight(s, scheme) == weyl_state_weight(w, family, lam)

    @pytest.mark.parametrize("lam", [[2, 1], [3, 1], [3, 2, 1], [4, 2, 1]])
    def test_phi_parity_family_b(self, lam):
        for s in nonzero_weight_states("B", lam):
            assert (-1) ** (phi_statistic(s) % 2) == state_to_weyl(s).det()

    @pytest.mark.parametrize("lam", [[2, 1], [3, 1], [3, 2, 1]])
    def test_phi_parity_family_bc(self, lam):
        for s in nonzero_weight_states("BC", lam):
            assert (-1) ** (phi_statistic(s) % 2) == state_to_weyl(s).det()


class TestCharacterTheorem:
    @pytest.mark.parametrize("family", ["B", "Bstar", "C", "Cstar", "D", "BC"])
    def test_rho_case(self, family):
        assert character_theorem_check(family, [2, 1])["ok"]

    def test_cstar_31(self):
        assert character_theorem_check("Cstar", [3, 1])["ok"]

    def test_b_31(self):
        assert character_theorem_check("B", [3, 1])["ok"]

    def test_family_a_points_to_tokuyama(self):
        with pytest.raises(ValueError, match="verify tokuyama"):
            character_theorem_check("A", [2, 1])

    def test_d_with_lambda_n_one(self):
        assert character_theorem_check("D", [4, 1])["ok"]

    def test_d_without_1_fails_as_expected(self):
        # lambda_n != 1 falls outside the type-D statement: the extra
        # factors (1 - x_j^2) make Z vanish at x = 1, so no chi^D multiple
        # works; D^[3,2] is Cstar^[2,1] and the Cstar statement holds
        r = character_theorem_check("D", [3, 2])
        z_rho = character_theorem_check("D", [2, 1])["z"]
        extra = (ONE - xp(1, 4)) * (ONE - xp(2, 4))
        assert r["z"] == z_rho * extra
        d_rhs = LaurentPoly.const(gpow_i(2)) * z_rho * family_character("D", 2, (1, 1))
        assert d_rhs != r["z"]
        assert r["ok"]
        assert r["statement"].startswith("Z = i^|mu| Z(Cstar^rho) chi^Cstar_mu")
        assert r["mu"] == (0, 0)
        cstar = build_model("Cstar", [2, 1])
        assert r["z"] == partition_function(cstar, make_character("Cstar", 2))

    @pytest.mark.parametrize("lam", [[2], [4, 2], [5, 3], [4, 3, 2]])
    def test_d_without_1_holds_under_the_cstar_statement(self, lam):
        r = character_theorem_check("D", lam)
        assert r["ok"]
        assert r["mu"] == tuple(p - (len(lam) + 1 - k) for k, p in enumerate(lam))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_d_without_1_is_cstar_with_columns_shifted(self, n):
        # relabelling column c as c - 1 maps the states of D^lambda one to
        # one onto those of Cstar^(lambda - 1), vertex kinds and bends kept
        def key(state, shift):
            kinds = sorted(((r, c - shift), k) for (r, c), k in state.vertex_kinds().items())
            return tuple(kinds), tuple(sorted(state.bend_dirs().items()))

        for lam in itertools.combinations(range(5, 1, -1), n):
            d = [key(s, 1) for s in enumerate_states(build_model("D", lam))]
            cstar = build_model(*reduced("D", lam))
            c = [key(s, 0) for s in enumerate_states(cstar)]
            assert len(set(d)) == len(d) == len(c)
            assert set(d) == set(c)


class TestTokuyama:
    def test_single_state(self):
        r = tokuyama_check([1])
        assert r["ok"]
        assert r["z"] == xp(1, 2)

    @pytest.mark.parametrize("lam", [[2, 1], [3, 1], [3, 2, 1], [5, 3, 1]])
    def test_symbolic_in_t(self, lam):
        assert tokuyama_check(lam)["ok"]
