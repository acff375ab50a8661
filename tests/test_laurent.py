import random

import pytest

from bentice.laurent import (
    GInt, GI, GONE, GZERO, LaurentPoly, MixedBankError, Var,
    ZeroDivisorError,
)

from oracles import evaluate, zero


X = Var.x(1)
Y = Var.x(2)


def P(*term_specs):
    """Build a polynomial from (coeff, [(var, exp), ...]) tuples."""
    out = zero()
    for c, pairs in term_specs:
        out = out + LaurentPoly.term(c, pairs)
    return out


class TestGInt:
    def test_i_squared(self):
        assert GI * GI == GInt(-1)

    def test_exact_div(self):
        assert GInt(5, 5).exact_div(GInt(1, 1)) == GInt(5)
        assert GInt(3).exact_div(GInt(2)) is None
        assert GInt(2).exact_div(GI) == GInt(0, -2)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisorError):
            GInt(1).exact_div(GZERO)


class TestRingBasics:
    def test_zero_identity(self):
        p = P((2, [(X, 1)]), (GInt(0, 3), [(Y, -2)]))
        assert p + zero() == p
        assert p - p == zero()

    def test_no_zero_coeffs_stored(self):
        p = P((1, [(X, 1)])) + P((-1, [(X, 1)]))
        assert p.terms == {}

    def test_ring_axioms_randomized(self):
        rng = random.Random(20240901)
        vars_ = [Var.x(1), Var.x(2), Var.q(1)]

        def rand_poly():
            out = zero()
            for _ in range(rng.randrange(4)):
                pairs = [(v, rng.randrange(-2, 3)) for v in vars_ if rng.random() < 0.6]
                out = out + LaurentPoly.term(
                    GInt(rng.randrange(-3, 4), rng.randrange(-3, 4)), pairs)
            return out

        for _ in range(300):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_cross_bank_is_error(self):
        g = LaurentPoly.var(Var.a1(1))
        d = LaurentPoly.var(Var.x(1))
        with pytest.raises(MixedBankError):
            g * d
        with pytest.raises(MixedBankError):
            g + d

    def test_a_value_whose_variables_cancel_keeps_its_bank(self):
        g = LaurentPoly.var(Var.a1(1))
        d = LaurentPoly.var(Var.x(1))
        # a sum keeps its bank as a product does, however the constant was made
        for constant in (g + 1 - g, g * g ** -1, LaurentPoly.sum([g, 1 - g])):
            assert constant == LaurentPoly.const(1) and constant.bank == g.bank
            with pytest.raises(MixedBankError):
                constant * d
            with pytest.raises(MixedBankError):
                constant + d
        # a zero keeps no bank
        assert (g - g).bank is None
        assert (g - g) * d == zero()

    def test_negative_power_of_a_unit_monomial(self):
        for c in (GONE, -GONE, GI, -GI):
            p = LaurentPoly.term(c, [(X, 1)])
            assert p ** -1 * p == LaurentPoly.const(1)
            assert p ** -3 * p ** 3 == LaurentPoly.const(1)


def chained_product(polys):
    """Oracle: the product as ``*`` chains it, from 1."""
    out = LaurentPoly.const(1)
    for p in polys:
        out = out * p
    return out


class TestProd:
    BINOMIAL = P((1, [(X, 1)]), (GInt(2, -1), [(Y, -1)]))

    def test_empty_product_is_one(self):
        assert LaurentPoly.prod([]) == LaurentPoly.const(1)
        assert LaurentPoly.prod(iter(())).terms == {(): GONE}

    def test_a_zero_factor_makes_zero(self):
        factors = [P((3, [(X, 2)])), self.BINOMIAL, zero(), P((GI, [(Y, 1)]))]
        assert LaurentPoly.prod(factors).terms == {}
        assert chained_product(factors).is_zero()

    def test_exponents_that_cancel_leave_a_constant(self):
        factors = [P((2, [(X, 3), (Y, -1)])), P((GInt(1, 1), [(Y, 1)])), P((-1, [(X, -3)]))]
        assert LaurentPoly.prod(factors).terms == {(): GInt(-2, -2)}
        assert LaurentPoly.prod(factors) == chained_product(factors)

    def test_repeated_multi_term_factors(self):
        factors = [self.BINOMIAL, P((3, [(X, -1)])), self.BINOMIAL, self.BINOMIAL]
        assert LaurentPoly.prod(factors) == chained_product(factors)
        assert LaurentPoly.prod(factors) == self.BINOMIAL ** 3 * 3 * P((1, [(X, -1)]))

    def test_non_unit_coefficients(self):
        factors = [P((GInt(2, 3), [(X, 1)])), P((-5, [])), self.BINOMIAL,
                   P((GInt(0, 4), [(Y, 2)]))]
        assert LaurentPoly.prod(factors) == chained_product(factors)

    def test_mixed_banks_raise_like_mul(self):
        g = LaurentPoly.var(Var.a1(1))
        d = LaurentPoly.var(Var.x(1))
        for factors in ([g, d], [g + 1, LaurentPoly.const(2), d], [d, g * g + g], [g, d, g ** -1]):
            with pytest.raises(MixedBankError):
                chained_product(factors)
            with pytest.raises(MixedBankError):
                LaurentPoly.prod(factors)
        # where g's exponents cancel, * and prod both keep the generic bank
        with pytest.raises(MixedBankError):
            chained_product([g, g ** -1, d])
        with pytest.raises(MixedBankError):
            LaurentPoly.prod([g, g ** -1, d])
        assert (g * g ** -1).bank == LaurentPoly.prod([g, g ** -1]).bank == g.bank
        # a zero keeps no bank
        assert (g * zero()).bank is None
        # a zero factor ends the product before the later bank is read
        assert LaurentPoly.prod([g, zero(), d]).is_zero()
        assert chained_product([g, zero(), d]).is_zero()

    def test_randomized_against_the_chained_product(self):
        rng = random.Random(20261019)
        pool = [Var.x(1), Var.x(2), Var.q(1)]

        def factor():
            return LaurentPoly.sum(
                LaurentPoly.term(GInt(rng.choice([-2, -1, 1, 3]), rng.randrange(-2, 3)),
                                 [(v, rng.randrange(-2, 3)) for v in pool if rng.random() < 0.5])
                for _ in range(rng.choice([1, 1, 1, 2, 3])))

        for _ in range(300):
            factors = [factor() for _ in range(rng.randrange(8))]
            if factors and rng.random() < 0.3:
                factors.append(rng.choice(factors))
            if rng.random() < 0.1:
                factors.insert(rng.randrange(len(factors) + 1), zero())
            product = LaurentPoly.prod(factors)
            assert product == chained_product(factors)
            assert product.bank == chained_product(factors).bank


class TestExactDivide:
    def test_factorization_identity(self):
        # (x^2 - 1) / (x - 1) = x + 1, with doubled storage for x
        num = P((1, [(X, 4)]), (-1, []))
        den = P((1, [(X, 2)]), (-1, []))
        assert num.exact_divide(den) == P((1, [(X, 2)]), (1, []))

    def test_constant_term_obstructs(self):
        # (1 + x^2) y^2 + 1: the constant term leaves a remainder
        num = P((1, [(Y, 2)]), (1, [(X, 2), (Y, 2)]), (1, []))
        den = P((1, []), (1, [(X, 2)]))
        assert num.exact_divide(den) is None

    def test_a_monomial_divides_in_the_laurent_ring(self):
        x = LaurentPoly.var(X)
        assert LaurentPoly.const(1).exact_divide(x) == x ** -1
        num = P((1, [(X, 2), (Y, 2)]), (1, []))
        assert num.exact_divide(P((1, [(X, 2)]))) == P((1, [(Y, 2)]), (1, [(X, -2)]))

    def test_zero_divisor_distinct_error(self):
        with pytest.raises(ZeroDivisorError):
            P((1, [(X, 2)])).exact_divide(zero())

    def test_laurent_divisor(self):
        p = P((1, [(X, 2)]), (1, [(X, -2)]))
        d = P((1, [(X, -2)]))
        q = p.exact_divide(d)
        assert q == P((1, [(X, 4)]), (1, []))
        assert q * d == p

    def test_laurent_factor_with_mixed_signs(self):
        # a deformed-denominator style factor: both operands carry both
        # exponent signs, so clearing keeps divisibility intact
        factor = P((1, []), (-1, [(Var.q(1), 2), (Var.q(2), 2), (X, 2), (Y, -2)]))
        cofactor = P((1, [(X, -2)]), (2, [(Y, 2)]), (-1, [(X, 2), (Y, -2)]))
        prod = factor * cofactor
        assert prod.exact_divide(factor) == cofactor
        assert prod.exact_divide(cofactor) == factor

    def test_gaussian_coefficients(self):
        a2, b1 = LaurentPoly.var(Var.a2(1)), LaurentPoly.var(Var.b1(1))
        prod = (a2 + GI * b1) * (a2 - GI * b1)
        assert prod.exact_divide(a2 + GI * b1) == a2 - GI * b1

    def test_roundtrip_randomized(self):
        rng = random.Random(7)
        vars_ = [Var.x(1), Var.x(2)]

        def rand_poly():
            out = zero()
            for _ in range(rng.randrange(1, 4)):
                pairs = [(v, rng.randrange(0, 3)) for v in vars_ if rng.random() < 0.7]
                out = out + LaurentPoly.term(
                    GInt(rng.randrange(-3, 4), rng.randrange(-3, 4)), pairs)
            return out

        checked = 0
        for _ in range(200):
            p, d = rand_poly(), rand_poly()
            if d.is_zero():
                continue
            assert (p * d).exact_divide(d) == p
            checked += 1
        assert checked > 150


class TestSubstitute:
    def test_symmetric_swap(self):
        p = P((1, [(X, 2), (Y, 2)]))
        swapped = p.substitute({X: LaurentPoly.var(Y), Y: LaurentPoly.var(X)})
        assert swapped == p

    def test_bar_involution_lookup(self):
        p = LaurentPoly.var(Var.a1(1))
        image = p.substitute({Var.a1(1): LaurentPoly.var(Var.a2(1))})
        assert image == LaurentPoly.var(Var.a2(1))

    def test_deformation_realization(self):
        # b1^(j) realized as i * t_j * x_j with t_j stored as q_j^2
        target = LaurentPoly.term(GI, [(Var.q(2), 2), (Var.x(2), 2)])
        p = LaurentPoly.var(Var.b1(2))
        assert p.substitute({Var.b1(2): target}) == target

    def test_negative_exponent_requires_unit(self):
        p = P((1, [(X, -2)]))
        with pytest.raises(ValueError):
            p.substitute({X: P((1, [(Y, 2)]), (1, []))})
        with pytest.raises(ValueError):
            p.substitute({X: P((2, [(Y, 2)]))})
        ok = p.substitute({X: LaurentPoly.var(Y)})
        assert ok == P((1, [(Y, -2)]))

    def test_homomorphism_randomized(self):
        rng = random.Random(11)
        vars_ = [Var.x(1), Var.x(2), Var.q(1)]

        def rand_poly(allow_neg=True):
            out = zero()
            lo = -2 if allow_neg else 0
            for _ in range(rng.randrange(3)):
                pairs = [(v, rng.randrange(lo, 3)) for v in vars_ if rng.random() < 0.6]
                out = out + LaurentPoly.term(
                    GInt(rng.randrange(-3, 4), rng.randrange(-3, 4)), pairs)
            return out

        for _ in range(1000):
            p, q = rand_poly(allow_neg=False), rand_poly(allow_neg=False)
            sigma = {v: rand_poly(allow_neg=False) for v in vars_}
            sub = lambda r: r.substitute(sigma)
            assert sub(p + q) == sub(p) + sub(q)
            assert sub(p * q) == sub(p) * sub(q)


class TestEvaluate:
    def test_cancellation(self):
        p = P((1, [(X, 2)])) - P((1, [(X, 2)]))
        assert evaluate(p, {X: GInt(5)}).is_zero()

    def test_gaussian_integer_value(self):
        p = P((2, [(X, 3), (Y, 1)]), (GInt(0, 1), [(X, 1)]), (-4, []))
        # 2 (1 + i)^3 (2 - i) + i (1 + i) - 4
        assert evaluate(p, {X: GInt(1, 1), Y: GInt(2, -1)}) == GInt(-9, 13)

    def test_inverse_value(self):
        # 1/x at x = 2 leaves Z[i]: negative exponents must be cleared first
        p = P((1, [(X, -1)]))
        with pytest.raises(ValueError, match="clear negative exponents first"):
            evaluate(p, {X: GInt(2)})

    def test_zero_with_negative_exponent(self):
        p = P((1, [(X, -1)]))
        with pytest.raises(ValueError, match="clear negative exponents first"):
            evaluate(p, {X: GZERO})

    def test_substitute_then_evaluate_commutes(self):
        p = P((2, [(X, 3), (Y, 1)]), (GInt(0, 1), [(X, 1)]), (-4, []))
        # unit substitution: x -> y^-1; times y^3 (x has degree 3 in p) clears it
        cleared = p.substitute({X: P((1, [(Y, -1)]))}) * P((1, [(Y, 3)]))
        # at the units of Z[i], 1/y is again a Gaussian integer
        for y in (GONE, -GONE, GI, -GI):
            lhs = evaluate(cleared, {Y: y})
            rhs = evaluate(p, {X: GONE.exact_div(y), Y: y}) * y ** 3
            assert lhs == rhs


class TestClearingShift:
    def test_least_clearing_monomial(self):
        p = P((1, [(X, -2), (Y, 1)]), (3, [(X, 1), (Y, -1)]), (1, [(Y, -3)]))
        assert p.clearing_shift() == ((X, 2), (Y, 3))

    def test_nothing_to_clear(self):
        assert P((1, [(X, 2)]), (5, [])).clearing_shift() == ()
        assert zero().clearing_shift() == ()

    def test_monomial_factor_is_cleared(self):
        p = P((1, [(X, 2), (Y, -1)]), (3, [(X, 3)]))
        assert p.clearing_shift() == ((X, -2), (Y, 1))

    def test_least_shift_randomized(self):
        # after the shift no exponent is negative, and each variable of p
        # has exponent 0 in some term, counting a missing variable as 0
        rng = random.Random(5)
        vars_ = [X, Y, Var.q(1)]
        for _ in range(300):
            p = LaurentPoly.sum(
                LaurentPoly.term(1, [(v, rng.randint(-3, 3)) for v in vars_ if rng.random() < 0.6])
                for _ in range(rng.randint(1, 4)))
            shift = p.clearing_shift()
            assert list(shift) == sorted(shift) and all(e for _, e in shift)
            cleared = p * LaurentPoly.term(1, shift)
            for v in p.variables():
                exps = [dict(m).get(v, 0) for m in cleared.terms]
                assert min(exps) == 0


class TestRendering:
    def test_json_shape(self):
        p = P((GInt(1, 2), [(X, 2)]), (-1, []))
        js = p.to_json()
        assert js["exponent_unit"] == "half"
        assert js["terms"][0] == {"coeff": [-1, 0], "monomial": {}}
        assert js["terms"][1] == {"coeff": [1, 2], "monomial": {"x_1": 2}}

    def test_latex_deformation(self):
        one_minus_tx = P((1, []), (-1, [(Var.q(1), 2), (X, 2)]))
        assert one_minus_tx.to_latex() == "1 - t_{1} x_{1}"

    def test_latex_half_exponent(self):
        p = P((1, [(X, 1)]))
        assert "1/2" in p.to_latex()

    def test_deterministic_order(self):
        p = P((1, [(X, 2)]), (1, [(Y, 2)]), (1, []))
        q = P((1, []), (1, [(Y, 2)]), (1, [(X, 2)]))
        assert p.to_json() == q.to_json()
