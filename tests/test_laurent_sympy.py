"""Differential test of the polynomial layer against sympy.

Random Laurent polynomials with Gaussian-integer coefficients are built
both as LaurentPoly values and as sympy expressions; every operation must
agree after expansion.  sympy is a test-only oracle.
"""

import random

import pytest

from bentice.laurent import GInt, LaurentPoly, MixedBankError, Var

sympy = pytest.importorskip("sympy")

VARS = [Var.x(1), Var.x(2), Var.q(1)]
SYMBOLS = {v: sympy.Symbol(v.name()) for v in VARS}
CASES = range(40)


def random_poly(rng, max_terms=5):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        coeff = GInt(rng.randint(-3, 3), rng.randint(-3, 3))
        pairs = [(v, rng.randint(-2, 2)) for v in rng.sample(VARS, rng.randint(0, len(VARS)))]
        terms.append(LaurentPoly.term(coeff, pairs))
    return LaurentPoly.sum(terms)


def to_sympy(p):
    return sympy.Add(*[(c.re + c.im * sympy.I)
                       * sympy.Mul(*[SYMBOLS[v] ** e for v, e in m])
                       for m, c in p.terms.items()])


def same(p, expr):
    return sympy.expand(to_sympy(p) - expr) == 0


@pytest.mark.parametrize("seed", CASES)
def test_sum_add_sub_mul(seed):
    rng = random.Random(seed)
    polys = [random_poly(rng) for _ in range(rng.randint(0, 6))]
    exprs = [to_sympy(p) for p in polys]
    assert same(LaurentPoly.sum(polys), sympy.Add(*exprs))
    if len(polys) >= 2:
        a, b = polys[:2]
        ea, eb = exprs[:2]
        assert same(a + b, ea + eb)
        assert same(a - b, ea - eb)
        assert same(a * b, ea * eb)


@pytest.mark.parametrize("seed", CASES)
def test_sums_that_cancel_to_zero(seed):
    rng = random.Random(seed)
    polys = [random_poly(rng) for _ in range(rng.randint(1, 5))]
    summands = polys + [-p for p in polys]
    rng.shuffle(summands)
    total = LaurentPoly.sum(summands)
    assert total.is_zero() and total.terms == {}
    assert (polys[0] - polys[0]).is_zero()


@pytest.mark.parametrize("seed", CASES)
def test_substitute(seed):
    rng = random.Random(seed)
    p = random_poly(rng)
    # a variable with negative exponents needs a unit monomial image
    images = {Var.x(1): LaurentPoly.term(GInt(0, 1), [(Var.x(2), rng.randint(-2, 2))]),
              Var.q(1): random_poly(rng, 3)}
    if any(e < 0 for m in p.terms for v, e in m if v == Var.q(1)):
        images[Var.q(1)] = LaurentPoly.term(-1, [(Var.q(1), 1), (Var.x(1), -1)])
    expected = to_sympy(p).subs({SYMBOLS[v]: to_sympy(img) for v, img in images.items()},
                                simultaneous=True)
    assert same(p.substitute(images), expected)


def test_mixed_banks_raise_even_when_the_generic_terms_cancel():
    generic = LaurentPoly.var(Var.a1(1))
    deformation = LaurentPoly.var(Var.x(1))
    with pytest.raises(MixedBankError):
        LaurentPoly.sum([generic, deformation, -generic])
    with pytest.raises(MixedBankError):
        LaurentPoly.sum([generic, -generic, LaurentPoly.const(2), deformation])
    assert LaurentPoly.sum([LaurentPoly.const(1), deformation]).bank == deformation.bank
