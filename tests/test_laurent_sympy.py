"""Differential test of the polynomial layer against sympy.

Random Laurent polynomials with Gaussian-integer coefficients are built
both as LaurentPoly values and as sympy expressions; every operation must
agree after expansion.  sympy is a test-only oracle; the monomial order
is checked against a copy of the comparator it replaced.
"""

import functools
import random

import pytest

from bentice.laurent import GInt, LaurentPoly, MixedBankError, Var, dense_key

from oracles import evaluate, zero

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


def chained_product(polys):
    out = LaurentPoly.const(1)
    for p in polys:
        out = out * p
    return out


@pytest.mark.parametrize("seed", CASES)
def test_prod(seed):
    rng = random.Random(seed)
    # monomials with non-unit coefficients, one of them cancelled to its
    # coefficient by the inverse monomial, then multi-term factors
    monomials = [LaurentPoly.term(GInt(rng.choice([-3, -2, 2, 3]), rng.randint(-2, 2)),
                                  [(v, rng.randint(-2, 2)) for v in VARS])
                 for _ in range(rng.randint(0, 4))]
    if monomials:
        (m, _), = monomials[0].terms.items()
        monomials.append(LaurentPoly.term(1, [(v, -e) for v, e in m]))
    factors = monomials + [random_poly(rng, 4) for _ in range(rng.randint(0, 3))]
    if factors:
        factors.append(rng.choice(factors))
    if seed % 8 == 0:
        factors.append(zero())
    rng.shuffle(factors)
    product = LaurentPoly.prod(factors)
    assert same(product, sympy.Mul(*[to_sympy(p) for p in factors]))
    assert product == chained_product(factors)


UNITS = [GInt(1), GInt(-1), GInt(0, 1), GInt(0, -1)]


@pytest.mark.parametrize("seed", CASES)
def test_power(seed):
    rng = random.Random(seed)
    p = random_poly(rng, 3)
    k = rng.randint(0, 3)
    assert same(p ** k, to_sympy(p) ** k)
    # negative powers stay in the ring for unit monomials only
    unit = LaurentPoly.term(UNITS[seed % 4], [(v, rng.randint(-2, 2)) for v in VARS])
    k = -1 - seed % 5
    assert same(unit ** k, to_sympy(unit) ** k)
    assert (unit ** k) * (unit ** -k) == LaurentPoly.const(1)
    with pytest.raises(ValueError):
        (unit * GInt(1, 1)) ** k


def divisor_with_constant_term(rng):
    """A random Laurent divisor that keeps a nonzero constant term.

    Clearing its negative exponents then leaves no monomial factor in the
    divisor, so division of the cleared operands decides divisibility.
    """
    terms = dict(random_poly(rng, 4).terms)
    terms[()] = GInt(rng.choice([-2, -1, 1, 2]), rng.randint(-2, 2))
    return LaurentPoly(terms)


@pytest.mark.parametrize("seed", CASES)
def test_exact_divide_recovers_the_cofactor(seed):
    rng = random.Random(seed)
    a, b = random_poly(rng), divisor_with_constant_term(rng)
    q = (a * b).exact_divide(b)
    assert q == a
    assert same(q * b, to_sympy(a) * to_sympy(b))


@pytest.mark.parametrize("seed", CASES)
def test_exact_divide_by_a_monomial(seed):
    rng = random.Random(seed)
    a = random_poly(rng)
    b = LaurentPoly.term(rng.choice(UNITS), [(v, rng.randint(-2, 2)) for v in VARS])
    q = (a * b).exact_divide(b)
    assert q == a
    assert same(q * b, to_sympy(a) * to_sympy(b))


@pytest.mark.parametrize("seed", CASES)
def test_exact_divide_leaves_a_remainder(seed):
    rng = random.Random(seed)
    a, b = random_poly(rng), divisor_with_constant_term(rng)
    if len(b.terms) == 1:
        b = b + LaurentPoly.var(Var.x(1))
    # a divisor of two or more terms divides no monomial, so no a*b + m
    m = LaurentPoly.term(rng.choice(UNITS), [(v, rng.randint(-2, 2)) for v in VARS])
    assert (a * b + m).exact_divide(b) is None


@pytest.mark.parametrize("seed", CASES)
def test_exact_divide_by_a_constant(seed):
    rng = random.Random(seed)
    a = random_poly(rng)
    c = GInt(rng.choice([-3, -2, 2, 3]), rng.randint(-3, 3))
    assert (a * c).exact_divide(LaurentPoly.const(c)) == a
    # a unit coefficient is not a multiple of a non-unit constant
    assert (a * c + LaurentPoly.const(1)).exact_divide(LaurentPoly.const(c)) is None


def _mono_cmp(m1, m2):
    """Oracle: the comparator that ordered monomials before dense keys."""
    i = j = 0
    while i < len(m1) or j < len(m2):
        if i < len(m1) and (j >= len(m2) or m1[i][0] < m2[j][0]):
            v, e1, e2 = m1[i][0], m1[i][1], 0
            i += 1
        elif j < len(m2) and (i >= len(m1) or m2[j][0] < m1[i][0]):
            v, e1, e2 = m2[j][0], 0, m2[j][1]
            j += 1
        else:
            v, e1, e2 = m1[i][0], m1[i][1], m2[j][1]
            i += 1
            j += 1
        if e1 != e2:
            return 1 if e1 > e2 else -1
    return 0


ORACLE_KEY = functools.cmp_to_key(_mono_cmp)
BANKS = {
    "generic": [Var.a0(), Var.b0(), Var.a1(1), Var.a2(2), Var.b1(1), Var.b2(3), Var.a1(2)],
    "deformation": [Var.x(1), Var.x(2), Var.x(3), Var.q(1), Var.q(2), Var.qshared()],
}


def random_bank_poly(rng, bank):
    pool = BANKS[bank]
    terms = [LaurentPoly.term(GInt(rng.randint(-3, 3), rng.randint(-3, 3)),
                              [(v, rng.randint(-3, 3)) for v in rng.sample(pool, rng.randint(0, len(pool)))])
             for _ in range(rng.randint(1, 12))]
    return LaurentPoly.sum(terms)


@pytest.mark.parametrize("bank", sorted(BANKS))
@pytest.mark.parametrize("seed", range(20))
def test_order_matches_the_comparator(bank, seed):
    rng = random.Random(seed)
    p = random_bank_poly(rng, bank)
    if p.is_zero():
        return
    assert [m for m, _ in p.sorted_terms()] == sorted(p.terms, key=ORACLE_KEY)
    assert p.leading()[0] == max(p.terms, key=ORACLE_KEY)
    order = sorted(p.variables())
    for m1, m2 in zip(p.terms, list(p.terms)[1:]):
        k1, k2 = dense_key(m1, order), dense_key(m2, order)
        assert (k1 > k2) - (k1 < k2) == _mono_cmp(m1, m2)


@pytest.mark.parametrize("seed", CASES)
def test_evaluate_at_gaussian_integer_points(seed):
    rng = random.Random(seed)
    p = random_poly(rng)
    # evaluation needs nonnegative exponents: clear them first
    p = p * LaurentPoly.term(1, p.clearing_shift())
    for _ in range(3):
        point = {v: GInt(rng.randint(-3, 3), rng.randint(-3, 3)) for v in VARS}
        value = evaluate(p, point)
        want = sympy.expand(to_sympy(p).subs(
            {SYMBOLS[v]: c.re + c.im * sympy.I for v, c in point.items()}))
        assert value.re + value.im * sympy.I == want
