"""The packed-exponent layouts of bentice.laurent against their oracles.

The chained division must equal the dense-tuple division it replaced
(tests/oracles.py), applied one divisor at a time; the layout must
round-trip monomials and keep their order; a slot that overflows must
end the division; the pre-check must draw the same points for equal
polynomials, whatever the order of their terms.  The signed layout that
weighs states must round-trip every monomial within its bound, unpack a
sum of packed monomials to their product, and refuse an exponent past
the bound instead of wrapping it.
"""

import random

import pytest
from hypothesis import given, strategies as st

from bentice import identities
from bentice.laurent import GInt, LaurentPoly, Var, _mono_mul, _Packed, _Signed, dense_key

import oracles

BANKS = {
    "generic": [Var.a1(1), Var.a2(1), Var.b1(1), Var.b2(2), Var.a0()],
    "deformation": [Var.x(1), Var.x(2), Var.q(1), Var.qshared()],
}
CASES = range(30)


def random_poly(rng, variables, max_terms=4, lo=-2, hi=3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = GInt(rng.randint(-3, 3), rng.randint(-3, 3)) or GInt(1)
        pairs = [(v, rng.randint(lo, hi)) for v in rng.sample(variables, rng.randint(0, 3))]
        terms.append(LaurentPoly.term(coeff, pairs))
    return LaurentPoly.sum(terms)


def nonzero_poly(rng, variables, **kwargs):
    while True:
        p = random_poly(rng, variables, **kwargs)
        if not p.is_zero():
            return p


def oracle_chain(num, divisors):
    """num divided by each divisor in turn by the dense-tuple oracle."""
    for d in divisors:
        num = oracles.exact_divide(num, d)
        if num is None:
            return None
    return num


@pytest.mark.parametrize("bank", sorted(BANKS))
@pytest.mark.parametrize("seed", CASES)
def test_chained_division_equals_the_per_factor_oracle(bank, seed):
    rng = random.Random(seed)
    variables = BANKS[bank]
    a = nonzero_poly(rng, variables)
    b1, b2 = nonzero_poly(rng, variables), nonzero_poly(rng, variables)
    divisible = a * b1 * b2
    assert divisible.exact_divide(b1, b2) == oracle_chain(divisible, [b1, b2]) == a
    assert divisible.exact_divide(b2, b1) == a
    # one more monomial: a remainder, found by both or by neither
    m = LaurentPoly.term(GInt(1, rng.randint(-2, 2)),
                         [(v, rng.randint(-2, 3)) for v in rng.sample(variables, 2)])
    off = divisible + m
    assert off.exact_divide(b1, b2) == oracle_chain(off, [b1, b2])
    for d in (b1, b2, m):
        assert off.exact_divide(d) == oracles.exact_divide(off, d)


@pytest.mark.parametrize("seed", CASES)
def test_pack_round_trips_and_keeps_the_monomial_order(seed):
    rng = random.Random(seed)
    variables = BANKS["generic" if seed % 2 else "deformation"]
    polys = [nonzero_poly(rng, variables) for _ in range(rng.randint(1, 3))]
    packed = _Packed.cleared(polys)
    order = list(packed.offsets)
    top = packed.mask
    monomials = [tuple((v, e) for v in order if (e := rng.randint(0, top) * rng.randint(0, 1)))
                 for _ in range(40)]
    monomials += [m for terms in packed.terms for m in (packed.unpack(k, {}) for k in terms)]
    for m in monomials:
        key = packed.pack(m)
        assert key & packed.guard == 0
        assert packed.unpack(key, {}) == m
    for m1 in monomials:
        for m2 in monomials[:10]:
            k1, k2 = packed.pack(m1), packed.pack(m2)
            d1, d2 = dense_key(m1, order), dense_key(m2, order)
            assert (k1 < k2) == (d1 < d2) and (k1 == k2) == (d1 == d2)


def test_the_cleared_operands_are_packed():
    x, y = Var.x(1), Var.x(2)
    p = LaurentPoly.term(1, [(x, 1), (y, -2)]) + LaurentPoly.term(GInt(2, -1), [(y, 1)])
    packed = _Packed.cleared([p])
    cleared = p * LaurentPoly.term(1, oracles.clearing_shift(p))
    assert {packed.unpack(k, {}): c for k, c in packed.terms[0].items()} == \
        {m: (c.re, c.im) for m, c in cleared.terms.items()}


X, Y = Var.x(1), Var.x(2)


def mono(c, **exps):
    return LaurentPoly.term(c, [({"x": X, "y": Y}[v], e) for v, e in exps.items()])


def test_a_division_that_overflows_a_slot_stops_at_the_guard_bit():
    # x*y^3 is a unit: cleared it is 1, which the leading monomial x does
    # not divide; (a | guard) - b loses x's guard bit instead of wrapping
    num, den = mono(1, x=1, y=3), mono(1, x=1) + mono(1, y=3)
    packed = _Packed.cleared([num, den])
    assert list(packed.terms[0]) == [0]
    x = packed.pack(((X, 1),))
    assert ((0 | packed.guard) - x) & packed.guard == packed.guard - (x << packed.width)
    assert num.exact_divide(den) is None
    # x^3 - y^2 over x - y^2: the second step's y^2 times y^2 needs a
    # fourth power of y, past the largest exponent 3 of either operand
    num, den = mono(1, x=3) - mono(1, y=2), mono(1, x=1) - mono(1, y=2)
    packed = _Packed.cleared([num, den])
    assert packed.width == 2
    y2 = packed.pack(((Y, 2),))
    assert (y2 + y2) & packed.guard
    assert num.exact_divide(den) is None
    assert oracles.exact_divide(num, den) is None
    # the same pair, both shifted by monomials, gives the same layout
    shifted = num * mono(1, y=1), den * mono(1, x=2)
    assert shifted[0].exact_divide(shifted[1]) is None


@pytest.mark.parametrize("seed", CASES)
def test_precheck_points_do_not_depend_on_the_order_of_terms(monkeypatch, seed):
    rng = random.Random(seed)
    variables = BANKS["generic" if seed % 2 else "deformation"]
    polys = [nonzero_poly(rng, variables, max_terms=6) for _ in range(rng.randint(1, 4))]
    flipped = [LaurentPoly(dict(reversed(p.terms.items()))) for p in polys]
    assert flipped == polys
    real = identities._random_point

    def drawn_points(operands):
        drawn = []

        def recording(names, rng):
            drawn.append(list(real(names, rng).items()))
            return dict(drawn[-1])

        monkeypatch.setattr(identities, "_random_point", recording)
        identities.probabilistic_divides(operands[0], operands[1:], random.Random(seed))
        return drawn

    assert drawn_points(flipped) == drawn_points(polys)


@pytest.mark.parametrize("seed", CASES)
def test_packed_values_are_the_cleared_polys_values(seed):
    rng = random.Random(seed)
    variables = BANKS["generic" if seed % 2 else "deformation"]
    polys = [nonzero_poly(rng, variables) for _ in range(3)]
    packed = _Packed.cleared(polys)
    point = {v: GInt(rng.randint(-3, 3), rng.randint(-3, 3)) for v in variables}
    powers = packed.powers(point)
    for k, p in enumerate(polys):
        cleared = p * LaurentPoly.term(1, oracles.clearing_shift(p))
        want = GInt(0)
        for m, c in cleared.terms.items():
            for v, e in m:
                c = c * point[v] ** e
            want = want + c
        assert packed.value(k, powers) == want


SIGNED_VARIABLES = BANKS["generic"] + BANKS["deformation"]


@st.composite
def signed_layouts(draw):
    """(layout, the bound on each exponent of a monomial drawn for it)."""
    variables = draw(st.lists(st.sampled_from(SIGNED_VARIABLES), min_size=1, unique=True))
    bound = draw(st.integers(0, 300))
    return _Signed(variables, bound, low=draw(st.integers(0, 12))), bound


def monomials(layout, bound):
    return st.dictionaries(st.sampled_from(sorted(layout.offsets)),
                           st.integers(-bound, bound).filter(bool)).map(
        lambda exps: tuple(sorted(exps.items())))


@given(st.data())
def test_signed_pack_then_read_gives_the_monomial_back(data):
    layout, bound = data.draw(signed_layouts())
    m = data.draw(monomials(layout, bound))
    # the bits below the slots are the caller's, and read passes over them
    below = data.draw(st.integers(0, (1 << min(layout.offsets.values())) - 1))
    assert layout.read(layout.pack(m) + below) == m


@given(st.data())
def test_a_sum_of_packed_monomials_reads_as_their_product(data):
    layout, bound = data.draw(signed_layouts())
    count = data.draw(st.integers(1, 6))
    # each exponent within bound // count, so every slot's sum stays within the bound
    factors = data.draw(st.lists(monomials(layout, bound // count), min_size=count,
                                 max_size=count))
    product = ()
    for m in factors:
        product = _mono_mul(product, m)
    assert layout.read(sum(layout.pack(m) for m in factors)) == product


@given(st.data())
def test_an_exponent_past_the_bound_is_refused(data):
    layout, bound = data.draw(signed_layouts())
    v = data.draw(st.sampled_from(sorted(layout.offsets)))
    e = data.draw(st.integers(bound + 1, 4 * bound + 8)) * data.draw(st.sampled_from([1, -1]))
    with pytest.raises(ValueError):
        layout.pack(((v, e),))
