"""Global partition-function identities: one product identity, divisibility, symmetry.

Every factor of Z is a crossing weight of a regular row j against a
partner row, read from the scheme that weighs Z, one per check, the
model's reduction's (see models.reduced): the later rows k and their bars
kb (in a family with bars), plus per family the central row or j's own
bar, the Yang-Baxter train argument's R-matrix weights.  The exceptions
are the bend factor a2(j) + i b1(j) of families B and C, and family A's
c2(j): every row of A^lambda has one more c2 vertex than c1 vertex.  One
table covers all seven families and gives the factor lists in the four
regimes of the built-in schemes: symbolic a/b weights ("generic"), the
x/t parametrization ("deformation"; Tokuyama's weights in family A), the
shared-t weights ("okada") and t_j = 1 ("character").

One product identity (product_check): Z(F^lambda) is the factor product,
a deformed Weyl denominator, times a quotient.  At lambda = rho it is 1
(rho_check), Okada's identity under the shared-t weights; i^|mu| chi_mu
under the character weights; in family A the Schur polynomial, Tokuyama's
formula (bentice.characters).  Elsewhere the product divides Z, with a
quotient symmetric under the spectral index actions, plain substitutions.

product_check and divisibility_check divide Z by every factor in one
chained exact division (_divided).  Divisibility also values Z and the
factor list at random Gaussian-integer points; both pack Z and the
factors once, in the packed layout of bentice.laurent.  A point refuting
divisibility while the exact division succeeds would mean the suite
itself is broken, and raises.
"""

from __future__ import annotations

import random

from .laurent import GI, GInt, LaurentPoly, Var, ZeroDivisorError, _Packed, dense_key
from .models import BENT_FAMILIES, build_model, has_bars, reduced, rho, row_layout
from .states import partition_function
from .weights import WeightScheme, crossing, make_scheme

I = LaurentPoly.const(GI)


class DivisibilityError(ArithmeticError):
    """A stated factor fails to divide a partition function exactly."""


class SuiteSelfCheckError(AssertionError):
    """Probabilistic and exact divisibility verdicts disagree."""


class PreCheckUndecidedError(ArithmeticError):
    """The pre-check drew no point where every divisor is nonzero."""


# Partner rows of each regular row j besides the later rows k and their
# bars kb: "short" is the bend factor a2(j) + i b1(j), "c2" the row's own
# c2 weight, "c" the central row, "bar" the row's own bar jb.
_PARTNERS = {"A": ("c2",), "B": ("short",), "Bstar": ("c",), "C": ("short", "c"),
             "Cstar": ("bar",), "D": (), "BC": ("c", "bar")}


def known_factor(scheme: WeightScheme) -> list:
    """The stated factor list, as exact polynomials, read from the scheme that weighs Z.

    Each factor is a crossing weight of a row against a partner row (its
    family's row of _PARTNERS), or one of the row's own weights ("short",
    "c2").  Family A's list is stated under Tokuyama's weights only.
    """
    if scheme.family == "A" and scheme.name != "tokuyama":
        raise ValueError(f"family A has no {scheme.name} factor list")
    rows, central = row_layout(scheme.family, scheme.n)
    suffixes = ("", "b") if has_bars(scheme.family) else ("",)
    factors = []
    for row in rows:
        w = scheme.row_weights(row)
        partner_rows = {"c": central, "bar": row + "b"}
        for partner in _PARTNERS[scheme.family]:
            if partner == "short":
                factors.append(w["a2"] + I * w["b1"])
            elif partner == "c2":
                factors.append(w["c2"])
            else:
                factors.append(crossing(scheme, row, partner_rows[partner]))
    for i, j in enumerate(rows):
        for k in rows[i + 1:]:
            factors.extend(crossing(scheme, j, k + suffix) for suffix in suffixes)
    return factors


def spectral_actions(family: str, n: int, regime: str) -> list:
    """(name, substitution) of each spectral index action: swaps, then bars.

    swap(j,k) exchanges rows j and k, bar(j) row j and its bar: on the
    a/b weights under generic weights, on x and q (swap) or by x_j -> 1/x_j
    (bar) under the x/t parametrization.
    """
    m = len(row_layout(family, n)[0])
    var = LaurentPoly.var
    kinds = (Var.a1, Var.a2, Var.b1, Var.b2) if regime == "generic" else (Var.x, Var.q)
    actions = [(f"swap({j},{j + 1})", {mk(a): var(mk(b)) for mk in kinds
                                       for a, b in ((j, j + 1), (j + 1, j))})
               for j in range(1, m)]
    if not has_bars(family):
        return actions
    for j in range(1, m + 1):
        if regime == "generic":
            pairs = ((Var.a1, Var.a2), (Var.a2, Var.a1), (Var.b1, Var.b2), (Var.b2, Var.b1))
            bar = {a(j): var(b(j)) for a, b in pairs}
        else:
            bar = {Var.x(j): LaurentPoly.term(1, [(Var.x(j), -1)])}
        actions.append((f"bar({j})", bar))
    return actions


# ---------------------------------------------------------------------------
# divisibility


# consecutive points with a vanishing divisor the pre-check draws before it
# gives up; a nonzero divisor of degree d vanishes at a random point with
# probability at most d / 48 (Schwartz-Zippel over the 48-value pool)
_MAX_REDRAWS = 100

# the values a point draws from: the nonzero a + bi with |a|, |b| <= 3
_POOL = tuple(GInt(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0))


def _random_point(variables, rng: random.Random) -> dict:
    return {v: rng.choice(_POOL) for v in variables}


def probabilistic_divides(num: LaurentPoly, dens: list,
                          rng: random.Random, trials: int = 5):
    """(False, point) only with a witness that dens' product does not divide num.

    Clears num and every divisor once (see laurent._clearing_shift)
    and packs them into one layout (see laurent._Packed), in which every
    point is valued.  At each random Gaussian-integer point it values the
    cleared num once and divides that value by each cleared divisor's
    value in turn, exactly in Z[i]; a point where a divisor's value is
    zero is drawn again, so a zero divisor raises ZeroDivisorError up
    front, and _MAX_REDRAWS such points in a row raise
    PreCheckUndecidedError, naming a divisor that vanished at the last one.
    Clearing strips every monomial factor and Z[i][x] is a UFD, so
    if the divisors' product divides num, the cleared divisors' product
    divides the cleared num and every chained value division succeeds: a
    refuting point is conclusive, and True is only probabilistic.
    """
    if any(d.is_zero() for d in dens):
        raise ZeroDivisorError("division by the zero polynomial")
    packed = _Packed.cleared((num, *dens))
    divisors = range(1, len(dens) + 1)  # the divisors' places in the layout
    done = redraws = 0
    while done < trials:
        # a value per variable in the layout's sorted order, so the points
        # do not depend on the order of any polynomial's terms
        point = _random_point(packed.offsets, rng)
        powers = packed.powers(point)
        dvals = [packed.value(k, powers) for k in divisors]
        if any(dval.is_zero() for dval in dvals):
            redraws += 1
            if redraws == _MAX_REDRAWS:
                d = next(d for d, dval in zip(dens, dvals) if dval.is_zero())
                raise PreCheckUndecidedError(
                    f"divisor {d.to_latex()} vanished at {redraws} random points in a row")
            continue
        redraws = 0
        value = packed.value(0, powers)
        for dval in dvals:
            value = value.exact_div(dval)
            if value is None:
                return False, point
        done += 1
    return True, None


def _divided(family: str, lam, regime: str):
    """(Z, known_factor's sorted list, Z / their product or None) under the reduction's scheme."""
    spec = build_model(family, lam)
    # the scheme, then the factor list, then Z: a refused regime or family
    # (A under okada) is named as make_scheme names it, before any state
    scheme = make_scheme(regime, reduced(family, spec.lam)[0], spec.n)
    factors = known_factor(scheme)
    order = sorted({v for f in factors for v, _ in f.leading()[0]})
    factors = sorted(factors, key=lambda f: dense_key(f.leading()[0], order))
    z = partition_function(spec, scheme)
    return z, factors, z.exact_divide(*factors)


def divisibility_check(family: str, lam, regime: str,
                       seed: int = 0) -> LaurentPoly:
    """Divide Z by every stated factor in one chained division; return the quotient.

    Z and the factors are read from one scheme, the model's reduction's.
    Raises DivisibilityError naming the first factor that leaves a
    remainder (which would refute the identity at this instance), and
    SuiteSelfCheckError if the pre-check, run once on Z and the whole
    factor list, refutes a divisibility that the exact division confirms.
    A monomial, a unit of the Laurent ring, always divides exactly, so
    family A's quotient, the Schur polynomial, must also keep every
    exponent nonnegative: that is the test that x^rho divides Z.
    """
    # stated for the generic and deformation regimes only
    if regime not in ("generic", "deformation"):
        raise ValueError(f"unknown regime {regime!r}")
    z, factors, quotient = _divided(family, lam, regime)
    ok, point = probabilistic_divides(z, factors, random.Random(seed))
    if quotient is None:
        # divide again one factor at a time to name the first that fails
        rest = z
        for f in factors:
            rest = rest.exact_divide(f)
            if rest is None:
                break
        raise DivisibilityError(
            f"factor {f.to_latex()} does not divide Z({family}^{list(lam)}) [{regime}]")
    if not ok:
        raise SuiteSelfCheckError(
            f"value check refuted divisibility at {point} but exact division succeeded")
    if family == "A" and any(e < 0 for m in quotient.terms for _, e in m):
        raise DivisibilityError(f"x^rho does not divide Z(A^{list(lam)}) [{regime}]")
    return quotient


def quotient_symmetry_check(quotient: LaurentPoly, family: str, n: int,
                            regime: str) -> dict:
    """Invariance of the quotient under all spectral index actions."""
    failures = [name for name, substitution in spectral_actions(family, n, regime)
                if quotient.substitute(substitution) != quotient]
    return {"ok": not failures, "failed_actions": failures}


def product_check(family: str, lam, regime: str, stated: LaurentPoly, statement: str) -> dict:
    """Z(family^lambda) == known_factor's product times stated, as one division:
    "quotient" is Z / the product (see _divided), None if it leaves a remainder."""
    z, _, quotient = _divided(family, lam, regime)
    return {"ok": quotient == stated, "statement": statement, "z": z, "quotient": quotient}


def rho_check(family: str, n: int, regime: str) -> dict:
    """At lambda = rho the quotient is 1: Z / known_factor's product == 1.

    Under the shared-t weights ("okada") the product is Okada's deformed
    Weyl denominator, with t carried as q**2.
    """
    return product_check(family, rho(n), regime, LaurentPoly.const(1),
                         f"Z({family}^rho) = the {regime} factor product")


def okada_product_check(family: str, n: int) -> dict:
    """Z at lambda = rho under the shared-t weights vs Okada's product."""
    return rho_check(family, n, "okada")
