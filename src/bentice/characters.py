"""Weyl-group machinery and the character specialization checks.

Signed permutations are pairs (sigma, v) acting on exponent vectors by
(w.alpha)_j = v_j * alpha_sigma(j).  Four groups share them: the
symmetric group (type A, every sign +1), the hyperoctahedral group, and
its even-sign subgroup.  An element's sign (-1)^length is its
determinant in the reflection representation, sign(sigma) times the
product of the v_j.

Characters are Weyl's ratio: a numerator alternant, the signed orbit sum
over the group, divided by the Weyl denominator, one binomial per
positive root.  Exponents are kept doubled so type-B half-integer weights
stay integral.  Both checks are identities.product_check, Z = the stated
factors times a quotient: i^|mu| chi_mu under the character weights, and
the Schur polynomial s_mu in family A under Tokuyama's weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .identities import product_check
from .laurent import GInt, LaurentPoly, Var, gpow_i
from .models import check_strict_partition, reduced, rho

ONE = LaurentPoly.const(1)

SYMMETRIC = "A"             # S_n, every sign +1
HYPEROCTAHEDRAL = "BC"      # S_n x (+-1)^n
EVEN_SIGNS = "D"            # even number of -1 entries


@dataclass(frozen=True)
class SignedPermutation:
    sigma: tuple           # images sigma(1..n), one-based values
    signs: tuple           # +1 / -1 per position

    @property
    def n(self) -> int:
        return len(self.sigma)

    def det(self) -> int:
        """det w in the reflection representation, (-1)^length(w)."""
        inversions = sum(a > b for a, b in itertools.combinations(self.sigma, 2))
        return (-1) ** inversions * math.prod(self.signs)

    def act(self, alpha: tuple) -> tuple:
        """(w.alpha)_j = v_j alpha_sigma(j); alpha in doubled units."""
        return tuple(self.signs[j] * alpha[self.sigma[j] - 1] for j in range(self.n))


def weyl_group(group: str, n: int) -> list:
    """The full group, with the expected order, in a deterministic order."""
    choices = (1,) if group == SYMMETRIC else (1, -1)
    elements = []
    for sigma in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product(choices, repeat=n):
            if group == EVEN_SIGNS and sum(1 for v in signs if v < 0) % 2:
                continue
            elements.append(SignedPermutation(sigma, signs))
    return elements


# ---------------------------------------------------------------------------
# alternants and characters


def _x_monomial(exponents, coeff=1) -> LaurentPoly:
    return LaurentPoly.term(coeff, [(Var.x(j + 1), e) for j, e in enumerate(exponents)])


def alternant(group: str, n: int, alpha_doubled) -> LaurentPoly:
    """Signed orbit sum over the group, exponents in doubled units."""
    alpha = tuple(alpha_doubled)
    return LaurentPoly.sum(_x_monomial(w.act(alpha), w.det()) for w in weyl_group(group, n))


def weyl_vector(type_: str, n: int) -> tuple:
    if type_ == "B":
        return tuple(2 * (n - j) - 1 for j in range(n))        # doubled [n-1/2..1/2]
    if type_ == "C":
        return tuple(2 * (n - j) for j in range(n))            # doubled [n..1]
    if type_ in ("A", "D"):
        return tuple(2 * (n - 1 - j) for j in range(n))        # doubled [n-1..0]
    raise ValueError(f"unknown type {type_!r}")


FAMILY_CHARACTER = {
    "A": (SYMMETRIC, "A"),        # the Schur polynomial
    "B": (HYPEROCTAHEDRAL, "B"),
    "Bstar": (HYPEROCTAHEDRAL, "B"),
    "C": (HYPEROCTAHEDRAL, "C"),
    "Cstar": (HYPEROCTAHEDRAL, "C"),
    "D": (EVEN_SIGNS, "D"),
    "BC": (EVEN_SIGNS, "B"),      # type-D group with the type-B vector
}


def weyl_denominator(family: str, n: int) -> list:
    """The Weyl denominator as one factor x^a - x^-a per positive root a.

    Exponents are doubled, so x^a is e^(a/2).  The roots are e_i -+ e_j,
    and e_i for type B or 2e_i for type C; for family A, whose vector is
    (n-1, ..., 0), the factor of e_i - e_j is x_i^2 - x_j^2.  Family BC's
    alternant at rho_B = rho_D + (1/2, ..., 1/2) is D's denominator times
    (prod (x^e_i + x^-e_i) + prod (x^e_i - x^-e_i)) / 2; at x_n = 1 the
    second product vanishes and the first loses its factor 2.
    """
    group, type_ = FAMILY_CHARACTER[family]
    e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    pairs = list(itertools.combinations(e, 2))
    if group == SYMMETRIC:
        return [_x_monomial(u) ** 2 - _x_monomial(v) ** 2 for u, v in pairs]
    roots = [tuple(a + s * b for a, b in zip(u, v)) for u, v in pairs for s in (-1, 1)]
    if group == HYPEROCTAHEDRAL:
        roots += [tuple((2 if type_ == "C" else 1) * a for a in u) for u in e]
    spin = []
    if family == "BC":
        roots = [a[:-1] + (0,) for a in roots]
        spin = [_x_monomial(u) + _x_monomial(u) ** -1 for u in e[:-1]]
    return [_x_monomial(a) - _x_monomial(a) ** -1 for a in roots] + spin


def _check_dominant(mu, n):
    mu = tuple(int(m) for m in mu)
    if len(mu) != n or any(m < 0 for m in mu) or any(a < b for a, b in zip(mu, mu[1:])):
        raise ValueError("mu must be a weakly decreasing nonnegative n-tuple")
    return mu


def family_character(family: str, n: int, mu) -> LaurentPoly:
    """The character the family's partition function factors through.

    The numerator alternant divided by the Weyl denominator's root
    factors.  Family A gives the Schur polynomial.  Family BC uses the
    even-sign group with the type-B vector, evaluated at x_n = 1,
    matching the specialization baked into its weights.  Family D's
    partition function factors through this chi^D only when lambda_n = 1;
    for lambda_n > 1 it factors through the Cstar character of its
    reduction (see models.reduced).
    """
    mu = _check_dominant(mu, n)
    group, vec = FAMILY_CHARACTER[family]
    alpha = tuple(2 * m + r for m, r in zip(mu, weyl_vector(vec, n)))
    num = alternant(group, n, alpha)
    if family == "BC":
        # the odd-symplectic character lives at x_n = 1
        num = num.substitute({Var.x(n): ONE})
    chi = num.exact_divide(*weyl_denominator(family, n))
    if chi is None:
        raise ArithmeticError("the alternant failed to divide by the Weyl denominator")
    return chi


# ---------------------------------------------------------------------------
# global checks


def character_theorem_check(family: str, lam) -> dict:
    """Z(lambda) against a character multiple under the character weights.

    Two statements, both exact polynomial identities:

    - every family, except D with lambda_n > 1:
      Z(lambda) == i^{|mu|} Z(rho) chi_mu with rho = (n, ..., 1) and
      mu = lambda - rho, chi the family's character;
    - family D with lambda_n > 1: D^lambda is Cstar^(lambda - 1) with
      column c relabelled c - 1 (see models.reduced), and the character
      weights are keyed by row.  Then Z(lambda) == i^{|mu'|} Z(Cstar^rho)
      chi^Cstar_{mu'}, a type-C character, with mu' = lambda - 1 - rho.

    Both are the first statement for the model's reduction, Z(rho) being
    its character factor product (identities.rho_check).  Z is computed
    from the family's own model; "statement" names the identity applied,
    chi^F being family_character(F, n, mu).
    """
    if family == "A":
        raise ValueError("family A has no character-weight identity; use verify tokuyama")
    lam = check_strict_partition(lam)
    n = len(lam)
    base_family, base = reduced(family, lam)
    mu = tuple(a - b for a, b in zip(base, rho(n)))
    chi = family_character(base_family, n, mu)
    statement = (f"Z = i^|mu| Z({base_family}^rho) chi^{base_family}_mu, "
                 f"mu = lambda - rho{'' if base == lam else ' - 1'}")
    quotient = LaurentPoly.const(gpow_i(sum(mu))) * chi
    return {**product_check(family, lam, "character", quotient, statement), "mu": mu, "chi": chi}


def tokuyama_check(lam) -> dict:
    """The type-A anchor: Z == x^rho prod(1 + t x_j/x_i) s_mu, t symbolic.

    x^rho prod(1 + t x_j/x_i) is identities.known_factor of the Tokuyama
    scheme, make_scheme("deformation", "A", n), and s_mu the quotient.
    """
    lam = check_strict_partition(lam)
    n = len(lam)
    mu = tuple(a - b for a, b in zip(lam, rho(n)))
    r = product_check("A", lam, "deformation", family_character("A", n, mu),
                      "Z = x^rho prod(1 + t x_j/x_i) s_mu, mu = lambda - rho")

    # t = -1 collapses to the classical alternant: q -> i is exact
    z_at = r["z"].substitute({Var.qshared(): LaurentPoly.const(GInt(0, 1))})
    alpha = tuple(2 * m + d for m, d in zip(mu, weyl_vector("A", n)))
    denom_identity = _x_monomial((2,) * n) * alternant(SYMMETRIC, n, alpha)
    ok_weyl = z_at == denom_identity
    return {**r, "ok": r["ok"] and ok_weyl, "symbolic_ok": r["ok"], "t_minus_one_ok": ok_weyl}
