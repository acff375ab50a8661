"""Weyl-group machinery and the character specialization checks.

Signed permutations are pairs (sigma, v) acting on exponent vectors by
(w.alpha)_j = v_j * alpha_sigma(j), multiplied by
(s1,v1)(s2,v2) = (s2 s1, v1 * v2^s1).  Four groups share them: the
symmetric group (type A, every sign +1), the hyperoctahedral group, and
its even-sign subgroup.  Lengths come from the classical inversion
formulas on one-line notation (validated against word length over the
generators: adjacent swaps, plus a last-coordinate sign flip for the full
hyperoctahedral group or the two-coordinate flip for its even subgroup).

Characters are alternant ratios, with exponents kept doubled so type-B
half-integer weights stay integral.  Both checks are exact polynomial
identities: the character factorization of the partition function, and
the type-A anchor identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .identities import _x_rho_shift, known_factor
from .laurent import GInt, LaurentPoly, Var, gpow_i
from .models import build_model, check_strict_partition
from .states import partition_function
from .weights import make_character, make_tokuyama

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

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        # group law: (s1,v1)(s2,v2) = (s2 s1, v1 * v2^s1)
        v1, s2, v2 = self.signs, other.sigma, other.signs
        sigma = tuple(s2[self.sigma[j] - 1] for j in range(self.n))
        signs = tuple(v1[j] * v2[self.sigma[j] - 1] for j in range(self.n))
        return SignedPermutation(sigma, signs)

    def act(self, alpha: tuple) -> tuple:
        """(w.alpha)_j = v_j alpha_sigma(j); alpha in doubled units."""
        return tuple(self.signs[j] * alpha[self.sigma[j] - 1] for j in range(self.n))


def _bb_oneline(w: SignedPermutation) -> list:
    """One-line form in the convention whose sign flip sits on coordinate 1.

    The element is read as the map j -> v_j sigma(j) and conjugated by the
    coordinate reversal, which carries our generator set to the classical
    one and so preserves length.
    """
    n = w.n
    f = [w.signs[j] * w.sigma[j] for j in range(n)]
    out = []
    for k in range(1, n + 1):
        val = f[n - k]
        mag = n + 1 - abs(val)
        out.append(mag if val > 0 else -mag)
    return out


def length(w: SignedPermutation, group: str) -> int:
    """Coxeter length by inversion counting."""
    u = _bb_oneline(w)
    n = len(u)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if u[i] > u[j])
    if group == SYMMETRIC:
        return inv
    if group == HYPEROCTAHEDRAL:
        return inv + sum(-v for v in u if v < 0)
    if group == EVEN_SIGNS:
        return inv + sum(-v - 1 for v in u if v < 0)
    raise ValueError(f"unknown group {group!r}")


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
    return LaurentPoly.sum(_x_monomial(w.act(alpha), (-1) ** (length(w, group) % 2))
                           for w in weyl_group(group, n))


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


def _check_dominant(mu, n):
    mu = tuple(int(m) for m in mu)
    if len(mu) != n or any(m < 0 for m in mu) or any(a < b for a, b in zip(mu, mu[1:])):
        raise ValueError("mu must be a weakly decreasing nonnegative n-tuple")
    return mu


def family_character(family: str, n: int, mu) -> LaurentPoly:
    """The character the family's partition function factors through.

    Family A gives the Schur polynomial, the bialternant over S_n.
    Family BC uses the even-sign group with the type-B vector, evaluated
    at x_n = 1, matching the specialization baked into its weights.
    Family D's partition function factors through this chi^D only when
    lambda_n = 1; for lambda_n > 1 it factors through the Cstar character
    (see character_theorem_check).
    """
    mu = _check_dominant(mu, n)
    group, vec = FAMILY_CHARACTER[family]
    rho = weyl_vector(vec, n)
    alpha = tuple(2 * m + r for m, r in zip(mu, rho))
    num = alternant(group, n, alpha)
    den = alternant(group, n, rho)
    if family == "BC":
        # the odd-symplectic character lives at x_n = 1; the unspecialized
        # alternant ratio need not be polynomial
        num = num.substitute({Var.x(n): ONE})
        den = den.substitute({Var.x(n): ONE})
    chi = num.exact_divide(den)
    if chi is None:
        raise ArithmeticError("alternant ratio failed to divide exactly")
    return chi


# ---------------------------------------------------------------------------
# global checks


def character_theorem_check(family: str, lam) -> dict:
    """Z(lambda) against a character multiple under the character weights.

    Two statements, both exact polynomial identities:

    - every family, except D with lambda_n > 1:
      Z(lambda) == i^{|mu|} Z(rho) chi_mu with rho = (n, ..., 1) and
      mu = lambda - rho, chi the family's character;
    - family D with lambda_n > 1: the half column's top edge then points
      inward, as Cstar's always does, and the character weights are keyed
      by row, so D^lambda is Cstar^(lambda - 1) with column c relabelled
      c - 1.  Then Z(lambda) == i^{|mu'|} Z(Cstar^rho) chi^Cstar_{mu'},
      a type-C character, with mu' = lambda - (n + 1, ..., 2).

    Z is always computed from the family's own model; "statement" names
    the identity applied, chi^F being family_character(F, n, mu).
    """
    if family == "A":
        raise ValueError("family A has no character-weight identity; use verify tokuyama")
    lam = check_strict_partition(lam)
    n = len(lam)
    z_lam = partition_function(build_model(family, list(lam)), make_character(family, n))
    shift = 0
    if family == "D" and lam[-1] > 1:
        family, shift = "Cstar", 1
    rho = tuple(range(n, 0, -1))
    mu = tuple(a - b - shift for a, b in zip(lam, rho))
    z_rho = partition_function(build_model(family, list(rho)), make_character(family, n))
    chi = family_character(family, n, mu)
    rhs = LaurentPoly.const(gpow_i(sum(mu))) * z_rho * chi
    ok = z_lam == rhs
    statement = (f"Z = i^|mu| Z({family}^rho) chi^{family}_mu, "
                 f"mu = lambda - rho{' - 1' if shift else ''}")
    return {"ok": ok, "statement": statement, "mu": mu, "z": z_lam, "rhs": rhs,
            "chi": chi, "diff": None if ok else z_lam - rhs}


def tokuyama_check(lam) -> dict:
    """The type-A anchor: Z == x^rho prod(1 + t x_j/x_i) s_mu, t symbolic."""
    lam = check_strict_partition(lam)
    n = len(lam)
    rho = tuple(range(n, 0, -1))
    mu = tuple(a - b for a, b in zip(lam, rho))
    z = partition_function(build_model("A", list(lam)), make_tokuyama(n))
    rhs = LaurentPoly.prod([_x_rho_shift(n, 1), *known_factor("A", n, "deformation"),
                            family_character("A", n, mu)])
    ok = z == rhs

    # t = -1 collapses to the classical alternant: q -> i is exact
    z_at = z.substitute({Var.qshared(): LaurentPoly.const(GInt(0, 1))})
    alpha = tuple(2 * m + d for m, d in zip(mu, weyl_vector("A", n)))
    denom_identity = _x_monomial((2,) * n) * alternant(SYMMETRIC, n, alpha)
    ok_weyl = z_at == denom_identity
    return {"ok": ok and ok_weyl, "symbolic_ok": ok, "t_minus_one_ok": ok_weyl,
            "z": z, "rhs": rhs}
