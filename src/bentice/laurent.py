"""Sparse multivariate Laurent polynomials over the Gaussian integers.

Everything downstream (Boltzmann weights, partition functions, alternants)
is a value of this ring, so arithmetic here is exact by construction: no
floats anywhere, coefficients are pairs of arbitrary-precision integers.

Conventions baked into the representation:

- Variables live in one of two banks, ``generic`` (the a/b weight symbols)
  and ``deformation`` (the x/q spectral parameters).  Mixing banks in one
  polynomial is an error.
- Exponents of ``x`` variables are stored doubled, so the half-integer
  exponents arising from type-B Weyl vectors stay integral.  Rendering
  divides by two.
- ``t`` parameters are never variables themselves: ``t_j`` is carried as
  ``q_j**2`` so that square roots of ``t`` demanded by specializations
  remain inside the ring.  LaTeX rendering folds even ``q`` powers back
  into ``t``.
- Monomials are stored sparse, as sorted ``(Var, exponent)`` pairs.  They
  are ordered lexicographically over the ``Var`` order (bank, symbol,
  index), with implicit zero exponents: for one operation at a time,
  ``dense_key`` lays each monomial out as a dense exponent tuple over the
  sorted variables involved, and native tuple order is the monomial order.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import add, neg, sub
from typing import Iterable, Mapping, NamedTuple, Optional

GENERIC = 0
DEFORMATION = 1

_BANK_NAMES = {GENERIC: "generic", DEFORMATION: "deformation"}

# Symbol ranks fix the global variable enumeration (bank, symbol, index).
_SYM_A0, _SYM_A1, _SYM_A2, _SYM_B0, _SYM_B1, _SYM_B2 = range(6)
_SYM_Q, _SYM_QSHARED, _SYM_X = range(3)


class MixedBankError(ValueError):
    """Raised when arithmetic would combine generic and deformation variables."""


class ZeroDivisorError(ZeroDivisionError):
    """Division by the zero polynomial; distinct from 'not divisible'."""


class Var(NamedTuple):
    """A named variable; as a plain tuple (bank, sym, idx) its native order
    is the global variable order."""

    bank: int
    sym: int
    idx: int

    # -- generic bank ------------------------------------------------
    @staticmethod
    def a1(j: int) -> "Var":
        return Var(GENERIC, _SYM_A1, j)

    @staticmethod
    def a2(j: int) -> "Var":
        return Var(GENERIC, _SYM_A2, j)

    @staticmethod
    def b1(j: int) -> "Var":
        return Var(GENERIC, _SYM_B1, j)

    @staticmethod
    def b2(j: int) -> "Var":
        return Var(GENERIC, _SYM_B2, j)

    @staticmethod
    def a0(idx: int = 0) -> "Var":
        """Central-row a symbol (written a^(0), or a^(n) in the BC family)."""
        return Var(GENERIC, _SYM_A0, idx)

    @staticmethod
    def b0(idx: int = 0) -> "Var":
        return Var(GENERIC, _SYM_B0, idx)

    # -- deformation bank --------------------------------------------
    @staticmethod
    def x(j: int) -> "Var":
        return Var(DEFORMATION, _SYM_X, j)

    @staticmethod
    def q(j: int) -> "Var":
        """Formal square root of the row parameter: q_j**2 == t_j."""
        return Var(DEFORMATION, _SYM_Q, j)

    @staticmethod
    def qshared() -> "Var":
        """The single q used when all rows share one t (q**2 == t)."""
        return Var(DEFORMATION, _SYM_QSHARED, 0)

    @property
    def is_x(self) -> bool:
        return self.bank == DEFORMATION and self.sym == _SYM_X

    @property
    def is_q(self) -> bool:
        return self.bank == DEFORMATION and self.sym in (_SYM_Q, _SYM_QSHARED)

    def name(self) -> str:
        if self.bank == GENERIC:
            base = {_SYM_A0: "a", _SYM_A1: "a1", _SYM_A2: "a2",
                    _SYM_B0: "b", _SYM_B1: "b1", _SYM_B2: "b2"}[self.sym]
            return f"{base}_{self.idx}"
        if self.sym == _SYM_X:
            return f"x_{self.idx}"
        if self.sym == _SYM_Q:
            return f"q_{self.idx}"
        return "q"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name()


@dataclass(frozen=True)
class GInt:
    """Gaussian integer re + im*i with exact arbitrary-precision parts."""

    re: int
    im: int = 0

    def __add__(self, other):
        if not isinstance(other, GInt):
            return NotImplemented
        return GInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if not isinstance(other, GInt):
            return NotImplemented
        return GInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GInt":
        return GInt(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, GInt):
            return NotImplemented
        return GInt(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    def __pow__(self, k: int) -> "GInt":
        if k < 0:
            raise ValueError("negative powers of Gaussian integers are not integral")
        out = GONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_unit(self) -> bool:
        return (self.re, self.im) in ((1, 0), (-1, 0), (0, 1), (0, -1))

    def exact_div(self, d: "GInt") -> Optional["GInt"]:
        """self / d when the quotient is again a Gaussian integer, else None."""
        norm = d.re * d.re + d.im * d.im
        if norm == 0:
            raise ZeroDivisorError("division by zero Gaussian integer")
        re = self.re * d.re + self.im * d.im
        im = self.im * d.re - self.re * d.im
        if re % norm or im % norm:
            return None
        return GInt(re // norm, im // norm)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"({self.re} {sign} {istr})"


GZERO = GInt(0, 0)
GONE = GInt(1, 0)
GI = GInt(0, 1)


# A monomial is a tuple of (Var, exponent) pairs, sorted by Var, no zeros.
Monomial = tuple


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        ne = exps.get(v, 0) + e
        if ne:
            exps[v] = ne
        else:
            del exps[v]
    return tuple(sorted(exps.items()))


def _mono_pow(m: Monomial, k: int) -> Monomial:
    if k == 0:
        return ()
    return tuple((v, e * k) for v, e in m)


def dense_key(m: Monomial, order: list) -> tuple:
    """m's exponents over the sorted variables in order, zeros included."""
    exps = dict(m)
    return tuple(exps.get(v, 0) for v in order)


def _add_term(terms: dict, m: Monomial, c: GInt) -> None:
    """terms[m] += c in place, dropping m when its coefficient cancels."""
    nc = terms.get(m, GZERO) + c
    if nc.is_zero():
        terms.pop(m, None)
    else:
        terms[m] = nc


def _check_bank(bank: Optional[int], other: Optional[int]):
    if bank is not None and other is not None and bank != other:
        raise MixedBankError(
            f"cannot combine {_BANK_NAMES[bank]} and {_BANK_NAMES[other]} polynomials")


def _coerce_coeff(c) -> GInt:
    if isinstance(c, GInt):
        return c
    if isinstance(c, int):
        return GInt(c)
    raise TypeError(f"cannot use {c!r} as a coefficient")


class LaurentPoly:
    """Immutable sparse Laurent polynomial; term map Monomial -> GInt."""

    __slots__ = ("terms", "bank")

    def __init__(self, terms: Mapping[Monomial, GInt]):
        clean = {m: c for m, c in terms.items() if not c.is_zero()}
        bank = None
        for m in clean:
            for v, _ in m:
                if bank is None:
                    bank = v.bank
                elif bank != v.bank:
                    raise MixedBankError(
                        f"monomial mixes {_BANK_NAMES[bank]} and {_BANK_NAMES[v.bank]} variables")
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "bank", bank)

    @staticmethod
    def _of(terms: dict, bank: Optional[int]) -> "LaurentPoly":
        """A polynomial from terms with no zero coefficient, every variable in bank.

        The ring operations build their results through here: their terms
        are already clean, and they know the bank, so nothing is copied or
        scanned again.  A zero has no bank.
        """
        p = object.__new__(LaurentPoly)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "bank", bank if terms else None)
        return p

    def __setattr__(self, *args):  # keep values shareable across workers
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({(): _coerce_coeff(c)})

    @staticmethod
    def var(v: Var, exp: int = 1) -> "LaurentPoly":
        if exp == 0:
            return LaurentPoly.const(1)
        return LaurentPoly({((v, exp),): GONE})

    @staticmethod
    def term(c, pairs: Iterable) -> "LaurentPoly":
        mono = tuple(sorted((v, e) for v, e in pairs if e))
        return LaurentPoly({mono: _coerce_coeff(c)})

    # -- ring operations ----------------------------------------------
    @staticmethod
    def _coerce(other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, GInt)):
            return LaurentPoly.const(other)
        return NotImplemented

    @staticmethod
    def sum(polys: Iterable["LaurentPoly"]) -> "LaurentPoly":
        """The sum of polys, folded into one term map.

        Every summand's bank is checked against the others', so generic
        and deformation summands raise MixedBankError even when the terms
        of one bank cancel later in the sum.  Like ``*`` and ``prod``, the
        sum keeps its summands' bank where their variables cancel, so
        (a1 + 1 - a1) * x_1 raises MixedBankError as (a1 * a1**-1) * x_1
        does; a zero sum has no bank.
        """
        out: dict = {}
        bank = None
        for p in polys:
            _check_bank(bank, p.bank)
            if bank is None:
                bank = p.bank
            for m, c in p.terms.items():
                _add_term(out, m, c)
        return LaurentPoly._of(out, bank)

    @staticmethod
    def prod(polys: Iterable["LaurentPoly"]) -> "LaurentPoly":
        """The product of polys, equal to chaining ``*`` from 1.

        The single-term factors fold into one exponent map and one
        coefficient; only the factors of two or more terms are multiplied
        out, and the folded monomial shifts their product once.  A zero
        factor ends the product: the rest are not read.  Up to there every
        factor's bank is checked against the others', as ``sum`` checks
        summands, so generic and deformation factors raise MixedBankError
        even where one bank's monomials cancel to a constant.  Like
        ``*``, the product keeps its factors' bank when they cancel.  The
        empty product is 1.
        """
        exps: dict = {}
        re, im = 1, 0
        bank = None
        multi = None
        for p in polys:
            if not p.terms:
                return _ZERO
            _check_bank(bank, p.bank)
            if bank is None:
                bank = p.bank
            if len(p.terms) > 1:
                multi = p if multi is None else multi * p
                continue
            ((m, c),) = p.terms.items()
            re, im = re * c.re - im * c.im, re * c.im + im * c.re
            for v, e in m:
                exps[v] = exps.get(v, 0) + e
        coeff = GInt(re, im)
        shift = tuple(sorted((v, e) for v, e in exps.items() if e))
        if multi is None:
            return LaurentPoly._of({shift: coeff}, bank)
        return LaurentPoly._of({_mono_mul(m, shift): c * coeff
                                for m, c in multi.terms.items()}, bank)

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentPoly.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({m: -c for m, c in self.terms.items()}, self.bank)

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        """The product.  It keeps its operands' bank where their monomials
        cancel, so a1 * a1**-1 * x_1 raises MixedBankError as
        a1 * x_1 * a1**-1 does; a zero product has no bank."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_bank(self.bank, other.bank)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _add_term(out, _mono_mul(m1, m2), c1 * c2)
        return LaurentPoly._of(out, self.bank if self.bank is not None else other.bank)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            if len(self.terms) == 1:
                m, c = next(iter(self.terms.items()))
                if c.is_unit():
                    return LaurentPoly({_mono_pow(m, k): c ** (k % 4)})
            raise ValueError("negative power of a non-unit polynomial")
        out = LaurentPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- queries -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set:
        return {v for m in self.terms for v, _ in m}

    def total_degree(self) -> Optional[int]:
        """Max total degree over terms; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e for _, e in m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e for _, e in m) for m in self.terms}
        return len(degs) <= 1

    def sorted_terms(self) -> list:
        order = sorted(self.variables())
        return sorted(self.terms.items(), key=lambda it: dense_key(it[0], order))

    def leading(self) -> tuple:
        return self.sorted_terms()[-1]

    # -- substitution / evaluation --------------------------------------
    def substitute(self, images: Mapping[Var, "LaurentPoly"]) -> "LaurentPoly":
        """Simultaneous substitution of variables by polynomials.

        Images replace one *stored* unit of the variable, so for x
        variables (doubled exponents) the image describes x**(1/2); in
        practice x variables are only ever mapped to monomials in other
        x variables, which keeps the convention consistent.

        A variable that occurs with a negative exponent must map to a
        single-term polynomial with unit coefficient, so the image stays
        in the ring; any other image raises ValueError (from ``**``).
        """
        def image(m: Monomial, c: GInt) -> "LaurentPoly":
            rest = LaurentPoly.term(c, [(v, e) for v, e in m if v not in images])
            return LaurentPoly.prod([rest, *(images[v] ** e for v, e in m if v in images)])

        return LaurentPoly.sum(image(m, c) for m, c in self.terms.items())

    def evaluate(self, point: Mapping[Var, GInt]) -> GInt:
        """Exact value at a Gaussian-integer point covering all variables.

        The value stays in Z[i] only without negative exponents, so those
        must be cleared first (see clearing_shift).
        """
        powers: dict = {}
        total = GZERO
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                if e < 0:
                    raise ValueError(
                        f"{v.name()} has a negative exponent; clear negative exponents first")
                power = powers.get((v, e))
                if power is None:
                    if v not in point:
                        raise KeyError(f"no value for {v.name()}")
                    power = powers[(v, e)] = point[v] ** e
                val = val * power
            total = total + val
        return total

    def clearing_shift(self) -> Monomial:
        """The unit monomial that shifts each variable by minus its least exponent.

        Its product with self has no negative exponent and no monomial
        factor, so a cleared divisor divides a cleared dividend exactly when
        the Laurent polynomials divide.
        """
        mins: dict = {}
        for m in self.terms:
            for v, e in m:
                if e < mins.get(v, 0):
                    mins[v] = e
        # the monomial factor: each variable with a positive exponent in every term
        common = dict(next(iter(self.terms), ()))
        for m in self.terms:
            if not common:
                break
            common = {v: min(e, common[v]) for v, e in m if e > 0 and v in common}
        return tuple(sorted((v, -e) for v, e in {**mins, **common}.items()))

    # -- division --------------------------------------------------------
    def exact_divide(self, d: "LaurentPoly") -> Optional["LaurentPoly"]:
        """Quotient self/d when d divides exactly, else None.

        Both operands are shifted by monomials to clear negative
        exponents and laid out as dense exponent tuples over their joint
        variables, then single-divisor multivariate division runs under
        the lexicographic order; remainder zero iff divisible (for one
        divisor the leading term of d must divide the leading term of
        the remainder at every step).  The quotient is shifted back.
        Clearing also removes every monomial factor (see clearing_shift),
        so this decides divisibility in the Laurent ring: 1 / x_1 is x_1^-1.
        """
        if d.is_zero():
            raise ZeroDivisorError("division by the zero polynomial")
        if self.is_zero():
            return _ZERO
        _check_bank(self.bank, d.bank)

        mp, md = self.clearing_shift(), d.clearing_shift()
        order = sorted(self.variables() | d.variables())
        rem = {dense_key(_mono_mul(m, mp), order): c for m, c in self.terms.items()}
        den = {dense_key(_mono_mul(m, md), order): c for m, c in d.terms.items()}

        dlead = max(den)
        dlc = den[dlead]
        quo: dict = {}
        # the remainder's monomials, negated so the heap's least is its leading
        # one; a monomial is pushed when it enters rem, and one popped after it
        # cancelled is skipped (Monagan-Pearce, CASC 2007)
        heap = [tuple(map(neg, m)) for m in rem]
        heapify(heap)
        while rem:
            rlead = tuple(map(neg, heappop(heap)))
            if rlead not in rem:
                continue
            qm = tuple(map(sub, rlead, dlead))
            if min(qm, default=0) < 0:
                return None
            qc = rem[rlead].exact_div(dlc)
            if qc is None:
                return None
            quo[qm] = qc
            for m, c in den.items():
                key = tuple(map(add, m, qm))
                if key not in rem:
                    heappush(heap, tuple(map(neg, key)))
                _add_term(rem, key, -(qc * c))
        # undo the clearing shifts: quotient picks up md / mp
        shift = _mono_mul(md, _mono_pow(mp, -1))
        return LaurentPoly({_mono_mul(tuple((v, e) for v, e in zip(order, qm) if e), shift): c
                            for qm, c in quo.items()})

    # -- rendering ---------------------------------------------------------
    def to_json(self) -> dict:
        terms = [{"coeff": [c.re, c.im],
                  "monomial": {v.name(): e for v, e in m}}
                 for m, c in self.sorted_terms()]
        return {"exponent_unit": "half", "terms": terms}

    def to_latex(self) -> str:
        """Human rendering: q_j^2 prints as t_j, x exponents halved."""
        if self.is_zero():
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            factors = []
            for v, e in m:
                factors.append(_render_var_power(v, e))
            body = " ".join(f for f in factors if f)
            coeff = _render_coeff(c, bool(body))
            chunks.append((coeff, body))
        out = ""
        for k, (coeff, body) in enumerate(chunks):
            piece = (coeff + " " + body).strip() if body else coeff
            if k == 0:
                out = piece
            elif piece.startswith("-"):
                out += " - " + piece[1:].lstrip()
            else:
                out += " + " + piece
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LaurentPoly({self.to_latex()})"


def _render_var_power(v: Var, e: int) -> str:
    if v.is_x:
        # stored exponents are doubled
        if e % 2 == 0:
            e = e // 2
            name = f"x_{{{v.idx}}}"
        else:
            return f"x_{{{v.idx}}}^{{{e}/2}}"
    elif v.is_q:
        # even powers of q are powers of t
        label = "t" if v.sym == _SYM_QSHARED else f"t_{{{v.idx}}}"
        if e % 2 == 0:
            e, name = e // 2, label
        else:
            name = "q" if v.sym == _SYM_QSHARED else f"q_{{{v.idx}}}"
    else:
        base = v.name()
        stem, _, idx = base.partition("_")
        name = f"{stem}_{{{idx}}}" if len(stem) == 1 else f"{stem}^{{({idx})}}"
    if e == 1:
        return name
    return f"{name}^{{{e}}}"


def _render_coeff(c: GInt, has_body: bool) -> str:
    s = str(c)
    if has_body:
        if s == "1":
            return ""
        if s == "-1":
            return "-"
    return s


_ZERO = LaurentPoly({})


def gpow_i(k: int) -> GInt:
    """i**k for any integer k."""
    return (GI ** (k % 4))
