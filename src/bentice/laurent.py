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
- Exact division and the divisibility pre-check's evaluation run in one
  private packed layout (``_Packed``): each operand is cleared once
  (``clearing_shift``), every monomial becomes one int with a guarded slot
  per variable, in which int order is the monomial order, and coefficients
  are ``(re, im)`` int pairs.  Only a final quotient is unpacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
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


def _exponent_bounds(terms) -> dict:
    """Each variable's least and greatest exponent over the monomials, a
    monomial without the variable counting as exponent 0."""
    exps: dict = {}
    for m in terms:
        for v, e in m:
            if v in exps:
                exps[v].append(e)
            else:
                exps[v] = [e]
    n = len(terms)
    return {v: (min(es), max(es)) if len(es) == n else (min(0, *es), max(0, *es))
            for v, es in exps.items()}


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
        return LaurentPoly.prod([self] * k)

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

    def sorted_terms(self) -> list:
        order = sorted(self.variables())
        return sorted(self.terms.items(), key=lambda it: dense_key(it[0], order))

    def leading(self) -> tuple:
        return self.sorted_terms()[-1]

    # -- substitution -------------------------------------------------
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

    def clearing_shift(self) -> Monomial:
        """The unit monomial that shifts each variable by minus its least exponent.

        A monomial without the variable counts as exponent 0.  The product
        with self has no negative exponent and no monomial factor, so a
        cleared divisor divides a cleared dividend exactly when the Laurent
        polynomials divide.
        """
        return tuple(sorted((v, -lo) for v, (lo, _) in _exponent_bounds(self.terms).items()
                            if lo))

    # -- division --------------------------------------------------------
    def exact_divide(self, *divisors: "LaurentPoly") -> Optional["LaurentPoly"]:
        """Quotient of self by the product of the divisors when exact, else None.

        Every operand is cleared once (see clearing_shift) and packed into
        one layout (see _Packed); self is divided by each divisor in turn,
        each quotient being the next dividend.  One division runs under
        the lexicographic order and is exact iff its remainder is zero
        (for one divisor the leading term of d must divide the leading
        term of the remainder at every step).  Only the final quotient is
        unpacked and shifted back.  Clearing also removes every monomial
        factor, so this decides divisibility in the Laurent ring: 1 / x_1
        is x_1^-1.  As in ``prod``, the empty product is 1.
        """
        if any(d.is_zero() for d in divisors):
            raise ZeroDivisorError("division by the zero polynomial")
        if self.is_zero():
            return _ZERO
        for d in divisors:
            _check_bank(self.bank, d.bank)
        packed = _Packed.cleared((self, *divisors))
        quo = packed.quotient()
        if quo is None:
            return None
        # undo the clearing shifts: the quotient picks up each divisor's
        # shift and loses self's
        back: dict = {}
        for k, shift in enumerate(packed.shifts):
            for v, e in shift.items():
                back[v] = back.get(v, 0) + (e if k else -e)
        return LaurentPoly({packed.unpack(key, back): GInt(re, im)
                            for key, (re, im) in quo.items()})

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


class _Packed:
    """Polynomials packed into one int per monomial over their joint variables.

    Each operand is multiplied by its own shift monomial (its clearing
    shift, or none for a polynomial without negative exponents), so every
    exponent is nonnegative.  The operands' joint variables, sorted, each
    own one slot of ``width`` bits, enough for the largest shifted
    exponent, with a guard bit above it; the first variable holds the
    highest slot.  So int order is the lexicographic monomial order (the
    order of dense_key tuples), the product of two monomials is the sum of
    their ints, and b divides a exactly when ``(a | guard) - b`` keeps
    every guard bit.  A sum of two slots carries at most into its guard
    bit, never into the next slot.  Coefficients are (re, im) int pairs.
    """

    __slots__ = ("offsets", "width", "mask", "guard", "shifts", "terms")

    def __init__(self, polys, shifts):
        bounds = [_exponent_bounds(p.terms) for p in polys]
        self.shifts = [dict(shift) for shift in shifts]
        top = max((hi + shift.get(v, 0) for b, shift in zip(bounds, self.shifts)
                   for v, (_, hi) in b.items()), default=0)
        self.width = top.bit_length() or 1
        self.mask = (1 << self.width) - 1
        order = sorted(set().union(*bounds))
        # each variable's slot offset, the first variable's the highest
        self.offsets = {v: (len(order) - 1 - i) * (self.width + 1) for i, v in enumerate(order)}
        self.guard = sum(1 << (o + self.width) for o in self.offsets.values())
        self.terms = []
        for p, shift in zip(polys, self.shifts):
            base = self.pack(shift.items())
            self.terms.append({base + self.pack(m): (c.re, c.im) for m, c in p.terms.items()})

    @classmethod
    def cleared(cls, polys) -> "_Packed":
        """The polynomials packed, each cleared by its clearing_shift."""
        return cls(polys, [p.clearing_shift() for p in polys])

    def pack(self, m) -> int:
        """The sum of m's exponents, each moved to its variable's slot.

        For exponents that fit the slots this is the packed monomial; an
        operand's monomial plus its shift is packed as the sum of the two
        ints, exact whatever the signs, since the shifted exponents fit.
        """
        offsets = self.offsets
        return sum([e << offsets[v] for v, e in m])

    def unpack(self, key: int, back: Mapping[Var, int]) -> Monomial:
        """The monomial of a packed int, each exponent shifted by back."""
        mask = self.mask
        return tuple((v, e) for v, o in self.offsets.items()
                     if (e := (key >> o & mask) + back.get(v, 0)))

    # -- division ----------------------------------------------------------
    def quotient(self) -> Optional[dict]:
        """The first operand divided by each of the others in turn, or None
        once a division leaves a remainder."""
        quo = self.terms[0]
        for den in self.terms[1:]:
            quo = self._divide(quo, den)
            if quo is None:
                return None
        return quo

    def _divide(self, num: dict, den: dict) -> Optional[dict]:
        """num / den, or None if den does not divide num exactly.

        Division under the lexicographic order: the remainder's monomials
        are kept on a heap, negated so that its least is the leading one;
        a monomial is pushed when it enters the remainder, and one popped
        after it cancelled is skipped (Monagan-Pearce, CASC 2007).  If den
        divides num, each step's quotient monomial is one of the
        quotient's, so every monomial of den times it lies in the Newton
        polytope of num, and no slot exceeds num's largest exponent: a
        set guard bit proves a remainder.
        """
        guard = self.guard
        dlead = max(den)
        dre, dim = den[dlead]
        norm = dre * dre + dim * dim
        tail = [(m, re, im) for m, (re, im) in den.items() if m != dlead]
        rem = dict(num)
        heap = [-m for m in rem]
        heapify(heap)
        quo: dict = {}
        while rem:
            lead = -heappop(heap)
            coeff = rem.pop(lead, None)
            if coeff is None:
                continue
            qm = (lead | guard) - dlead
            if qm & guard != guard:
                return None
            qm ^= guard
            re, im = coeff
            re, im = re * dre + im * dim, im * dre - re * dim
            if re % norm or im % norm:
                return None
            qre, qim = re // norm, im // norm
            quo[qm] = (qre, qim)
            # the leading terms cancel; subtract the rest of den times the step
            for m, cre, cim in tail:
                key = m + qm
                if key & guard:
                    return None
                sre, sim = qre * cre - qim * cim, qre * cim + qim * cre
                old = rem.get(key)
                if old is None:
                    rem[key] = (-sre, -sim)
                    heappush(heap, -key)
                elif old == (sre, sim):
                    del rem[key]
                else:
                    rem[key] = (old[0] - sre, old[1] - sim)
        return quo

    # -- evaluation --------------------------------------------------------
    def powers(self, point: Mapping[Var, GInt]) -> list:
        """(offset, powers of the value) for each slot that a monomial uses.

        Each slot's list runs from the 0th power up to the bitwise or of
        the operands' exponents there, at least the largest of them.
        """
        used = 0
        for terms in self.terms:
            for key in terms:
                used |= key
        mask = self.mask
        tables = []
        for v, o in self.offsets.items():
            top = used >> o & mask
            if not top:
                continue
            if v not in point:
                raise KeyError(f"no value for {v.name()}")
            x = point[v]
            re, im = 1, 0
            table = [(1, 0)]
            for _ in range(top):
                re, im = re * x.re - im * x.im, re * x.im + im * x.re
                table.append((re, im))
            tables.append((o, table))
        return tables

    def value(self, k: int, powers: list) -> GInt:
        """Operand k's value at the point whose powers are given."""
        mask = self.mask
        total_re = total_im = 0
        for key, (re, im) in self.terms[k].items():
            for o, table in powers:
                e = key >> o & mask
                if e:
                    pre, pim = table[e]
                    re, im = re * pre - im * pim, re * pim + im * pre
            total_re += re
            total_im += im
        return GInt(total_re, total_im)


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
