"""Reference implementations that only the tests call.

`total_degree` and `is_homogeneous` check the shape of products and
weights.  `exact_divide` is the dense-tuple division that the packed
layout of `bentice.laurent` replaced, kept verbatim (as a function of
its two operands) as the differential oracle for `LaurentPoly.exact_divide`.
"""

from heapq import heapify, heappop, heappush
from operator import add, neg, sub
from typing import Optional

from bentice.laurent import (
    _ZERO, LaurentPoly, ZeroDivisorError, _add_term, _check_bank, _mono_mul, _mono_pow,
    dense_key,
)


def total_degree(p: LaurentPoly) -> Optional[int]:
    """Max total degree over terms; None for the zero polynomial."""
    if not p.terms:
        return None
    return max(sum(e for _, e in m) for m in p.terms)


def is_homogeneous(p: LaurentPoly) -> bool:
    degs = {sum(e for _, e in m) for m in p.terms}
    return len(degs) <= 1


def exact_divide(self: LaurentPoly, d: LaurentPoly) -> Optional[LaurentPoly]:
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
