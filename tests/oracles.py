"""Reference implementations and helpers that only the tests call.

The package keeps only what its verbs reach; everything here is reached
from the tests alone.

- States: a state stores the tag each unit took.  `edge_bits` decodes
  those tags into the edge bits of the orientation, and every test that
  reads bits goes through it (`orientation` lines them up with a model's
  edges).
- Models and schemes: `vertex_count`, `outward`, `model_to_json`,
  `scheme_rows` and `scheme_to_json` summarize a model or a weight scheme
  for the structural tests and the golden digests.
- Polynomials: `total_degree` and `is_homogeneous` check the shape of
  products and weights, `zero` is the zero polynomial and `evaluate`
  values a polynomial at a Gaussian-integer point.  `exact_divide` is the
  dense-tuple division that the packed layout of `bentice.laurent`
  replaced, kept verbatim (as a function of its two operands) as the
  differential oracle for `LaurentPoly.exact_divide`.
- Weights: `delta` is a row's free-fermion defect, `check_scheme` lists
  every structural constraint a scheme violates, and `all_ones_scheme`
  weighs every state 1.
- Sign matrices: `is_asm`, brute-force enumerators of the (half-turn
  symmetric) alternating sign matrices, and the family-B interleaving
  partition chain with its matrix of row differences.
- Characters: `compose`, the law of the signed-permutation groups;
  `alternant_ratio`, a character as the numerator alternant over the
  alternant at rho, the differential oracle for `family_character`'s
  division by the Weyl denominator's root factors; the bijection between
  the nonzero-weight states under the character weights and the Weyl
  group elements (acceptance criterion 7), the closed form of each
  state's weight, and the sign statistic phi.
"""

from heapq import heapify, heappop, heappush
from operator import add, neg, sub
from typing import Mapping, Optional

from bentice.asm import AsmError, _row_steps, is_half_turn_symmetric
from bentice.characters import (
    FAMILY_CHARACTER, HYPEROCTAHEDRAL, SignedPermutation, _x_monomial, alternant, weyl_vector,
)
from bentice.laurent import (
    _ZERO, GInt, LaurentPoly, Var, ZeroDivisorError, _add_term, _check_bank, _mono_mul,
    _mono_pow, _Packed, dense_key, gpow_i,
)
from bentice.models import (
    KINDS, EdgeId, ModelSpec, _edge_name, build_model, check_strict_partition, row_layout,
)
from bentice.states import IceState, enumerate_states, state_weight
from bentice.weights import I, ONE, TABLE_BEND_DOWN, WeightScheme, make_character

# ---------------------------------------------------------------------------
# states, models and schemes


def edge_bits(units, fixed: dict, tags) -> dict:
    """Edge -> bit of the orientation in which each unit took its tag: the
    fixed edges, then every edge of every unit, from the configuration its
    tag names."""
    bits = dict(fixed)
    for unit, tag in zip(units, tags):
        bits.update(zip((e for e, _pol in unit.edges), unit.configs[unit.tags.index(tag)]))
    return bits


def orientation(state: IceState) -> tuple:
    """A state's edge bits (``edge_bits``) aligned with its model's edges."""
    spec = state.spec
    bits = edge_bits(spec.units, spec.boundary, state.tags)
    return tuple(bits[e] for e in spec.edges)


def vertex_count(spec: ModelSpec) -> int:
    """Tetravalent vertices only; bends and corners excluded."""
    return sum(u.kind == "vertex" for u in spec.units)


def outward(spec: ModelSpec, e: EdgeId) -> bool:
    """Render a fixed boundary bit as inward/outward relative to the grid."""
    kind, _, k = e
    bit = spec.boundary[e]
    if kind == "h":
        return bit if k > 0 else not bit       # east at the right end is out
    return bit if k == 0 else not bit          # up at the top is out


def model_to_json(spec: ModelSpec) -> dict:
    return {
        "family": spec.family,
        "lambda": list(spec.lam),
        "rows": list(spec.rows),
        "columns": list(spec.full_cols),
        "half_column": spec.half_col,
        "central_row": spec.central,
        "bend_rows": list(spec.bend_rows),
        "vertex_count": vertex_count(spec),
        "boundary": {_edge_name(e): ("out" if outward(spec, e) else "in")
                     for e in sorted(spec.boundary, key=_edge_name)},
    }


def scheme_rows(scheme: WeightScheme) -> list:
    return sorted({r for _, r in scheme.vertex})


def scheme_to_json(scheme: WeightScheme) -> dict:
    return {
        "name": scheme.name,
        "family": scheme.family,
        "n": scheme.n,
        "vertex": {f"{k}:{r}": scheme.vertex[(k, r)].to_json()
                   for k, r in sorted(scheme.vertex)},
        "bend_up": {r: w.to_json() for r, w in sorted(scheme.bend_up.items())},
        "bend_down": {r: w.to_json() for r, w in sorted(scheme.bend_down.items())},
        "corner_r": scheme.corner_r.to_json() if scheme.corner_r is not None else None,
        "corner_l": scheme.corner_l.to_json() if scheme.corner_l is not None else None,
    }


# ---------------------------------------------------------------------------
# polynomials


def total_degree(p: LaurentPoly) -> Optional[int]:
    """Max total degree over terms; None for the zero polynomial."""
    if not p.terms:
        return None
    return max(sum(e for _, e in m) for m in p.terms)


def is_homogeneous(p: LaurentPoly) -> bool:
    degs = {sum(e for _, e in m) for m in p.terms}
    return len(degs) <= 1


def zero() -> LaurentPoly:
    return _ZERO


def evaluate(p: LaurentPoly, point: Mapping[Var, GInt]) -> GInt:
    """Exact value at a Gaussian-integer point covering all variables.

    The value stays in Z[i] only without negative exponents, so those
    must be cleared first (see clearing_shift).  The polynomial is
    packed as it stands and valued by the pre-check's routine
    (see _Packed.value).
    """
    for m in p.terms:
        for v, e in m:
            if e < 0:
                raise ValueError(
                    f"{v.name()} has a negative exponent; clear negative exponents first")
    packed = _Packed((p,), ((),))
    return packed.value(0, packed.powers(point))


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


# ---------------------------------------------------------------------------
# weights


def delta(scheme: WeightScheme, row: str) -> LaurentPoly:
    """a1 a2 + b1 b2 - c1 c2 of a row: zero when the row is free-fermionic."""
    w = scheme.row_weights(row)
    return w["a1"] * w["a2"] + w["b1"] * w["b2"] - w["c1"] * w["c2"]


def check_scheme(scheme: WeightScheme) -> list:
    """Every violated structural constraint, as human-readable strings."""
    report = []
    rows, c = row_layout(scheme.family, scheme.n)
    for r in rows + ((c,) if c else ()):
        if not delta(scheme, r).is_zero():
            report.append(f"free-fermion violated in row {r}: delta != 0")
    for j in rows:
        jb = j + "b"
        for a, b in (("a1", "a2"), ("a2", "a1"), ("b1", "b2"), ("b2", "b1"),
                     ("c1", "c1"), ("c2", "c2")):
            if scheme.vertex.get((a, jb)) != scheme.vertex.get((b, j)):
                report.append(f"symmetry-1 violated: {a}^({jb}) != {b}^({j})")
    for j in rows:
        jb = j + "b"
        if j in scheme.bend_up and scheme.bend_up.get(j) != scheme.bend_up.get(jb):
            report.append(f"symmetry-2 violated: U^({j}) != U^({jb})")
        if j in scheme.bend_down and scheme.bend_down.get(j) != scheme.bend_down.get(jb):
            report.append(f"symmetry-2 violated: D^({j}) != D^({jb})")
    if c is not None:
        a0 = scheme.vertex.get(("a1", c))
        b0 = scheme.vertex.get(("b1", c))
        if scheme.vertex.get(("a2", c)) != a0 or scheme.vertex.get(("b2", c)) != b0:
            report.append("central-row degeneracy violated: a1/a2 or b1/b2 differ")
        if scheme.vertex.get(("c1", c)) != a0 * a0 + b0 * b0:
            report.append("central-row degeneracy violated: c1 != a^2 + b^2")
    expected_down = TABLE_BEND_DOWN.get(scheme.family)
    for r, w in scheme.bend_up.items():
        if w != ONE:
            report.append(f"bend convention violated: U^({r}) != 1")
    if expected_down is not None:
        for r, w in scheme.bend_down.items():
            if w != expected_down:
                report.append(f"bend convention violated: D^({r}) != table value")
    if scheme.family == "C":
        if scheme.corner_r != ONE:
            report.append("corner convention violated: R != 1")
        if scheme.corner_l != a0 - I * b0:
            report.append("corner convention violated: L != a0 - i b0")
    return report


def all_ones_scheme(spec: ModelSpec) -> WeightScheme:
    """Every weight 1: the partition function counts states."""
    entries = {(k, r): ONE for r in spec.rows for k in KINDS}
    up = {r: ONE for j in spec.bend_rows for r in (j, j + "b")}
    return WeightScheme(name="ones", family=spec.family, n=spec.n,
                        vertex=entries, bend_up=dict(up), bend_down=dict(up),
                        corner_r=ONE, corner_l=ONE)


# ---------------------------------------------------------------------------
# sign matrices


def is_asm(matrix) -> bool:
    """Full alternating-sign-matrix test (square matrices)."""
    return _row_steps(matrix) is not None


def asm_matrices(n: int) -> list:
    """All n x n alternating sign matrices, by depth-first row filling."""
    results = []
    rows: list = []

    def candidate_rows(col_partials):
        # rows whose prefix sums stay in {0,1} and keep column partials legal
        out = []

        def rec(j, row, row_partial):
            if j == n:
                if row_partial == 1:
                    out.append(tuple(row))
                return
            for v in (-1, 0, 1):
                if row_partial + v in (0, 1) and col_partials[j] + v in (0, 1):
                    row.append(v)
                    rec(j + 1, row, row_partial + v)
                    row.pop()

        rec(0, [], 0)
        return out

    def dfs(i, col_partials):
        if i == n:
            if all(p == 1 for p in col_partials):
                results.append(tuple(rows))
            return
        for row in candidate_rows(col_partials):
            rows.append(row)
            dfs(i + 1, [p + v for p, v in zip(col_partials, row)])
            rows.pop()

    dfs(0, [0] * n)
    return results


def htsasm_matrices(n: int) -> list:
    """Half-turn symmetric n x n ASMs, independently of any ice model."""
    return [m for m in asm_matrices(n) if is_half_turn_symmetric(m)]


def interleave_chain(state: IceState) -> list:
    """Up-arrow column sets between consecutive rows, top to bottom."""
    spec = state.spec
    if spec.family != "B":
        raise AsmError("the partition chain is defined for family B states")
    n = spec.n
    bits = edge_bits(spec.units, spec.boundary, state.tags)
    chain = []
    for gap in range(2 * n + 1):
        parts = tuple(sorted((c for c in spec.full_cols
                              if bits[("v", c, gap)]), reverse=True))
        chain.append(parts)
    if chain[0] != spec.lam:
        raise AsmError("chain must start at lambda")
    if chain[-1] != ():
        raise AsmError("chain must end empty")
    for upper, lower in zip(chain, chain[1:]):
        for j in range(len(lower)):
            if not (j < len(upper) and upper[j] >= lower[j]
                    and (j + 1 >= len(upper) or lower[j] >= upper[j + 1])):
                raise AsmError(f"interleaving violated between {upper} and {lower}")
        if len(lower) > len(upper):
            raise AsmError("chain lengths may not grow downward")
    for i in range(1, n + 2):
        if len(chain[i - 1]) - len(chain[2 * n + 1 - i]) != n + 1 - i:
            raise AsmError("length bookkeeping violated")
    return chain


def chain_to_c_matrix(chain, lam1: int) -> tuple:
    """Row differences of the part-indicator matrix; entries in -1,0,1."""
    b_rows = [[1 if col in parts else 0 for col in range(lam1, 0, -1)]
              for parts in chain[:-1]]
    out = []
    for i in range(len(b_rows)):
        if i + 1 < len(b_rows):
            row = [a - b for a, b in zip(b_rows[i], b_rows[i + 1])]
        else:
            row = b_rows[i]
        if any(v not in (-1, 0, 1) for v in row):
            raise AsmError("chain differences leave -1,0,1")
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# characters: states <-> group elements under the character weights


def identity_element(n: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(1, n + 1)), (1,) * n)


def compose(a: SignedPermutation, b: SignedPermutation) -> SignedPermutation:
    """The group law (s1,v1)(s2,v2) = (s2 s1, v1 * v2^s1)."""
    sigma = tuple(b.sigma[a.sigma[j] - 1] for j in range(a.n))
    signs = tuple(a.signs[j] * b.signs[a.sigma[j] - 1] for j in range(a.n))
    return SignedPermutation(sigma, signs)


def alternant_ratio(family: str, n: int, mu) -> Optional[LaurentPoly]:
    """The family's character as alternant(rho + mu) / alternant(rho).

    Both alternants are sums over the whole group; family BC takes both
    at x_n = 1 before dividing.
    """
    group, vec = FAMILY_CHARACTER[family]
    rho = weyl_vector(vec, n)
    num = alternant(group, n, tuple(2 * m + r for m, r in zip(mu, rho)))
    den = alternant(group, n, rho)
    if family == "BC":
        num, den = (p.substitute({Var.x(n): ONE}) for p in (num, den))
    return num.exact_divide(den)


class CharacterBijectionError(ValueError):
    pass


def nonzero_weight_states(family: str, lam) -> list:
    spec = build_model(family, lam)
    scheme = make_character(family, spec.n)
    out = []
    for state in enumerate_states(spec):
        if not state_weight(state, scheme).is_zero():
            out.append(state)
    return out


def state_to_weyl(state: IceState) -> SignedPermutation:
    """The group element encoded by the c2 positions and bend directions."""
    spec = state.spec
    family, lam, n = spec.family, spec.lam, spec.n
    if family == "A":
        raise CharacterBijectionError("type A states do not carry sign data")
    if family == "D" and lam[-1] != 1:
        raise CharacterBijectionError("the D-family bijection needs lambda_n = 1")
    scheme = make_character(family, n)
    if state_weight(state, scheme).is_zero():
        raise CharacterBijectionError("state has weight zero under character weights")
    kinds = state.vertex_kinds()
    part_index = {part: k + 1 for k, part in enumerate(lam)}
    sigma = [0] * n
    signs = [0] * n
    for j, label in enumerate(spec.bend_rows, 1):
        locations = [(r, c) for (r, c), kind in kinds.items()
                     if kind == "c2" and r in (label, label + "b")]
        if len(locations) != 1:
            raise CharacterBijectionError(f"row pair {j} must hold exactly one c2")
        row, col = locations[0]
        if col not in part_index:
            raise CharacterBijectionError(f"c2 in column {col} outside lambda")
        sigma[j - 1] = part_index[col]
        if family == "D" and col == 1:
            signs[j - 1] = 0          # resolved by parity below
        else:
            signs[j - 1] = -1 if row == label else 1
    if family == "BC":
        locations = [(r, c) for (r, c), kind in kinds.items()
                     if kind == "c2" and r == str(n)]
        if len(locations) != 1:
            raise CharacterBijectionError("central row must hold exactly one c2")
        sigma[n - 1] = part_index[locations[0][1]]
        signs[n - 1] = 0
    # parity completion for the even-sign families
    if 0 in signs:
        slot = signs.index(0)
        minus = sum(1 for v in signs if v == -1)
        signs[slot] = -1 if minus % 2 else 1
    if sorted(sigma) != list(range(1, n + 1)):
        raise CharacterBijectionError("c2 columns do not encode a permutation")
    return SignedPermutation(tuple(sigma), tuple(signs))


def weyl_state_weight(w: SignedPermutation, family: str, lam) -> LaurentPoly:
    """Closed form for the weight of the state encoding w."""
    lam = check_strict_partition(lam)
    n = len(lam)
    mu = tuple(lam[j] - (n - j) for j in range(n))
    group, vec = FAMILY_CHARACTER[family]
    rho = weyl_vector(vec, n)
    alpha = tuple(2 * m + r for m, r in zip(mu, rho))
    sign = w.det()
    if group == HYPEROCTAHEDRAL:
        sign *= (-1) ** (n % 2)
    coeff = gpow_i(sum(mu)) * GInt(sign)
    out = LaurentPoly.const(coeff) * _x_monomial(rho) * _x_monomial(w.act(alpha))
    if family == "BC":
        out = out.substitute({Var.x(n): ONE})
    return out


def _row_gap_edge(spec: ModelSpec, row_label: str, above: bool):
    idx = spec.rows.index(row_label)
    return idx if above else idx + 1


def phi_statistic(state: IceState) -> int:
    """The per-row sign exponent of the weight computation (families B, BC)."""
    spec = state.spec
    family, lam, n = spec.family, spec.lam, spec.n
    if family not in ("B", "BC"):
        raise ValueError("phi is defined for the B and BC families")
    w = state_to_weyl(state)
    bends = state.bend_dirs()
    bits = edge_bits(spec.units, spec.boundary, state.tags)
    total = 0
    for j, row in enumerate(spec.bend_rows, 1):
        lam_sig = lam[w.sigma[j - 1] - 1]
        if bends[row] == "U":
            gap = _row_gap_edge(spec, row, above=True)
            s_j = [p for p in lam if bits[("v", p, gap)]]
            ell_plus = sum(1 for p in s_j if p > lam_sig)
            total += ell_plus - n
        else:
            gap = _row_gap_edge(spec, row + "b", above=False)
            s_jb = [p for p in lam if bits[("v", p, gap)]]
            ell_plus = sum(1 for p in s_jb if p > lam_sig)
            total += ell_plus - j + 1
    if family == "BC":
        # central row: the unbarred-row convention counts parts weakly below
        lam_sig = lam[w.sigma[n - 1] - 1]
        gap = _row_gap_edge(spec, str(n), above=True)
        s_n = [p for p in lam if bits[("v", p, gap)]]
        ell_minus = sum(1 for p in s_n if p <= lam_sig)
        total += -ell_minus + 1
    return total
