"""The Boltzmann weight regimes and the one weight lookup.

Every scheme, Tokuyama's included, shares one shape, built by
``_free_fermion``: an entry table (kind, row) -> value, u-turn weights per
bend row, and corner weights for the C family.  Each regular row j gets its
own a1, a2, b1, b2 and unit monomial c2, with c1 = (a1*a2 + b1*b2) / c2 so
the free-fermion condition holds identically; barred rows (none in family
A) follow by the first symmetry assumption, and the central row is
degenerate, (a0, a0, b0, b0).  The four built-in schemes take c2 = 1:

* generic: free symbols a1,a2,b1,b2 per unbarred row (a0, b0 centrally).
* deformation: a1=a2=1, b1 = i*t_j*x_j, b2 = i*t_j/x_j, so c1 = 1 - t_j^2,
  with t_j carried as q_j^2.
* okada: the deformation weights with one shared t, where four families
  take t_j = i*sqrt(t); sqrt(t) is the shared q variable.
* character: the deformation weights at t_j = 1, killing c1 everywhere
  (and the corner L weight in family C).

Tokuyama's type-A rows take a1 = 1, a2 = b2 = c2 = x_j, b1 = t, so c1 =
1 + t.  Bend weights follow the summary table: U = 1, R = 1 everywhere,
D = i in families B and C and 1 elsewhere, L = a0 - i*b0 in family C.  To
probe the necessity direction of each local relation, tests perturb a
built scheme with ``dataclasses.replace``.

``unit_weights`` is the one weight lookup: the weights of any unit (vertex,
bend, corner, or the crossing of two rows, whose weights ``cross_weights``
gives) in each of its local configurations, by tag, as
``states.WeightTable`` packs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .laurent import GI, LaurentPoly, Var
from .models import FAMILIES, KINDS, has_bars, row_layout

ONE = LaurentPoly.const(1)
I = LaurentPoly.const(GI)


TABLE_BEND_DOWN = {"B": I, "Bstar": ONE, "C": I, "Cstar": ONE, "D": ONE, "BC": ONE}


@dataclass(frozen=True)
class WeightScheme:
    name: str
    family: str
    n: int
    vertex: Mapping               # (kind, row label) -> LaurentPoly
    bend_up: Mapping = field(default_factory=dict)      # row label -> weight
    bend_down: Mapping = field(default_factory=dict)
    corner_r: Optional[LaurentPoly] = None
    corner_l: Optional[LaurentPoly] = None

    def row_weights(self, row: str) -> dict:
        return {k: self.vertex[(k, row)] for k in KINDS if (k, row) in self.vertex}


def cross_weights(wj: dict, wk: dict) -> dict:
    """Weights of the crossing of strands j (in at NW, out at SE) and k (SW to NE).

    Keyed by the set of ports whose arrows point in:

        in at NW,SW:  a1(k) a2(j) + b1(j) b2(k)
        in at NE,SE:  a1(j) a2(k) + b1(k) b2(j)
        in at SW,NE:  c1(j) c2(k)
        in at NW,SE:  c1(k) c2(j)
        in at NW,NE:  a1(j) b2(k) - a1(k) b2(j)
        in at SW,SE:  a2(j) b1(k) - a2(k) b1(j)
    """
    return {
        frozenset({"NW", "SW"}): wk["a1"] * wj["a2"] + wj["b1"] * wk["b2"],
        frozenset({"NE", "SE"}): wj["a1"] * wk["a2"] + wk["b1"] * wj["b2"],
        frozenset({"SW", "NE"}): wj["c1"] * wk["c2"],
        frozenset({"NW", "SE"}): wk["c1"] * wj["c2"],
        frozenset({"NW", "NE"}): wj["a1"] * wk["b2"] - wk["a1"] * wj["b2"],
        frozenset({"SW", "SE"}): wj["a2"] * wk["b1"] - wk["a2"] * wj["b1"],
    }


def crossing(scheme: WeightScheme, j: str, k: str) -> LaurentPoly:
    """Crossing weight of rows j and k with both arrows in at NW and SW."""
    return cross_weights(scheme.row_weights(j), scheme.row_weights(k))[frozenset({"NW", "SW"})]


def unit_weights(unit, scheme: WeightScheme) -> dict:
    """Map each tag of a unit (see models.Unit) to the unit's weight in the
    local configuration the tag names; a crossing's six weights come from
    one cross_weights."""
    if unit.kind == "cross":
        j, k = unit.label
        return cross_weights(scheme.row_weights(j), scheme.row_weights(k))
    if unit.kind == "vertex":
        return {tag: scheme.vertex[(tag, unit.label[0])] for tag in unit.tags}
    if unit.kind == "bend":
        return {tag: (scheme.bend_down if tag == "D" else scheme.bend_up)[unit.label[0]]
                for tag in unit.tags}
    return {tag: scheme.corner_r if tag == "R" else scheme.corner_l for tag in unit.tags}


_CENTRAL_X = {"Bstar": ONE, "C": -ONE, "BC": ONE}   # central x, okada and character weights


def _free_fermion(name: str, family: str, n: int, row_weights, central_ab=None) -> WeightScheme:
    """The one shape of every scheme, from each row's a, b and c2 weights.

    Regular row j takes (a1, a2, b1, b2, c2) = row_weights(j), c2 a unit
    monomial, and c1 = (a1 a2 + b1 b2) c2**-1, the free-fermion condition;
    its bar, if the family has bars (see models.has_bars), swaps 1 and 2
    (the first symmetry assumption).  The central row c ("0", or row n in
    family BC; see models.row_layout) takes (a0, a0, b0, b0) and c2 = 1 from
    (a0, b0) = central_ab(int(c)).  Bends and the C corner follow the table.
    """
    _check(family, n)
    regular, c = row_layout(family, n)
    bars = has_bars(family)
    rows = {}
    for j in regular:
        a1, a2, b1, b2, c2 = rows[j] = row_weights(int(j))
        if bars:
            rows[j + "b"] = (a2, a1, b2, b1, c2)
    bend_rows = list(rows) if bars else []
    if c is not None:
        a0, b0 = central_ab(int(c))
        rows[c] = (a0, a0, b0, b0, ONE)
    vertex = {}
    for r, (a1, a2, b1, b2, c2) in rows.items():
        for k, w in zip(KINDS, (a1, a2, b1, b2, (a1 * a2 + b1 * b2) * c2 ** -1, c2)):
            vertex[(k, r)] = w
    corner_r = corner_l = None
    if family == "C":
        corner_r, corner_l = ONE, a0 - I * b0
    return WeightScheme(name=name, family=family, n=n, vertex=vertex,
                        bend_up=dict.fromkeys(bend_rows, ONE),
                        bend_down=dict.fromkeys(bend_rows, TABLE_BEND_DOWN.get(family, ONE)),
                        corner_r=corner_r, corner_l=corner_l)


def _t_x_row(t: LaurentPoly, x: LaurentPoly) -> tuple:
    """a1 = a2 = c2 = 1, b1 = i t x, b2 = i t / x."""
    return ONE, ONE, I * t * x, I * t * x ** -1, ONE


def _t(j: int) -> LaurentPoly:
    return LaurentPoly.term(1, [(Var.q(j), 2)])


def _x(j: int) -> LaurentPoly:
    return LaurentPoly.term(1, [(Var.x(j), 2)])


def make_generic(family: str, n: int) -> WeightScheme:
    """Free-fermion weights with independent symbols per unbarred row."""
    return _free_fermion(
        "generic", family, n,
        lambda j: tuple(LaurentPoly.var(v(j)) for v in (Var.a1, Var.a2, Var.b1, Var.b2)) + (ONE,),
        lambda idx: (LaurentPoly.var(Var.a0(idx)), LaurentPoly.var(Var.b0(idx))))


def make_deformation(family: str, n: int) -> WeightScheme:
    """Row parameters t_j (as q_j^2) and x_j; the workhorse regime."""
    return _free_fermion("deformation", family, n, lambda j: _t_x_row(_t(j), _x(j)),
                         lambda idx: (ONE, I * _t(idx) * _x(idx)))


def _shared_t(name: str, family: str, n: int, t: LaurentPoly) -> WeightScheme:
    """The deformation weights with one t for every row, the central one included."""
    return _free_fermion(name, family, n, lambda j: _t_x_row(t, _x(j)),
                         lambda idx: (ONE, I * t * _CENTRAL_X[family]))


def make_okada(family: str, n: int) -> WeightScheme:
    """One shared t; families Bstar, Cstar, D, BC take t_j = i*sqrt(t).

    sqrt(t) is the shared q variable, so per-state weights stay in the
    ring; partition functions come out in even powers of q, i.e. in t.
    """
    if family == "A":
        raise ValueError("family A has no okada weights")
    q = LaurentPoly.var(Var.qshared())
    return _shared_t("okada", family, n, q * q if family in ("B", "C") else I * q)


def make_character(family: str, n: int) -> WeightScheme:
    """Deformation weights at every t_j = 1; c1 vanishes identically."""
    return _shared_t("character", family, n, ONE)


def make_tokuyama(n: int) -> WeightScheme:
    """Type-A weights whose partition function deforms the Weyl formula.

    Row j is (a1, a2, b1, b2, c2) = (1, x_j, t, x_j, x_j) with the shared
    t = q^2, so the free-fermion condition gives c1 = 1 + t.
    """
    t = LaurentPoly.term(1, [(Var.qshared(), 2)])
    return _free_fermion("tokuyama", "A", n, lambda j: (ONE, _x(j), t, _x(j), _x(j)))


BUILTIN_SCHEMES = {
    "generic": make_generic,
    "deformation": make_deformation,
    "okada": make_okada,
    "character": make_character,
}


def make_scheme(name: str, family: str, n: int) -> WeightScheme:
    """The named scheme; in family A, "deformation" means Tokuyama's weights.

    BUILTIN_SCHEMES["deformation"]("A", n) is instead the per-row t_j/x_j scheme.
    """
    if family == "A":
        if name in ("tokuyama", "deformation"):
            return make_tokuyama(n)
        if name == "generic":
            return make_generic("A", n)
        raise ValueError(f"family A supports tokuyama/generic weights, not {name!r}")
    try:
        return BUILTIN_SCHEMES[name](family, n)
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}") from None


def _check(family: str, n: int):
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
