"""Local relation checks: exhaustive verification over boundary fillings.

Each check builds the two sides of a local identity as tiny unit graphs
(crossings, six-vertex cells, bends, corners), enumerates every interior
filling for every assignment of the free boundary arrows with the same
engine that drives full models, weighs each unit by the tag that engine
records for it with ``weights.unit_weight`` (crossings carry
``weights.cross_weights``, which satisfy the star-triangle identity
exactly when both rows are free-fermionic), and compares exact
polynomials.  Verdicts are exact
polynomial statements; a failing assignment is reported as a witness.

The fish and jellyfish differ between families only by the boundary at
the bend, read from ``models.SHAPES``: the fish passes through the half
column, if any, its top arrow fixed as at rho; the jellyfish's central
row turns down at a corner, or has both ends fixed to its east arrow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .laurent import GI, LaurentPoly
from .models import (
    SHAPES, bend_unit, corner_unit, cross_unit, rho, row_layout, vertex_unit,
)
from .states import enumerate_tags
from .weights import WeightScheme, crossing, unit_weight

I = LaurentPoly.const(GI)


def local_z(units, fixed: dict, scheme: WeightScheme) -> LaurentPoly:
    """Partition function of a local diagram with the given fixed arrows."""
    return LaurentPoly.sum(
        LaurentPoly.prod(unit_weight(u, tag, scheme) for u, tag in zip(units, tags))
        for tags in enumerate_tags(units, fixed))


@dataclass
class Verdict:
    ok: bool
    checked: int = 0
    witness: Optional[dict] = None
    ratio: Optional[LaurentPoly] = None
    closed_form_ok: Optional[bool] = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "witness": self.witness,
            "ratio": self.ratio.to_latex() if self.ratio is not None else None,
            "closed_form_ok": self.closed_form_ok,
        }


def _assignments(names):
    for bits in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, bits))


# ---------------------------------------------------------------------------
# star-triangle identity


def ybe_check(wj: dict, wk: dict) -> Verdict:
    """Compare both sides of the crossing identity on all 64 boundaries."""
    vertex = {(kind, row): w for row, ws in (("j", wj), ("k", wk)) for kind, w in ws.items()}
    scheme = WeightScheme(name="rows", family="A", n=2, vertex=vertex)
    lhs_units = [
        cross_unit("j", "k", nw="al", ne="top", sw="be", se="bot"),
        vertex_unit("k", 0, n_edge="phi", e_edge="eps", s_edge="mid", w_edge="top"),
        vertex_unit("j", 0, n_edge="mid", e_edge="del", s_edge="gam", w_edge="bot"),
    ]
    rhs_units = [
        vertex_unit("j", 0, n_edge="phi", e_edge="t2", s_edge="mid", w_edge="al"),
        vertex_unit("k", 0, n_edge="mid", e_edge="b2", s_edge="gam", w_edge="be"),
        cross_unit("j", "k", nw="t2", ne="eps", sw="b2", se="del"),
    ]
    return _sides_agree(scheme, lhs_units, rhs_units, ("al", "be", "gam", "del", "eps", "phi"))


# ---------------------------------------------------------------------------
# the identity along the bend


def bend_ybe_check(scheme: WeightScheme, j: int, k: int) -> Verdict:
    _require_bends(scheme, j)
    _require_bends(scheme, k)
    jl, kl = str(j), str(k)
    jb, kb = jl + "b", kl + "b"
    lhs_units = [
        cross_unit(jl, kl, nw="A", ne="E1", sw="B", se="E2"),
        bend_unit(kl, top_edge="E1", bottom_edge="D"),
        bend_unit(jl, top_edge="E2", bottom_edge="C"),
    ]
    rhs_units = [
        cross_unit(jb, kb, nw="C", ne="F1", sw="D", se="F2"),
        bend_unit(jl, top_edge="A", bottom_edge="F2"),
        bend_unit(kl, top_edge="B", bottom_edge="F1"),
    ]
    return _sides_agree(scheme, lhs_units, rhs_units, ("A", "B", "C", "D"))


# ---------------------------------------------------------------------------
# fish relations: one twist absorbed into a bend


def _fish_sides(scheme: WeightScheme, j: int):
    jl, jb = str(j), str(j) + "b"
    top = _half_column_top(scheme)
    lhs_units = [cross_unit(jb, jl, nw="A", ne="E1", sw="B", se="E2")]
    if top is None:                             # the bare bend twist
        lhs_units.append(bend_unit(jl, top_edge="E1", bottom_edge="E2"))
        return lhs_units, [bend_unit(jb, top_edge="A", bottom_edge="B")], ("A", "B"), {}, {}
    lhs_units += [
        vertex_unit(jb, 0, n_edge="HN", e_edge="E3", s_edge="G", w_edge="E2"),
        bend_unit(jl, top_edge="E1", bottom_edge="E3"),
    ]
    rhs_units = [
        vertex_unit(jl, 0, n_edge="HN", e_edge="E4", s_edge="G", w_edge="B"),
        bend_unit(jb, top_edge="A", bottom_edge="E4"),
    ]
    return lhs_units, rhs_units, ("A", "B", "G"), {"HN": top}, {"HN": top}


def fish_closed_form(scheme: WeightScheme, j: int) -> LaurentPoly:
    return _bend_factor(scheme, j, _half_column_top(scheme))


def fish_check(scheme: WeightScheme, j: int) -> Verdict:
    """Ratio of twisted diagram to bare bend: constant, with a closed form."""
    _require_bends(scheme, j)
    return _ratio_verdict(scheme, *_fish_sides(scheme, j), fish_closed_form(scheme, j))


# ---------------------------------------------------------------------------
# jellyfish relations: a twist through the central row and the bend


def _jellyfish_sides(scheme: WeightScheme, j: int):
    jl, jb = str(j), str(j) + "b"
    star = _central_row(scheme, "jellyfish")
    east = SHAPES[scheme.family][2]
    lhs_units = [
        cross_unit(jb, star, nw="A", ne="M1", sw="B", se="M2"),
        cross_unit(jb, jl, nw="M2", ne="M3", sw="G", se="M4"),
        cross_unit(star, jl, nw="M1", ne="M5", sw="M3", se="M6"),
    ]
    if east is None:                        # the central row turns down at a corner
        lhs_units += [
            corner_unit(h_edge="M6", v_edge="V1"),
            vertex_unit(jb, 0, n_edge="V1", e_edge="M7", s_edge="D", w_edge="M4"),
            bend_unit(jl, top_edge="M5", bottom_edge="M7"),
        ]
        rhs_units = [
            corner_unit(h_edge="B", v_edge="V2"),
            vertex_unit(jl, 0, n_edge="V2", e_edge="E8", s_edge="D", w_edge="G"),
            bend_unit(jb, top_edge="A", bottom_edge="E8"),
        ]
        return lhs_units, rhs_units, ("A", "B", "G", "D"), {}, {}
    lhs_units.append(bend_unit(jl, top_edge="M5", bottom_edge="M4"))
    rhs_units = [bend_unit(jb, top_edge="A", bottom_edge="G")]
    # both ends of the central row carry its fixed east arrow
    return lhs_units, rhs_units, ("A", "G"), {"B": east, "M6": east}, {}


def jellyfish_closed_form(scheme: WeightScheme, j: int) -> LaurentPoly:
    star = _central_row(scheme, "jellyfish")
    pair = crossing(scheme, str(j), star) * crossing(scheme, str(j) + "b", star)
    return pair * _bend_factor(scheme, j, SHAPES[scheme.family][2])


def jellyfish_check(scheme: WeightScheme, j: int) -> Verdict:
    _require_bends(scheme, j)
    return _ratio_verdict(scheme, *_jellyfish_sides(scheme, j),
                          jellyfish_closed_form(scheme, j))


# ---------------------------------------------------------------------------
# caduceus


def caduceus_check(scheme: WeightScheme, j: int) -> Verdict:
    """Three-strand braid identity over all 256 boundary assignments."""
    jl, jb = str(j), str(j) + "b"
    star = _central_row(scheme, "caduceus")
    lhs_units = [
        cross_unit(jb, star, nw="A", ne="M1", sw="B", se="M2"),
        cross_unit(jb, jl, nw="M2", ne="M3", sw="G", se="M4"),
        cross_unit(star, jl, nw="M1", ne="M5", sw="M3", se="M6"),
        vertex_unit(jl, 0, n_edge="L", e_edge="K", s_edge="C1", w_edge="M5"),
        vertex_unit(star, 0, n_edge="C1", e_edge="F", s_edge="C2", w_edge="M6"),
        vertex_unit(jb, 0, n_edge="C2", e_edge="E", s_edge="D", w_edge="M4"),
    ]
    rhs_units = [
        vertex_unit(jb, 0, n_edge="L", e_edge="P1", s_edge="C1", w_edge="A"),
        vertex_unit(star, 0, n_edge="C1", e_edge="P2", s_edge="C2", w_edge="B"),
        vertex_unit(jl, 0, n_edge="C2", e_edge="P3", s_edge="D", w_edge="G"),
        cross_unit(jb, star, nw="P1", ne="P4", sw="P2", se="P5"),
        cross_unit(jb, jl, nw="P5", ne="P6", sw="P3", se="E"),
        cross_unit(star, jl, nw="P4", ne="K", sw="P6", se="F"),
    ]
    return _sides_agree(scheme, lhs_units, rhs_units, ("A", "B", "G", "D", "E", "F", "K", "L"))


# ---------------------------------------------------------------------------
# shared helpers


def _half_column_top(scheme: WeightScheme) -> Optional[bool]:
    """The half column's top arrow as build_model fixes it at rho, out iff
    its label is a part (D: out, Cstar: in); None without a half column."""
    half_col = SHAPES[scheme.family][1]
    return None if half_col is None else half_col in rho(scheme.n)


def _bend_factor(scheme: WeightScheme, j: int, arrow: Optional[bool]) -> LaurentPoly:
    """What the bend of row j absorbs: with no fixed arrow there, the pair
    (a1 - i b2)(a2 + i b1); else the crossing of the row and its bar,
    (jb, j) if the arrow points out and (j, jb) if it points in."""
    jl, jb = str(j), str(j) + "b"
    if arrow is None:
        r = scheme.row_weights(jl)
        return (r["a1"] - I * r["b2"]) * (r["a2"] + I * r["b1"])
    return crossing(scheme, jb, jl) if arrow else crossing(scheme, jl, jb)


def _central_row(scheme: WeightScheme, relation: str):
    """The central row that the relation's third strand runs along."""
    star = row_layout(scheme.family, scheme.n)[1]
    if star is None:
        raise ValueError(f"family {scheme.family} has no central row for a {relation}")
    return star


def _require_bends(scheme: WeightScheme, j: int):
    for r in (str(j), str(j) + "b"):
        for name, bends in (("U", scheme.bend_up), ("D", scheme.bend_down)):
            if r not in bends:
                raise ValueError(
                    f"{scheme.name} weights of family {scheme.family} have no bend row {r}")
            if bends[r].is_zero():
                raise ValueError(f"{name}^({r}) must be nonzero")


def _sides_agree(scheme: WeightScheme, lhs_units, rhs_units, names) -> Verdict:
    """Both sides agree on every boundary assignment; the first miss is the witness."""
    verdict = Verdict(ok=True)
    for fixed in _assignments(names):
        verdict.checked += 1
        equal = local_z(lhs_units, fixed, scheme) == local_z(rhs_units, fixed, scheme)
        if not equal and verdict.ok:
            verdict.ok, verdict.witness = False, fixed
    return verdict


def _ratio_verdict(scheme: WeightScheme, lhs_units, rhs_units, names, lhs_fixed, rhs_fixed,
                   closed_form: LaurentPoly) -> Verdict:
    """Constancy via cross-multiplication, then closed-form comparison."""
    verdict = Verdict(ok=True)
    sides = []
    for fixed in _assignments(names):
        zl = local_z(lhs_units, {**fixed, **lhs_fixed}, scheme)
        zr = local_z(rhs_units, {**fixed, **rhs_fixed}, scheme)
        if zl.is_zero() and zr.is_zero():
            continue
        sides.append((dict(fixed), zl, zr))
    verdict.checked = len(sides)
    if not sides:
        return verdict
    # no side is zero at both ends, so if every side is proportional to
    # the first, every two sides are proportional
    f1, l1, r1 = sides[0]
    for f2, l2, r2 in sides[1:]:
        if l1 * r2 != l2 * r1:
            verdict.ok = False
            verdict.witness = {"first": f1, "second": f2}
            return verdict
    verdict.ratio = l1.exact_divide(r1) if not r1.is_zero() else None
    verdict.closed_form_ok = all(l == closed_form * r for _, l, r in sides)
    return verdict
