import itertools
from dataclasses import replace
from functools import partial

import pytest

from bentice import relations, states
from bentice.laurent import DEFORMATION, GENERIC, LaurentPoly, MixedBankError, Var
from bentice.models import BENT_FAMILIES, FAMILIES, build_model, row_layout
from bentice.states import (
    WeightTable, enumerate_states, enumerate_tags, partition_function, state_tikz, state_weight,
)
from bentice.weights import (
    BUILTIN_SCHEMES, ONE, make_deformation, make_generic, make_scheme, unit_weights,
)

from oracles import (
    all_ones_scheme, edge_bits, is_homogeneous, orientation, total_degree, vertex_count,
)


def brute_force_orientations(spec):
    """Oracle: try every assignment of the free edges, filter admissible."""
    units = spec.units
    free = [e for e in spec.edges if e not in spec.boundary]
    found = set()
    for bits in itertools.product([False, True], repeat=len(free)):
        assignment = dict(spec.boundary)
        assignment.update(zip(free, bits))
        if all(tuple(assignment[e] for e, _ in u.edges) in u.configs for u in units):
            found.add(tuple(assignment[e] for e in spec.edges))
    return found


def oriented_set(spec):
    return {orientation(s) for s in enumerate_states(spec)}


class TestEnumerationAgainstBruteForce:
    @pytest.mark.parametrize("family,lam", [
        ("A", [1]), ("A", [2, 1]), ("A", [3, 1]),
        ("B", [1]), ("B", [2]), ("B", [2, 1]),
        ("Bstar", [1]), ("Cstar", [1]), ("D", [1]), ("BC", [1]), ("BC", [2, 1]),
    ])
    def test_complete_and_sound(self, family, lam):
        spec = build_model(family, lam)
        assert oriented_set(spec) == brute_force_orientations(spec)

    def test_c_family_small(self):
        spec = build_model("C", [1])
        assert oriented_set(spec) == brute_force_orientations(spec)


class TestKnownCounts:
    def test_a_single_column(self):
        spec = build_model("A", [1])
        states = enumerate_states(spec)
        assert len(states) == 1
        assert states[0].vertex_kinds() == {("1", 1): "c2"}

    def test_a_two_by_two(self):
        assert len(enumerate_states(build_model("A", [2, 1]))) == 2

    def test_a_rho_is_asm_count(self):
        # 3x3 alternating sign matrices
        assert len(enumerate_states(build_model("A", [3, 2, 1]))) == 7

    def test_b_smallest(self):
        states = enumerate_states(build_model("B", [1]))
        assert len(states) == 2
        assert {s.bend_dirs()["1"] for s in states} == {"U", "D"}

    def test_b_rho_n2_half_turn_count(self):
        # 4x4 half-turn symmetric ASMs
        assert len(enumerate_states(build_model("B", [2, 1]))) == 10

    def test_stability(self):
        spec = build_model("B", [2, 1])
        runs = [tuple(orientation(s) for s in enumerate_states(spec)) for _ in range(2)]
        assert runs[0] == runs[1]


class TestWeights:
    def test_all_ones_counts_states(self):
        spec = build_model("B", [2, 1])
        z = partition_function(spec, all_ones_scheme(spec))
        assert z == LaurentPoly.const(10)

    def test_a1_unique_state_weight_generic(self):
        spec = build_model("A", [1])
        scheme = make_generic("A", 1)
        (state,) = enumerate_states(spec)
        assert state_weight(state, scheme) == LaurentPoly.const(1)  # c2 = 1

    def test_b1_deformation_partition_function(self):
        from bentice.laurent import Var
        # 1 - t_1 x_1
        spec = build_model("B", [1])
        z = partition_function(spec, make_deformation("B", 1))
        expect = LaurentPoly.const(1) - LaurentPoly.term(
            1, [(Var.q(1), 2), (Var.x(1), 2)])
        assert z == expect

    def test_b1_bend_down_state_weight(self):
        from bentice.laurent import Var
        spec = build_model("B", [1])
        scheme = make_deformation("B", 1)
        down = [s for s in enumerate_states(spec) if s.bend_dirs()["1"] == "D"]
        assert len(down) == 1
        w = state_weight(down[0], scheme)
        assert w == -LaurentPoly.term(1, [(Var.q(1), 2), (Var.x(1), 2)])


def weighting_order(spec):
    """(unit, its map from configurations to tags) for every unit: vertices
    by (row, col), which keeps the chained products small, then the bends
    and the corner."""
    vertices = sorted((u for u in spec.units if u.kind == "vertex"), key=lambda u: u.label)
    others = [u for u in spec.units if u.kind != "vertex"]
    return [(u, dict(zip(u.configs, u.tags))) for u in vertices + others]


def chained_state_weight(state, scheme, order):
    """Oracle: the weight as one ``*`` per unit of ``order`` (see
    ``weighting_order``), stopping at a zero product, with each unit's tag
    read back from the state's edge bits."""
    spec = state.spec
    bits = edge_bits(spec.units, spec.boundary, state.tags)
    total = LaurentPoly.const(1)
    for unit, tag_of in order:
        tag = tag_of[tuple(bits[e] for e, _pol in unit.edges)]
        total = total * unit_weights(unit, scheme)[tag]
        if total.is_zero():
            return total
    return total


SCHEME_CASES = [("A", "generic"), ("A", "tokuyama")] + [
    (family, name) for family in FAMILIES if family != "A" for name in BUILTIN_SCHEMES]


@pytest.mark.parametrize("family,name", SCHEME_CASES)
def test_state_weight_is_the_chained_product(family, name):
    # every state with n <= 3 and lambda_1 <= 4
    for n in (1, 2, 3):
        scheme = make_scheme(name, family, n)
        for lam in itertools.combinations(range(4, 0, -1), n):
            spec = build_model(family, list(lam))
            order = weighting_order(spec)
            for state in enumerate_states(spec):
                got, want = state_weight(state, scheme), chained_state_weight(state, scheme, order)
                assert got == want and got.bank == want.bank


def the_other_bank(scheme):
    """A monomial of the bank the scheme does not use."""
    return LaurentPoly.var(Var.x(1) if scheme.name == "generic" else Var.a1(1))


def with_vertices(scheme, change):
    """The scheme with each vertex weight w of kind k in row r made change(k, r, w)."""
    return replace(scheme, vertex={(k, r): change(k, r, w) for (k, r), w in scheme.vertex.items()})


def zero_d_bend(scheme):
    return replace(scheme, bend_down=dict.fromkeys(scheme.bend_down, LaurentPoly({})))


def c1_plus_one(scheme):
    """Off the free-fermion point."""
    return with_vertices(scheme, lambda k, r, w: w + ONE if k == "c1" else w)


def twice_a1(scheme):
    """A single term whose coefficient is not a unit."""
    return with_vertices(scheme, lambda k, r, w: 2 * w if k == "a1" else w)


def three_term_c1(scheme):
    """c1 = a1 a2 + b1 b2 + a1 b1, three terms in generic and deformation rows."""
    def change(k, r, w):
        if k != "c1":
            return w
        a1, a2, b1, b2 = (scheme.vertex[kind, r] for kind in ("a1", "a2", "b1", "b2"))
        return a1 * a2 + b1 * b2 + a1 * b1
    return with_vertices(scheme, change)


def mixed_banks(scheme):
    """Every D bend, or in family A row 1's c2, weighs a monomial of the other bank."""
    other = the_other_bank(scheme)
    if scheme.bend_down:
        return replace(scheme, bend_down=dict.fromkeys(scheme.bend_down, other))
    return with_vertices(scheme, lambda k, r, w: other if (k, r) == ("c2", "1") else w)


PERTURBATIONS = {"zero D bend": zero_d_bend, "c1 + 1": c1_plus_one, "2 a1": twice_a1,
                 "three-term c1": three_term_c1, "mixed banks": mixed_banks}


def same(got, want):
    """Equal terms and bank, or both a MixedBankError."""
    if isinstance(want, MixedBankError):
        return isinstance(got, MixedBankError)
    return not isinstance(got, MixedBankError) and got == want and got.bank == want.bank


def old_local_z(units, fixed, scheme):
    """Oracle: the sum over the diagram's states of LaurentPoly.prod over the unit weights."""
    return LaurentPoly.sum(LaurentPoly.prod(unit_weights(u, scheme)[tag] for u, tag in zip(units, tags))
                           for tags in enumerate_tags(units, fixed))


def spans_both_banks(units, scheme):
    """Oracle: whether the units' weights under scheme, or forming them,
    mix the banks, so that their WeightTable refuses them."""
    try:
        banks = {p.bank for u in units for p in unit_weights(u, scheme).values()}
    except MixedBankError:
        return True
    return {GENERIC, DEFORMATION} <= banks


def weighed(weigh, *args):
    """weigh(*args), or the MixedBankError it raises."""
    try:
        return weigh(*args)
    except MixedBankError as e:
        return e


@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("regime", ["generic", "deformation"])
def test_perturbed_state_weights_are_the_chained_product(regime, family, perturbation):
    # every model with n <= 2 and lambda_1 <= 4, and rho(3); a model whose
    # unit weights span both banks is refused at every state, and
    # otherwise each state weighs its chained product, terms and bank
    raised = []
    for lam in [lam for n in (1, 2) for lam in itertools.combinations(range(4, 0, -1), n)] \
            + [(3, 2, 1)]:
        scheme = PERTURBATIONS[perturbation](make_scheme(regime, family, len(lam)))
        spec = build_model(family, list(lam))
        refused = spans_both_banks(spec.units, scheme)
        order = weighting_order(spec)
        wants = []
        for state in enumerate_states(spec):
            want = MixedBankError() if refused else chained_state_weight(state, scheme, order)
            assert same(weighed(state_weight, state, scheme), want)
            wants.append(want)
        raised += [refused] * len(wants)
        if refused:
            with pytest.raises(MixedBankError):
                partition_function(spec, scheme)
        else:
            z, total = partition_function(spec, scheme), LaurentPoly.sum(wants)
            assert z == total and z.bank == total.bank
    # mixed banks raise everywhere; nothing else raises
    mixed = perturbation == "mixed banks"
    assert (any(raised), all(raised)) == (mixed, mixed)


def local_diagrams(scheme):
    """The fish's, and with a central row the jellyfish's, two sides, each
    as (units, the fixings of their boundary)."""
    diagrams = []
    sides = [relations._fish_sides]
    if row_layout(scheme.family, scheme.n)[1] is not None:
        sides.append(relations._jellyfish_sides)
    for make in sides:
        lhs, rhs, names, lhs_fixed, rhs_fixed = make(scheme, 1)
        for units, fixed in ((lhs, lhs_fixed), (rhs, rhs_fixed)):
            diagrams.append((units, [{**f, **fixed} for f in relations._assignments(names)]))
    return diagrams


@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
@pytest.mark.parametrize("family", BENT_FAMILIES)
@pytest.mark.parametrize("regime", ["generic", "deformation"])
def test_perturbed_local_z_is_the_chained_product(regime, family, perturbation):
    scheme = PERTURBATIONS[perturbation](make_scheme(regime, family, 2))
    raised = []
    for units, fixings in local_diagrams(scheme):
        refused = spans_both_banks(units, scheme)
        table = weighed(WeightTable, units, scheme)
        assert isinstance(table, MixedBankError) == refused
        for fixed in fixings:
            if not refused:
                assert same(relations.local_z(table, fixed), old_local_z(units, fixed, scheme))
            raised.append(refused)
    # mixed banks raise everywhere the weights span both banks (the fish's
    # right side is a lone bend, of one bank, and weighs as prod does);
    # nothing else raises
    assert any(raised) == (perturbation == "mixed banks")


def test_a_table_with_both_banks_is_refused_before_any_state_is_listed(monkeypatch):
    refusals = []
    for regime in ("generic", "deformation"):
        for family in FAMILIES:
            scheme = mixed_banks(make_scheme(regime, family, 2))
            spec = build_model(family, [2, 1])
            state = enumerate_states(spec)[0]
            refusals += [partial(partition_function, spec, scheme),
                         partial(state_weight, state, scheme)]
            if family in BENT_FAMILIES:
                refusals.append(partial(WeightTable, local_diagrams(scheme)[0][0], scheme))

    def unlisted(units, fixed):
        raise AssertionError("a state was listed")

    monkeypatch.setattr(states, "enumerate_tags", unlisted)
    for refuse in refusals:
        with pytest.raises(MixedBankError) as refused:
            refuse()
        assert "generic" in str(refused.value) and "deformation" in str(refused.value)


class TestRowPairBalance:
    @pytest.mark.parametrize("family,lam", [
        ("B", [2, 1]), ("B", [3, 1]), ("Bstar", [2, 1]), ("C", [2, 1]),
        ("Cstar", [3, 2]), ("D", [2, 1]), ("D", [3, 2]), ("BC", [3, 1]),
    ])
    def test_one_more_c2_than_c1_per_pair(self, family, lam):
        spec = build_model(family, lam)
        for state in enumerate_states(spec):
            kinds = state.vertex_kinds()
            for j in spec.bend_rows:
                pair = [k for (r, _), k in kinds.items() if r in (j, j + "b")]
                assert pair.count("c2") - pair.count("c1") == 1


class TestDegreeLaw:
    @pytest.mark.parametrize("lam", [[2, 1], [3, 1], [3, 2]])
    def test_b_generic_degree(self, lam):
        spec = build_model("B", lam)
        scheme = make_generic("B", spec.n)
        want = vertex_count(spec) - spec.n
        for state in enumerate_states(spec):
            w = state_weight(state, scheme)
            assert is_homogeneous(w)
            assert total_degree(w) == want

    def test_b_rho_degree_value(self):
        # 2n^2 - n at lambda = rho
        spec = build_model("B", [2, 1])
        assert vertex_count(spec) - spec.n == 6


def test_tikz_emitter_smoke():
    spec = build_model("B", [2, 1])
    out = state_tikz(enumerate_states(spec)[0])
    assert out.startswith("\\begin{tikzpicture}")
    assert "arc" in out
