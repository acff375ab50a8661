import itertools

import pytest

from bentice.laurent import LaurentPoly
from bentice.models import FAMILIES, build_model
from bentice.states import enumerate_states, partition_function, state_tikz, state_weight
from bentice.weights import (
    BUILTIN_SCHEMES, make_deformation, make_generic, make_scheme, unit_weight,
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
        total = total * unit_weight(unit, tag, scheme)
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
                assert state_weight(state, scheme) == chained_state_weight(state, scheme, order)


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
