"""The move-table DFS against the dictionary DFS it replaced.

`states.enumerate_tags` backtracks over a flat bit list, reading each
unit's admissible moves from `states.move_tables`, and lists each
orientation as the tag each unit took.  The oracle below is the earlier
enumerator, which kept the assignment in a dict and checked every edge of
every configuration against it.  Both try each unit's configurations in
order, so they must list the same orientations in the same order: state
lists, reports and digests depend on that order.  Each orientation's tags
are decoded into edge bits (`oracles.edge_bits`) and the bits re-encoded
into tags, which must give the tags back.
"""

import itertools

import pytest

from bentice.models import FAMILIES, build_model
from bentice.relations import _assignments, _fish_sides, _jellyfish_sides
from bentice.states import enumerate_states, enumerate_tags
from bentice.weights import make_generic

from oracles import edge_bits


def dict_orientations(units, fixed: dict):
    """Yield every total orientation consistent with all units, depth first."""
    n_units = len(units)
    assignment = dict(fixed)

    def dfs(i: int):
        if i == n_units:
            yield dict(assignment)
            return
        unit = units[i]
        for bits in unit.configs:
            touched = []
            ok = True
            for (edge, _pol), bit in zip(unit.edges, bits):
                cur = assignment.get(edge)
                if cur is None:
                    assignment[edge] = bit
                    touched.append(edge)
                elif cur != bit:
                    ok = False
                    break
            if ok:
                yield from dfs(i + 1)
            for edge in touched:
                del assignment[edge]

    yield from dfs(0)


def oracle_states(spec):
    """The oracle's orientations as bit tuples aligned with spec.edges."""
    return [tuple(o.get(e, False) for e in spec.edges)
            for o in dict_orientations(spec.units, spec.boundary)]


def decoded(units, fixed: dict, found, edges) -> list:
    """Each orientation of found (tags aligned with units) as its bits at
    edges, an edge that no unit touches and fixed omits reading False.  The
    bits re-encoded through each unit's configurations must give back its
    tags."""
    tag_of = [dict(zip(u.configs, u.tags)) for u in units]
    out = []
    for tags in found:
        bits = edge_bits(units, fixed, tags)
        assert tuple(t[tuple(bits[e] for e, _pol in u.edges)]
                     for t, u in zip(tag_of, units)) == tags
        out.append(tuple(bits.get(e, False) for e in edges))
    return out


# every family at every strict lambda with n <= 3 and lambda_1 <= 4 (C[4,3,1]
# among them), and the largest dictionary instance, B[4,3,2,1]
CASES = [(family, list(lam)) for family in FAMILIES for n in range(1, 4)
         for lam in itertools.combinations(range(4, 0, -1), n)]
CASES.append(("B", [4, 3, 2, 1]))


@pytest.mark.parametrize("family, lam", CASES,
                         ids=[f"{family}[{','.join(map(str, lam))}]" for family, lam in CASES])
def test_states_in_the_order_of_the_dict_dfs(family, lam):
    spec = build_model(family, lam)
    found = [s.tags for s in enumerate_states(spec)]
    assert decoded(spec.units, spec.boundary, found, spec.edges) == oracle_states(spec)


def local_sides():
    """(name, units, boundary names, fixed edges) for both sides of every
    fish and jellyfish diagram."""
    sides = []
    for family in ("B", "Cstar", "D"):
        lhs, rhs, names, lhs_fixed, rhs_fixed = _fish_sides(make_generic(family, 1), 1)
        sides += [(f"fish {family} lhs", lhs, names, lhs_fixed),
                  (f"fish {family} rhs", rhs, names, rhs_fixed)]
    for family, n in (("C", 1), ("Bstar", 1), ("BC", 2)):
        lhs, rhs, names, lhs_fixed, rhs_fixed = _jellyfish_sides(make_generic(family, n), 1)
        sides += [(f"jellyfish {family} lhs", lhs, names, lhs_fixed),
                  (f"jellyfish {family} rhs", rhs, names, rhs_fixed)]
    return sides


@pytest.mark.parametrize("name, units, names, side_fixed", local_sides(),
                         ids=[side[0] for side in local_sides()])
def test_local_diagrams_in_the_order_of_the_dict_dfs(name, units, names, side_fixed):
    edges = sorted({*names, *side_fixed, *(e for u in units for e, _pol in u.edges)})
    for fixed in _assignments(names):
        fixed = {**fixed, **side_fixed}
        want = [tuple(o.get(e, False) for e in edges) for o in dict_orientations(units, fixed)]
        assert decoded(units, fixed, enumerate_tags(units, fixed), edges) == want, fixed


def test_a_clash_with_the_fixed_edges_leaves_no_orientation():
    spec = build_model("B", [2, 1])
    edge = ("v", 2, 0)
    fixed = {**spec.boundary, edge: not spec.boundary[edge]}
    assert enumerate_tags(spec.units, fixed) == []
    assert list(dict_orientations(spec.units, fixed)) == []
