"""Golden states transcribed from printed figures, duality counts, and
pinned digests of every built-in weight scheme and every small model."""

import hashlib
import itertools
import json

import pytest

from bentice import identities
from bentice.asm import state_to_matrix
from bentice.models import FAMILIES, build_model
from bentice.states import enumerate_states
from bentice.weights import BUILTIN_SCHEMES, make_tokuyama

from oracles import orientation, scheme_to_json

# The printed admissible state of the 3x5 rectangular model with partition
# [5,4,2]: horizontal bits are east=True west to east per row, vertical bits
# are up=True top to bottom per column.
A_542_H = {
    "1": (True, True, False, True, False, False),
    "2": (True, True, True, False, False, False),
    "3": (True, False, False, False, False, False),
}
A_542_V = {
    5: (True, True, True, False),
    4: (True, False, False, False),
    3: (False, True, False, False),
    2: (True, False, False, False),
    1: (False, False, False, False),
}


def test_printed_a_542_state_is_admissible():
    spec = build_model("A", [5, 4, 2])
    printed = {}
    for row, bits in A_542_H.items():
        for i, b in enumerate(bits):
            printed[("h", row, i)] = b
    for col, bits in A_542_V.items():
        for k, b in enumerate(bits):
            printed[("v", col, k)] = b
    target = tuple(printed[e] for e in spec.edges)
    states = enumerate_states(spec)
    matches = [s for s in states if orientation(s) == target]
    assert len(matches) == 1
    matrix = state_to_matrix(matches[0])
    assert matrix == (
        (0, 1, -1, 1, 0),
        (0, 0, 1, 0, 0),
        (1, 0, 0, 0, 0),
    )


def test_printed_a_542_kinds():
    spec = build_model("A", [5, 4, 2])
    printed = {}
    for row, bits in A_542_H.items():
        for i, b in enumerate(bits):
            printed[("h", row, i)] = b
    for col, bits in A_542_V.items():
        for k, b in enumerate(bits):
            printed[("v", col, k)] = b
    target = tuple(printed[e] for e in spec.edges)
    state = next(s for s in enumerate_states(spec)
                 if orientation(s) == target)
    kinds = state.vertex_kinds()
    assert kinds[("1", 5)] == "b1"
    assert kinds[("1", 4)] == "c2"
    assert kinds[("1", 3)] == "c1"
    assert kinds[("2", 3)] == "c2"
    assert kinds[("3", 5)] == "c2"


# The printed D^[5,1] state: 1 is a part, so the half-column top arrow
# points outward; both bends point down.
D_51_H = {
    "1": (True, True, True, True, True),
    "2": (True, True, True, True, True),
    "2b": (True, False, True, True, True, False),
    "1b": (True, True, False, False, False, False),
}
D_51_V = {
    5: (True, True, True, False, False),
    4: (False, False, False, True, False),
    3: (False, False, False, False, False),
    2: (False, False, False, False, False),
    1: (True, False, False),
}

# The printed B^[4,2] state: outer bend down, inner bend up.
B_42_H = {
    "1": (True, True, True, True, True),
    "2": (True, True, True, False, False),
    "2b": (True, True, True, True, True),
    "1b": (True, False, False, False, False),
}
B_42_V = {
    4: (True, True, True, True, False),
    3: (False, False, False, False, False),
    2: (True, True, False, False, False),
    1: (False, False, False, False, False),
}


def _find_state(spec, h_bits, v_bits):
    printed = {}
    for row, bits in h_bits.items():
        for i, b in enumerate(bits):
            printed[("h", row, i)] = b
    for col, bits in v_bits.items():
        for k, b in enumerate(bits):
            printed[("v", col, k)] = b
    target = tuple(printed[e] for e in spec.edges)
    matches = [s for s in enumerate_states(spec)
               if orientation(s) == target]
    assert len(matches) == 1, "printed state must be admissible exactly once"
    return matches[0]


def test_printed_d_51_state():
    spec = build_model("D", [5, 1])
    state = _find_state(spec, D_51_H, D_51_V)
    assert state.bend_dirs() == {"1": "D", "2": "D"}
    kinds = state.vertex_kinds()
    assert kinds[("2b", 5)] == "c2"
    assert kinds[("2b", 1)] == "c2"     # the half-column carries a c2
    assert kinds[("2b", 4)] == "c1"
    matrix = state_to_matrix(state)
    assert len(matrix) == 4 and len(matrix[0]) == 9
    assert all(sum(row) == 1 for row in matrix)


def test_printed_b_42_state():
    spec = build_model("B", [4, 2])
    state = _find_state(spec, B_42_H, B_42_V)
    assert state.bend_dirs() == {"1": "D", "2": "U"}
    kinds = state.vertex_kinds()
    assert kinds[("2", 2)] == "c2"
    assert kinds[("1b", 4)] == "c2"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_d_and_bc_state_counts_agree(n):
    # the two families' matrices are exchanged by transposition
    rho = list(range(n, 0, -1))
    d = len(enumerate_states(build_model("D", rho)))
    bc = len(enumerate_states(build_model("BC", rho)))
    assert d == bc


def test_b_rho_counts_are_half_turn_numbers():
    # 2, 10, 140: the half-turn symmetric ASM counts of orders 2, 4, 6
    counts = [len(enumerate_states(build_model("B", list(range(n, 0, -1)))))
              for n in (1, 2, 3)]
    assert counts == [2, 10, 140]


def test_c_rho_counts_are_odd_half_turn_numbers():
    counts = [len(enumerate_states(build_model("C", list(range(n, 0, -1)))))
              for n in (1, 2)]
    assert counts == [3, 25]


# sha256 of the canonical JSON of [scheme_to_json(scheme) for n = 1..4], one
# digest per (regime, family); family A has no okada weights, and its other
# schemes no barred rows and no bends.
SCHEME_DIGESTS = {
    "generic-A": "8c9f96f0e2991aeccfc5e1e1b6ae6e4e9f8960089e16c1a861e7ae5b2dd6caed",
    "generic-B": "e1aef722bd646e967399c0394daf0196b562dbb719ac0ea647e0af83096a0311",
    "generic-Bstar": "a2caf52730f9cb9df82541bce7f0811f7ed232301330fe382f1d750aa4a2fc09",
    "generic-C": "7955ddb88a4058aad45191998be96ef06bf107a0c45bf4b80e3d13844e57b657",
    "generic-Cstar": "42ce7f61552ce49a08dbb33318514ef590bcccfc1632b8956a9cb32dddd7275b",
    "generic-D": "8c21b73a3b5963d63f7c9f8d0d920133682740b3c93bf52b130875988ee84125",
    "generic-BC": "b27f57c6350492695f9ebb2f9b9fe90fee8ac290f9a080c3f649a6682c0ebd86",
    "deformation-A": "57ad0d461832aa1871e159a37ba9adf0512651f4243b349d23c14886da5e3005",
    "deformation-B": "528f1620ad5a49af724f3ab83e056b592d3e5b5109e85d20e75315794e2a88a0",
    "deformation-Bstar": "d4b52a00601ae0abaff51dc1f5dad4b311289803552f6ab7658c5878ba0160b5",
    "deformation-C": "a4133b476574a7e0afc183b50c51fdfa755f2982d48cb0014cc0f255c18a7a94",
    "deformation-Cstar": "e90d1a517a8e2d12766f8704606850bda54dc6ef121636e896a25f0acbd11c39",
    "deformation-D": "4b7d20a06813b9316ac1f00af3acb4b3fdff85eac61a21418efa8d44bebf8937",
    "deformation-BC": "7266fd8a60e86ed4bd6c371293ae89f974b221fe9de8a0efac3cc144394bb00c",
    "okada-B": "16737e7c02e51e125a6ad8dbe730dc0084ace4a1d5de3d67041c8b49ca692652",
    "okada-Bstar": "c7f05c16606493fb81722f3fc8ef94b4b1bfc8b1eeac25d35b92af47614326e6",
    "okada-C": "fe39a79471533fe21f1df5223539f5b5471101e850447f79e5faa32ea331026b",
    "okada-Cstar": "f1cbb4d6e5340823cc015aaf5ce45b67be151c61d324b66172a335f2263cb6c2",
    "okada-D": "758cc26d24c54a0917ceabdb19617ad69d95acb576fa5d661d5c56e4028f8e14",
    "okada-BC": "97c7cd665231c2a3ac6ebdad1f46b50ade7303fb1d4439484cfbb472456d0b9a",
    "character-A": "7030228a2863163180436370d9ea6741146cf9d60dbac9181c1447b0d876df5b",
    "character-B": "a717243d435df2809ce807ca74605d9706955aee374b665497dd8b184868dd9b",
    "character-Bstar": "1f071c640ea3c9cc6154140bf2745b528e5f28577854369a3d2382be53ab312a",
    "character-C": "25679e2b6a842c3e21afcccff5992cf0f44e1744933f397c9c1d6726c0eedcdb",
    "character-Cstar": "086e7fab4624bb47241fe54359a96cc9316d6f9275cad87fce1908823d2e433d",
    "character-D": "a526c9e6d41b09df46aef2c08972ce47601aceedf60b5dbce3bcde4b717819ae",
    "character-BC": "bea01d23b135fbfb3646e16869bf5c1feb1fc58b4e6c8b1d73e599ef4fdde97c",
}


@pytest.mark.parametrize("key", sorted(SCHEME_DIGESTS))
def test_builtin_scheme_digest(key):
    regime, family = key.split("-")
    schemes = [scheme_to_json(BUILTIN_SCHEMES[regime](family, n)) for n in range(1, 5)]
    blob = json.dumps(schemes, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == SCHEME_DIGESTS[key]


def test_scheme_digests_cover_every_builtin_scheme():
    expected = {f"{regime}-{family}" for regime in BUILTIN_SCHEMES for family in FAMILIES}
    assert set(SCHEME_DIGESTS) == expected - {"okada-A"}


# The same digest for Tokuyama's type-A weights, family A's "deformation"
# scheme, recorded when make_tokuyama still wrote each row's six weights out
# by hand instead of deriving c1 from the free-fermion condition.
TOKUYAMA_DIGEST = "ecb6a778b5c4e55a4b88c5bb96033a60b1b9401b9298908ed14b7b425b696ae9"


def test_tokuyama_scheme_digest():
    schemes = [scheme_to_json(make_tokuyama(n)) for n in range(1, 5)]
    blob = json.dumps(schemes, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == TOKUYAMA_DIGEST


# sha256 of the canonical JSON of every model of a family with n <= 4 and
# lambda_1 <= 8: its shape, boundary, edges and units in sweep order.
MODEL_DIGESTS = {
    "A": "f0493759ff5077eeb8b69f28f0774f3557bdc9d605463140d87d3d6ce1d18c9c",
    "B": "ce3eb35ba9b8274711b9f5c2bac209b94f6d534b899960d54b2f129fe074b8c6",
    "Bstar": "31d85ffa04bf0edb9a916685bfe47a17aabc30e4bb07e350c4512ba8b0a127e2",
    "C": "1751d73045a67230fda46cdb4d8882ad71f8de77d11446514a37b247c8368d5f",
    "Cstar": "ab9e3badfe6b986b2dcaed40da1f402fa659129b165b46903f1eeb61072954f3",
    "D": "433b15d8c694615b302662a75531c056662ab0ebf7019ce167dedc3644f875c0",
    "BC": "e34ac84d75ded20a9e8f12edaf5a0cf6161b9e0a7a71b2d3d73bff8f82a4e43f",
}


def _model_json(spec):
    def name(e):
        return f"{e[0]}:{e[1]}:{e[2]}"
    return {
        "rows": spec.rows, "full_cols": spec.full_cols, "half_col": spec.half_col,
        "half_rows": spec.half_rows, "central": spec.central, "bend_rows": spec.bend_rows,
        "boundary": [[e, spec.boundary[e]] for e in sorted(spec.boundary, key=name)],
        "edges": spec.edges,
        "units": [[u.kind, u.label, u.edges, u.configs, u.tags] for u in spec.units],
    }


@pytest.mark.parametrize("family", FAMILIES)
def test_model_digest(family):
    models = [_model_json(build_model(family, lam)) for n in range(1, 5)
              for lam in itertools.combinations(range(8, 0, -1), n)]
    blob = json.dumps(models, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == MODEL_DIGESTS[family]


# The divisibility ladder of the benchmark: six bent families, two lambdas,
# two schemes.  For each seed, sha256 of the JSON list of every op's drawn
# pre-check points (each as [variable, re, im] triples in the order they
# were drawn), symmetry verdict and quotient.  The verdicts and quotients
# were recorded before the division and the pre-check moved to packed
# monomials; the points since the pre-check draws one value per variable
# of the packed layout, in sorted order.
DIVISIBILITY_LADDER = [(fam, lam, scheme) for fam in ("B", "Bstar", "C", "Cstar", "D", "BC")
                       for lam in ([3, 2], [4, 1]) for scheme in ("generic", "deformation")]
PRECHECK_DIGESTS = {
    0: "6b532f17bf642df0e0170028fc267719e9fb48d17351b0c884571b552eeb4f8d",
    3: "437449803714b10fb6102e96e8f04c767a9bfe253822d71f87147483e6649edd",
}


@pytest.mark.parametrize("seed", sorted(PRECHECK_DIGESTS))
def test_divisibility_precheck_draws_the_same_points(monkeypatch, seed):
    drawn = []
    real = identities._random_point

    def recording(variables, rng):
        point = real(variables, rng)
        drawn.append([[v.name(), c.re, c.im] for v, c in point.items()])
        return point

    monkeypatch.setattr(identities, "_random_point", recording)
    records = []
    for fam, lam, scheme in DIVISIBILITY_LADDER:
        drawn.clear()
        q = identities.divisibility_check(fam, lam, scheme, seed=seed)
        verdict = identities.quotient_symmetry_check(q, fam, len(lam), scheme)["ok"]
        records.append({"points": list(drawn), "verdict": verdict, "quotient": q.to_json()})
    blob = json.dumps(records, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == PRECHECK_DIGESTS[seed]
