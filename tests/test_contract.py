"""The frontier contraction against the enumerator it must agree with.

`contract` sums unit values over the states without building them;
`enumerate_states` builds every state.  Counts with unit value 1 must equal
the number of enumerated states, and with Boltzmann weights the contraction
must equal `partition_function`'s enumerate-and-sum.
"""

import itertools

import pytest

from bentice import states
from bentice.models import FAMILIES, build_model
from bentice.states import contract, count_states, enumerate_states, partition_function
from bentice.weights import BUILTIN_SCHEMES, unit_weights


def strict_partitions(max_part, max_len):
    """Every strict partition with parts <= max_part and at most max_len parts."""
    return [list(lam) for n in range(1, max_len + 1)
            for lam in itertools.combinations(range(max_part, 0, -1), n)]


# lambda_1 <= 4 with n <= 3, and lambda_1 = 5 with n <= 2
COUNT_LAMBDAS = strict_partitions(4, 3) + [
    lam for lam in strict_partitions(5, 2) if lam[0] == 5]


@pytest.mark.parametrize("lam", COUNT_LAMBDAS, ids=lambda lam: ",".join(map(str, lam)))
@pytest.mark.parametrize("family", FAMILIES)
def test_count_equals_the_number_of_enumerated_states(family, lam):
    spec = build_model(family, lam)
    assert count_states(spec) == len(enumerate_states(spec))


@pytest.mark.parametrize("family, lam, count", [
    ("C", [5, 3, 1], 16962),
    ("Bstar", [6, 4, 1], 29860),
    ("B", [4, 3, 2, 1], 5544),
])
def test_workload_counts_without_enumerating(monkeypatch, family, lam, count):
    def refuse(*args, **kwargs):
        raise AssertionError("the states were enumerated")

    monkeypatch.setattr(states, "enumerate_tags", refuse)
    spec = build_model(family, lam)
    # the patch is the entry point enumerate_states goes through ...
    with pytest.raises(AssertionError, match="the states were enumerated"):
        enumerate_states(spec)
    # ... and count_states never reaches it
    assert count_states(spec) == count


def test_values_need_only_sum_and_product():
    # no units: the empty product
    assert contract([], {}, lambda unit, tag: 2) == 1
    # one boundary arrow reversed breaks the balance of arrows in and out:
    # no state, the empty sum
    spec = build_model("B", [2, 1])
    edge = ("v", 2, 0)
    fixed = {**spec.boundary, edge: not spec.boundary[edge]}
    assert contract(spec.units, fixed, lambda unit, tag: 1) == 0


def test_each_unit_is_weighed_once_per_tag():
    spec = build_model("C", [4, 2, 1])
    calls = []

    def value(unit, tag):
        calls.append((id(unit), tag))
        return 1

    contract(spec.units, spec.boundary, value)
    assert len(calls) == len(set(calls))


SCHEME_CASES = [(family, name) for family in FAMILIES for name in BUILTIN_SCHEMES
                if (family, name) != ("A", "okada")]   # family A has no okada weights


@pytest.mark.parametrize("lam", strict_partitions(3, 3), ids=lambda lam: ",".join(map(str, lam)))
@pytest.mark.parametrize("family, name", SCHEME_CASES)
def test_contraction_gives_the_partition_function(family, name, lam):
    spec = build_model(family, lam)
    scheme = BUILTIN_SCHEMES[name](family, len(lam))
    z = contract(spec.units, spec.boundary,
                 lambda unit, tag: unit_weights(unit, scheme)[tag])
    assert z == partition_function(spec, scheme)
