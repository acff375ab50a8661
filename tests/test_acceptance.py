"""Acceptance suite: one test per criterion, exact equalities throughout.

Each test prints a single PASS/FAIL line (visible under pytest -s and in
failure reports) and enforces its wall-clock budget.  Criterion 7 includes
one instance known to sit outside the character bijection's hypothesis;
see the notes accompanying the build for the analysis.
"""

import itertools
import json
import time
from dataclasses import replace

import pytest

from bentice.asm import bijection_check
from bentice.characters import (
    EVEN_SIGNS, HYPEROCTAHEDRAL, character_theorem_check, tokuyama_check, weyl_group,
)
from bentice.cli import main as cli_main
from bentice.identities import (
    BENT_FAMILIES, divisibility_check, okada_product_check,
    quotient_symmetry_check, rho_check,
)
from bentice.laurent import GInt, LaurentPoly, Var
from bentice.relations import (
    bend_ybe_check, caduceus_check, fish_check, jellyfish_check, ybe_check,
)
from bentice.weights import WeightScheme, make_deformation, make_generic

from oracles import htsasm_matrices, nonzero_weight_states, phi_statistic, state_to_weyl

ONE = LaurentPoly.const(1)
I = LaurentPoly.const(GInt(0, 1))


def with_bend_down(scheme, w):
    """The scheme with D^(r) = w in every bend row."""
    return replace(scheme, bend_down=dict.fromkeys(scheme.bend_down, w))


def report(number, label, ok, detail="", capsys=None):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} [{label}]: {status}"
    if detail:
        line += f" ({detail})"
    if capsys is not None:
        with capsys.disabled():
            print(line)
    else:
        print(line)
    return ok


def test_criterion_1_free_fermion_ybe(capsys):
    started = time.monotonic()
    failures = []
    generic = make_generic("B", 2)
    v = ybe_check(generic.row_weights("1"), generic.row_weights("2"))
    if not (v.ok and v.checked == 64):
        failures.append("generic symbolic")
    deform = make_deformation("B", 2)
    v = ybe_check(deform.row_weights("1"), deform.row_weights("2"))
    if not (v.ok and v.checked == 64):
        failures.append("deformation")
    ones = {k: ONE for k in ("a1", "a2", "b1", "b2", "c1", "c2")}
    v = ybe_check(ones, dict(ones))
    if v.ok or v.witness is None:
        failures.append("delta != 0 must produce a witness")
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 5.0
    assert report(1, "free-fermion YBE", ok,
                  f"{elapsed:.1f}s; failures={failures}", capsys), failures
    assert elapsed < 5.0


def test_criterion_2_local_relations(capsys):
    started = time.monotonic()
    failures = []

    v = bend_ybe_check(make_generic("B", 2), 1, 2)
    if not v.ok:
        failures.append("bend ybe")
    v = bend_ybe_check(replace(make_generic("B", 2),
                               bend_down={"1": I, "1b": I, "2": ONE, "2b": ONE}), 1, 2)
    if v.ok or v.witness is None:
        failures.append("bend ybe necessity")

    for family in ("Bstar", "C", "BC"):
        n = 2 if family == "BC" else 1
        if not caduceus_check(make_generic(family, n), 1).ok:
            failures.append(f"caduceus {family}")
    bad = make_generic("Bstar", 1)
    entries = dict(bad.vertex)
    for r in ("1", "1b", "0"):
        entries[("c1", r)] = ONE
    broken = WeightScheme(name="bad", family="Bstar", n=1, vertex=entries,
                          bend_up=bad.bend_up, bend_down=bad.bend_down)
    v = caduceus_check(broken, 1)
    if v.ok or v.witness is None:
        failures.append("caduceus necessity")

    for family in ("B", "Cstar", "D"):
        v = fish_check(make_generic(family, 1), 1)
        if not (v.ok and v.closed_form_ok):
            failures.append(f"fish {family}")
        v = fish_check(with_bend_down(make_generic(family, 1), LaurentPoly.const(3)), 1)
        if v.ok:
            failures.append(f"fish {family} necessity")

    for family in ("C", "Bstar", "BC"):
        n = 2 if family == "BC" else 1
        v = jellyfish_check(make_generic(family, n), 1)
        if not (v.ok and v.closed_form_ok):
            failures.append(f"jellyfish {family}")
        v = jellyfish_check(with_bend_down(make_generic(family, n), LaurentPoly.const(2)), 1)
        if v.ok:
            failures.append(f"jellyfish {family} necessity (D/U)")
    a0, b0 = LaurentPoly.var(Var.a0(0)), LaurentPoly.var(Var.b0(0))
    v = jellyfish_check(replace(make_generic("C", 1), corner_l=a0 + I * b0), 1)
    if v.ok and v.closed_form_ok:
        failures.append("jellyfish C necessity (L/R)")

    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 30.0
    assert report(2, "local relations", ok,
                  f"{elapsed:.1f}s; failures={failures}", capsys), failures
    assert elapsed < 30.0


def test_criterion_3_rho_equalities(capsys):
    started = time.monotonic()
    failures = []
    for family in BENT_FAMILIES:
        for n in (1, 2, 3):
            for regime in ("generic", "deformation"):
                if not rho_check(family, n, regime)["ok"]:
                    failures.append((family, n, regime))
    # family A anchors through the rectangular model at mu = 0
    for n in (1, 2, 3):
        if not tokuyama_check(list(range(n, 0, -1)))["ok"]:
            failures.append(("A", n))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 600.0
    assert report(3, "lambda = rho equalities", ok,
                  f"{elapsed:.1f}s; failures={failures}", capsys), failures
    assert elapsed < 600.0


def test_criterion_4_divisibility_and_quotient_symmetry(capsys):
    started = time.monotonic()
    failures = []
    lams = [list(lam) for lam in itertools.combinations(range(4, 0, -1), 2)]
    assert len(lams) == 6
    for family in BENT_FAMILIES:
        for lam in lams:
            for regime in ("generic", "deformation"):
                quotient = divisibility_check(family, lam, regime, seed=11)
                sym = quotient_symmetry_check(quotient, family, 2, regime)
                if not sym["ok"]:
                    failures.append((family, lam, regime, sym["failed_actions"]))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 600.0
    assert report(4, "divisibility + quotient symmetry", ok,
                  f"{elapsed:.1f}s over {6 * len(lams) * 2} cases; failures={failures}",
                  capsys), failures
    assert elapsed < 600.0


def test_criterion_5_okada_products(capsys):
    started = time.monotonic()
    failures = []
    for family in BENT_FAMILIES:
        for n in (1, 2, 3):
            if not okada_product_check(family, n)["ok"]:
                failures.append((family, n))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 600.0
    assert report(5, "okada/simpson products", ok,
                  f"{elapsed:.1f}s; failures={failures}", capsys), failures
    assert elapsed < 600.0


def test_criterion_6_asm_bijection(capsys):
    started = time.monotonic()
    failures = []
    for n in (1, 2, 3):
        result = bijection_check("B", n)
        if not result["ok"]:
            failures.append((n, result["failures"]))
        if result["checked"] != len(htsasm_matrices(2 * n)):
            failures.append((n, "state count vs independent HTSASM enumeration"))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 300.0
    assert report(6, "ASM bijection", ok,
                  f"{elapsed:.1f}s; failures={failures}", capsys), failures
    assert elapsed < 300.0


CHARACTER_CASES = [(family, mu) for family in BENT_FAMILIES
                   for mu in ((0, 0), (1, 0), (1, 1), (2, 0))]


def test_criterion_7_character_theorem(capsys):
    started = time.monotonic()
    failures = []
    for family, mu in CHARACTER_CASES:
        lam = [m + r for m, r in zip(mu, (2, 1))]
        if not character_theorem_check(family, lam)["ok"]:
            failures.append((family, mu))
    if not character_theorem_check("B", [4, 2, 1])["ok"]:
        failures.append(("B", (1, 0, 0)))

    # nonzero-weight state counts equal the group order
    for family in BENT_FAMILIES:
        for n in (1, 2, 3):
            lam = list(range(n, 0, -1))
            expect = len(weyl_group(EVEN_SIGNS if family in ("D", "BC")
                                    else HYPEROCTAHEDRAL, n))
            if len(nonzero_weight_states(family, lam)) != expect:
                failures.append((family, n, "state count"))

    # phi parity against the determinant, families with a printed phi
    for lam in ([2, 1], [3, 2, 1]):
        for family in ("B", "BC"):
            for s in nonzero_weight_states(family, lam):
                if (-1) ** (phi_statistic(s) % 2) != state_to_weyl(s).det():
                    failures.append((family, lam, "phi parity"))
                    break

    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 600.0
    report(7, "character theorem", ok, f"{elapsed:.1f}s; failures={failures}", capsys)
    assert not failures, (
        "character theorem fails outside the bijection hypothesis: the D-family "
        "instance mu=(1,1) has lambda_n != 1, where Z carries the extra factors "
        f"prod(1 - x_j^2) and vanishes at x = 1; failing cases: {failures}")
    assert elapsed < 600.0


def test_criterion_8_tokuyama_anchor(capsys):
    started = time.monotonic()
    failures = []
    lams = [[1], [2], [2, 1], [3, 1], [5, 1], [3, 2, 1], [4, 2, 1], [5, 3, 1], [5, 4, 2]]
    for lam in lams:
        r = tokuyama_check(lam)
        if not r["symbolic_ok"]:
            failures.append((lam, "symbolic"))
        if not r["t_minus_one_ok"]:
            failures.append((lam, "t=-1"))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 300.0
    assert report(8, "tokuyama anchor", ok,
                  f"{elapsed:.1f}s; failures={failures}", capsys), failures
    assert elapsed < 300.0


def test_criterion_9_determinism(capsys):
    started = time.monotonic()
    invocations = [
        ["enumerate", "--family", "B", "--lambda", "2,1"],
        ["partition", "--family", "Cstar", "--lambda", "2,1", "--scheme", "okada"],
        ["asm", "--family", "B", "--lambda", "2,1"],
        ["character", "--family", "C", "--mu", "1,0"],
        ["verify", "ybe", "--family", "B", "--seed", "5"],
        ["verify", "rho", "--family", "all", "--n", "1", "--seed", "5"],
        ["verify", "okada", "--family", "B", "--n", "2", "--seed", "5"],
        ["verify", "divisibility", "--family", "B", "--lambda", "3,1", "--seed", "5"],
        ["verify", "bijection", "--family", "B", "--n", "2", "--seed", "5"],
        ["verify", "character", "--family", "B", "--lambda", "3,1", "--seed", "5"],
        ["verify", "tokuyama", "--lambda", "2,1", "--seed", "5"],
    ]
    failures = []
    for argv in invocations:
        outs = []
        for _ in range(2):
            code = cli_main(list(argv))
            printed = capsys.readouterr().out
            parsed = json.loads(printed)
            # the report's bytes are the stdlib's indent=2 rendering of its value
            if printed != json.dumps(parsed, indent=2) + "\n":
                failures.append(("bytes", argv))
            parsed.pop("elapsed_ms", None)
            outs.append((code, json.dumps(parsed, sort_keys=False)))
        if outs[0] != outs[1]:
            failures.append(argv)
    elapsed = time.monotonic() - started
    ok = not failures
    report(9, "determinism", ok, f"{elapsed:.1f}s; failures={failures}", capsys)
    assert ok, failures
