"""Cross-module invariants the modules promise beyond their unit tests."""

import json
import random

import pytest

from bentice.cli import EXIT_PASS, main as cli_main
from bentice.identities import divisibility_check, known_factor
from bentice.laurent import GInt, LaurentPoly
from bentice.models import build_model
from bentice.states import enumerate_states, partition_function
from bentice.weights import (
    make_character, make_deformation, make_generic, make_okada, make_scheme,
)

from oracles import (
    delta, evaluate, is_homogeneous, model_to_json, scheme_to_json, total_degree, vertex_count,
)

ONE = LaurentPoly.const(1)


class TestSchemeSerialization:
    def test_scheme_json_shape(self):
        js = scheme_to_json(make_deformation("B", 1))
        assert js["name"] == "deformation"
        assert "b1:1" in js["vertex"]
        json.dumps(js)  # serializable

    def test_state_json_export(self):
        spec = build_model("C", [1])
        doc = enumerate_states(spec)[0].to_json()
        json.dumps(doc)  # serializable
        assert doc["family"] == "C"
        assert doc["corner"] in ("R", "L")

    def test_model_json_golden(self):
        js = model_to_json(build_model("D", [2, 1]))
        assert js["half_column"] == 1
        assert js["boundary"]["v:1:0"] == "out"      # 1 in lambda
        assert js["boundary"]["h:1:0"] == "in"


class TestDeltaEvaluation:
    def test_delta_vanishes_at_random_points(self):
        rng = random.Random(99)
        scheme = make_deformation("B", 2)
        assert delta(scheme, "1").is_zero()
        # the generic delta is the zero polynomial too, so any evaluation is 0
        gdelta = delta(make_generic("B", 2), "2")
        point = {v: GInt(rng.randrange(1, 7)) for v in gdelta.variables()}
        assert gdelta.is_zero() or evaluate(gdelta, point).is_zero()


class TestRenderingConventions:
    def test_okada_pipeline_renders_integral(self):
        spec = build_model("Cstar", [2, 1])
        z = partition_function(spec, make_okada("Cstar", 2))
        text = z.to_latex()
        assert "/2" not in text        # x exponents are whole after doubling
        js = z.to_json()
        assert all(isinstance(c, int) for t in js["terms"] for c in t["coeff"])

    def test_character_pipeline_renders_integral(self):
        spec = build_model("B", [2, 1])
        z = partition_function(spec, make_character("B", 2))
        assert "/2" not in z.to_latex()


class TestDegreeBookkeeping:
    @pytest.mark.parametrize("family", ["B", "Bstar", "C", "Cstar", "D", "BC"])
    def test_factor_product_degree_at_rho(self, family):
        for n in (1, 2):
            rho = list(range(n, 0, -1))
            spec = build_model(family, rho)
            product = ONE
            for f in known_factor(make_scheme("generic", family, n)):
                product = product * f
            if product.is_zero():
                continue
            assert is_homogeneous(product)
            assert total_degree(product) == vertex_count(spec) - n


class TestSmallRankDivisibility:
    @pytest.mark.parametrize("family", ["B", "Bstar", "C", "Cstar", "D", "BC"])
    @pytest.mark.parametrize("lam", [[1], [2], [3], [4]])
    def test_n1_both_regimes(self, family, lam):
        for regime in ("generic", "deformation"):
            q = divisibility_check(family, lam, regime)
            assert q is not None


class TestWorkers:
    def test_parallel_rho_matches_sequential(self, capsys):
        reports = []
        for workers in ("1", "2"):
            code = cli_main(["verify", "rho", "--family", "all", "--n", "1",
                             "--workers", workers])
            assert code == EXIT_PASS
            parsed = json.loads(capsys.readouterr().out)
            parsed.pop("elapsed_ms")
            parsed["inputs"].pop("workers")
            reports.append(json.dumps(parsed))
        assert reports[0] == reports[1]
