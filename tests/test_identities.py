import dataclasses
import hashlib
import itertools
import json
import random
import signal

import pytest

from bentice import characters, identities
from bentice.characters import character_theorem_check, family_character, tokuyama_check
from bentice.identities import (
    BENT_FAMILIES, DivisibilityError, PreCheckUndecidedError, divisibility_check,
    known_factor, okada_product_check, probabilistic_divides, quotient_symmetry_check,
    rho_check, spectral_actions,
)
from bentice.laurent import GI, GInt, LaurentPoly, Var, ZeroDivisorError, dense_key, gpow_i
from bentice.models import build_model, reduced, rho
from bentice.states import enumerate_states, partition_function
from bentice.weights import BUILTIN_SCHEMES, crossing, make_generic, make_scheme, make_tokuyama

from oracles import evaluate, is_homogeneous, total_degree, vertex_count, zero

ONE = LaurentPoly.const(1)
I = LaurentPoly.const(GI)


def t(j):
    return LaurentPoly.term(1, [(Var.q(j), 2)])


def x(j, e=2):
    return LaurentPoly.term(1, [(Var.x(j), e)])


def v(var):
    return LaurentPoly.var(var)


def sha256(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# sha256 of json.dumps([f.to_json() for f in known_factor(*key)]), recorded
# from the per-family factor ladders that the partner-row table replaced;
# family A's from its row of the table (c2(j), then x_j + t x_k), whose
# product TestTypeAFactors checks against Tokuyama's x^rho prod(1 + t x_j/x_i)
FACTOR_DIGESTS = {
    ("B", 1, "generic", True): "83e9ce9a31a2b93d3f69808602491986d96287f150779841f056e5a25b9e1d15",
    ("B", 1, "generic", False): "83e9ce9a31a2b93d3f69808602491986d96287f150779841f056e5a25b9e1d15",
    ("B", 1, "deformation", True): "1c84b8b0097476a0a83e18bde1a0cfc7a84a98f7f54b3323469110e6bd00d844",
    ("B", 1, "deformation", False): "1c84b8b0097476a0a83e18bde1a0cfc7a84a98f7f54b3323469110e6bd00d844",
    ("B", 2, "generic", True): "4fc16d059950a26745f156ff2853605ce38d6bb39888b4e49466e2ed2f9bdcb6",
    ("B", 2, "generic", False): "4fc16d059950a26745f156ff2853605ce38d6bb39888b4e49466e2ed2f9bdcb6",
    ("B", 2, "deformation", True): "86cc0d634d6d632113d87762d6d66acc5c678f94ce7d96aed6482db2c91ce232",
    ("B", 2, "deformation", False): "86cc0d634d6d632113d87762d6d66acc5c678f94ce7d96aed6482db2c91ce232",
    ("B", 3, "generic", True): "51ab6fef3226d69c385d7d6c25e80be6bf7d1c34f9abd1f07e11cb8b6f7883bd",
    ("B", 3, "generic", False): "51ab6fef3226d69c385d7d6c25e80be6bf7d1c34f9abd1f07e11cb8b6f7883bd",
    ("B", 3, "deformation", True): "008d9155d686971afbeb42bb9f66d43b8e03ecb6a86463d2c24969d3e7b833c4",
    ("B", 3, "deformation", False): "008d9155d686971afbeb42bb9f66d43b8e03ecb6a86463d2c24969d3e7b833c4",
    ("B", 4, "generic", True): "dc983d1b0f9a0b0c7449dcc34a33973e350ee2abfdfcd878217e73b3b37210cd",
    ("B", 4, "generic", False): "dc983d1b0f9a0b0c7449dcc34a33973e350ee2abfdfcd878217e73b3b37210cd",
    ("B", 4, "deformation", True): "fbc4038a0810a2ab39ec2984212f5021f00901f02e1b20ac174afd6439fc02db",
    ("B", 4, "deformation", False): "fbc4038a0810a2ab39ec2984212f5021f00901f02e1b20ac174afd6439fc02db",
    ("Bstar", 1, "generic", True): "869215b323ddac590173a883b754861d4474f29666709e043c284160296f6488",
    ("Bstar", 1, "generic", False): "869215b323ddac590173a883b754861d4474f29666709e043c284160296f6488",
    ("Bstar", 1, "deformation", True): "43d3c1455ec03d0e1bd6a4c0755a4bc6cdf54dba0b26bddd376f1f5196526b46",
    ("Bstar", 1, "deformation", False): "43d3c1455ec03d0e1bd6a4c0755a4bc6cdf54dba0b26bddd376f1f5196526b46",
    ("Bstar", 2, "generic", True): "42a26e87d440c1444ddb4007a7f1cb065ef5d97c0982121680b9b3d7b53223b5",
    ("Bstar", 2, "generic", False): "42a26e87d440c1444ddb4007a7f1cb065ef5d97c0982121680b9b3d7b53223b5",
    ("Bstar", 2, "deformation", True): "0f15ab4d2d065b71e6f57f0fd90681e6790f0e38ff82c84fd950870b1053126a",
    ("Bstar", 2, "deformation", False): "0f15ab4d2d065b71e6f57f0fd90681e6790f0e38ff82c84fd950870b1053126a",
    ("Bstar", 3, "generic", True): "de2ed77772fbc9b2e6ffe0c2f8d9d94613f06ffb6a15772efc6b87a946d0d419",
    ("Bstar", 3, "generic", False): "de2ed77772fbc9b2e6ffe0c2f8d9d94613f06ffb6a15772efc6b87a946d0d419",
    ("Bstar", 3, "deformation", True): "f8e13d04ee97023d8da8cfcdccb470b5055fb44b81fec1ba991d0fc95feaeeba",
    ("Bstar", 3, "deformation", False): "f8e13d04ee97023d8da8cfcdccb470b5055fb44b81fec1ba991d0fc95feaeeba",
    ("Bstar", 4, "generic", True): "ca1afdd2aeca4eff4579fd202cad59e763147b5a9d2964cc91170455fce877f9",
    ("Bstar", 4, "generic", False): "ca1afdd2aeca4eff4579fd202cad59e763147b5a9d2964cc91170455fce877f9",
    ("Bstar", 4, "deformation", True): "971dbf34cd10b30823b241cb41ccf3f0808e23029602d673a51f50a66715a447",
    ("Bstar", 4, "deformation", False): "971dbf34cd10b30823b241cb41ccf3f0808e23029602d673a51f50a66715a447",
    ("C", 1, "generic", True): "dc13d4b4b3d7db24db0f8cebb2a7f38e6ed01e4ced12b49b832f97c8536f3d1a",
    ("C", 1, "generic", False): "dc13d4b4b3d7db24db0f8cebb2a7f38e6ed01e4ced12b49b832f97c8536f3d1a",
    ("C", 1, "deformation", True): "b7989e0f2ed944fd73850be19b7c09badb9612a43fe092566f037d7d59ea516d",
    ("C", 1, "deformation", False): "b7989e0f2ed944fd73850be19b7c09badb9612a43fe092566f037d7d59ea516d",
    ("C", 2, "generic", True): "72a0835d06ff7ce23df8658740281c11a16fdabac4241b3c923a4066671df6e1",
    ("C", 2, "generic", False): "72a0835d06ff7ce23df8658740281c11a16fdabac4241b3c923a4066671df6e1",
    ("C", 2, "deformation", True): "70c04e56e66476de958baa95e6dd068112d79ffb75099e9e2a069abc75f8bbca",
    ("C", 2, "deformation", False): "70c04e56e66476de958baa95e6dd068112d79ffb75099e9e2a069abc75f8bbca",
    ("C", 3, "generic", True): "a156928450603ba90089ae5007b96c578e2511ac6ce72ead6a22d63818029ff3",
    ("C", 3, "generic", False): "a156928450603ba90089ae5007b96c578e2511ac6ce72ead6a22d63818029ff3",
    ("C", 3, "deformation", True): "990a67e67789610a5ed3e86f060e29c5a7d6accc4e864af1186c46b99d63805f",
    ("C", 3, "deformation", False): "990a67e67789610a5ed3e86f060e29c5a7d6accc4e864af1186c46b99d63805f",
    ("C", 4, "generic", True): "83ccbde039581e2c58de0722477a9496be952e4e2dc81a09804feffaf2f022c3",
    ("C", 4, "generic", False): "83ccbde039581e2c58de0722477a9496be952e4e2dc81a09804feffaf2f022c3",
    ("C", 4, "deformation", True): "54ed260dffaee49b84625bf03fb9abe94d93057845ae19d657e81db53116a561",
    ("C", 4, "deformation", False): "54ed260dffaee49b84625bf03fb9abe94d93057845ae19d657e81db53116a561",
    ("Cstar", 1, "generic", True): "6545ee388ab7021411d043c863674eb2042259e05718bd3f2585afb5e59dc082",
    ("Cstar", 1, "generic", False): "6545ee388ab7021411d043c863674eb2042259e05718bd3f2585afb5e59dc082",
    ("Cstar", 1, "deformation", True): "4baa1e9be365ec0f507e48b08109acc2a88433ad12dc844301bc9a6a4a8eab6e",
    ("Cstar", 1, "deformation", False): "4baa1e9be365ec0f507e48b08109acc2a88433ad12dc844301bc9a6a4a8eab6e",
    ("Cstar", 2, "generic", True): "21483e391b0c46359afa68fc82cc35de497178ecc2edfb25e6cfbde912b95b1b",
    ("Cstar", 2, "generic", False): "21483e391b0c46359afa68fc82cc35de497178ecc2edfb25e6cfbde912b95b1b",
    ("Cstar", 2, "deformation", True): "9bb9f409877058c1c5bf4ffb74bd80e21e910712ea40171895261c5cf772e248",
    ("Cstar", 2, "deformation", False): "9bb9f409877058c1c5bf4ffb74bd80e21e910712ea40171895261c5cf772e248",
    ("Cstar", 3, "generic", True): "fc79c63632a5cad58427e64dcd1535f8136227ecbb72894840ea9e9a7c22c637",
    ("Cstar", 3, "generic", False): "fc79c63632a5cad58427e64dcd1535f8136227ecbb72894840ea9e9a7c22c637",
    ("Cstar", 3, "deformation", True): "3bfd2f66fe9303444a20ce6a360c948e7cf4c320610c11b807eafe06a24271ef",
    ("Cstar", 3, "deformation", False): "3bfd2f66fe9303444a20ce6a360c948e7cf4c320610c11b807eafe06a24271ef",
    ("Cstar", 4, "generic", True): "786be0ddd2dc37c9d71000a2fc24b29d7feee51ca5715fd9913d53152aad7ff7",
    ("Cstar", 4, "generic", False): "786be0ddd2dc37c9d71000a2fc24b29d7feee51ca5715fd9913d53152aad7ff7",
    ("Cstar", 4, "deformation", True): "8482b466b5c42ea1bc88846e0999ab9b1f911d383c5df0812f67bcc661bd1dbe",
    ("Cstar", 4, "deformation", False): "8482b466b5c42ea1bc88846e0999ab9b1f911d383c5df0812f67bcc661bd1dbe",
    ("D", 1, "generic", True): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("D", 1, "generic", False): "6545ee388ab7021411d043c863674eb2042259e05718bd3f2585afb5e59dc082",
    ("D", 1, "deformation", True): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("D", 1, "deformation", False): "4baa1e9be365ec0f507e48b08109acc2a88433ad12dc844301bc9a6a4a8eab6e",
    ("D", 2, "generic", True): "97b2aa73d4ca4f5423315851ecbfd85af491337860db22b0cadc8e2989db6550",
    ("D", 2, "generic", False): "21483e391b0c46359afa68fc82cc35de497178ecc2edfb25e6cfbde912b95b1b",
    ("D", 2, "deformation", True): "6c21ef9583f1c472ccad6884ab25d349ade6896ecf8bf57f751eaebb2af71523",
    ("D", 2, "deformation", False): "9bb9f409877058c1c5bf4ffb74bd80e21e910712ea40171895261c5cf772e248",
    ("D", 3, "generic", True): "5908bdc72fef03ae9f8798a177c3b1f3b8cddb5245b164e99e20e44965f32672",
    ("D", 3, "generic", False): "fc79c63632a5cad58427e64dcd1535f8136227ecbb72894840ea9e9a7c22c637",
    ("D", 3, "deformation", True): "9350e0de89f885afc5eff97ddbb9d3a507876ba4752c20512345c7e928f8533b",
    ("D", 3, "deformation", False): "3bfd2f66fe9303444a20ce6a360c948e7cf4c320610c11b807eafe06a24271ef",
    ("D", 4, "generic", True): "ddc3f0fd28fb4a8d07ab1401e03f94cd77216615aaa8b901b491eae9c38ac378",
    ("D", 4, "generic", False): "786be0ddd2dc37c9d71000a2fc24b29d7feee51ca5715fd9913d53152aad7ff7",
    ("D", 4, "deformation", True): "80ab84d9e50fb2232d10982ce21477252edadbbf7e9f7021be94f3fa1b9aa79a",
    ("D", 4, "deformation", False): "8482b466b5c42ea1bc88846e0999ab9b1f911d383c5df0812f67bcc661bd1dbe",
    ("BC", 1, "generic", True): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("BC", 1, "generic", False): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("BC", 1, "deformation", True): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("BC", 1, "deformation", False): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("BC", 2, "generic", True): "3bb09ee0ea3fcaea6decfa658b442579503d9d881d94bea28f96321ffdeddea0",
    ("BC", 2, "generic", False): "3bb09ee0ea3fcaea6decfa658b442579503d9d881d94bea28f96321ffdeddea0",
    ("BC", 2, "deformation", True): "38c54a30d0b902c72de89b9150bebbf050ecbcea8161038c2122257eacbfd9c1",
    ("BC", 2, "deformation", False): "38c54a30d0b902c72de89b9150bebbf050ecbcea8161038c2122257eacbfd9c1",
    ("BC", 3, "generic", True): "f1bd3fff6724f88db5b7f9ade1e30961b4bf06db255709ce22c2a64f8696be90",
    ("BC", 3, "generic", False): "f1bd3fff6724f88db5b7f9ade1e30961b4bf06db255709ce22c2a64f8696be90",
    ("BC", 3, "deformation", True): "4c396f58ee3bc1851284df4b5770aa56c26078bd2e15da8f3e2a5d9693658e27",
    ("BC", 3, "deformation", False): "4c396f58ee3bc1851284df4b5770aa56c26078bd2e15da8f3e2a5d9693658e27",
    ("BC", 4, "generic", True): "4508ce27f6ae2069126e307468dd8e7c59850f0e76b84e4bcab99b3d615af3d9",
    ("BC", 4, "generic", False): "4508ce27f6ae2069126e307468dd8e7c59850f0e76b84e4bcab99b3d615af3d9",
    ("BC", 4, "deformation", True): "6c5e6679b347127418990af43bb931cea67683acb7a61484669298edf3f5f5b5",
    ("BC", 4, "deformation", False): "6c5e6679b347127418990af43bb931cea67683acb7a61484669298edf3f5f5b5",
    ("A", 1, "deformation", True): "0335ae794202e23c991fb8688949fe372b892011ba673dc893ec2635a06fa9a4",
    ("A", 2, "deformation", True): "4ee8bf584b0fa50704a67cde0b83e00d8c9dba6a5aa52d0b4a40cb9205e545d8",
    ("A", 3, "deformation", True): "f3fec9ac19bf335aaed0e950b65cb134ae0817ee972f9f9d2fb8e2d2819464f4",
    ("A", 4, "deformation", True): "10e6a68781658a3cd8af45610df51f6325460df865185e2d7a85372ac1983673",
}

# sha256 of json.dumps(okada_product(*key).to_json()), the product of the okada
# factor list; same provenance
OKADA_DIGESTS = {
    ("B", 1): "728dcf62e3261a822cd158ab5da131cda25409e92b533c4b63553e252c94143c",
    ("B", 2): "3d494eadecf185caeee9a28279568fa3a4f275c567b447a2a061d93fd368e69d",
    ("B", 3): "e3d94c784eb43a5fde8640b962074e26ac1a01f60c2327a6801134d4e7efe6e7",
    ("B", 4): "299bb50d64f291b08670c8af86f7923113619aadbb386f8760c7b51862737ef0",
    ("Bstar", 1): "97df75e0205b5ab6f75f1db5e67a0d4203130dd0fc731cf5ca0653844fce322d",
    ("Bstar", 2): "ea09749a3cdf6bec4238bba675330758aa3e92afdf2c2df0874a9767713a802e",
    ("Bstar", 3): "ff5f38cd64f3c56700ade9db808cce1b8d1dbd937258d209e85c6e9c4b66762c",
    ("Bstar", 4): "ec7cc38ef45164808ebf7f59abaad861ee499f68ab65861e811944c4f289e720",
    ("C", 1): "ee947293ddaa0828c087a331b31c5c32f9cf0ec8e29898a4bd65c8b9e8a262d6",
    ("C", 2): "adabb044ba8a9397c899f07c3c0b48bc54f18030730d7b7c2796e46c1d3efd87",
    ("C", 3): "9bf1f1e94e6a68dfcc5921abafc2c9404200c34366e062cd5040e162cda23c0e",
    ("C", 4): "6fd6a07e96b2895c93f2ff92b36154933f0bdf79cd9d2d77c7acb4f332ba2444",
    ("Cstar", 1): "1ad658ddce8c40894f0f2062ddd0650c44863e63665c01e3cb5ecfa860ffa70b",
    ("Cstar", 2): "c7dd0c98d8ebcae711d531a7df5115fecb0136eebe13de56e78fe020348c2b85",
    ("Cstar", 3): "ae21814ea569725469f0571de05ac50a08715495710f13354a1d5ad5110fc766",
    ("Cstar", 4): "dfdccef13420498fc4f6d50f5618dc3e2a4cb453aef79b4ec8e352ceb2635277",
    ("D", 1): "877ef8d7c8f9cd9d9bee569c47566a5c8976c50bb1ffe170e0ccfbbadf3fbf52",
    ("D", 2): "17db30effb67cbd50961cc56d1fbc9859843b4666c20a4bc92d436e603938bfe",
    ("D", 3): "c7fc80d44d33d9deaf4b711df57e6b188f9086461fa1f577232aef46db3f4d6d",
    ("D", 4): "1e8f55f67b0bf70d7840cc6c04fcca595b1889541ea8a642372350853f6ab6fd",
    ("BC", 1): "877ef8d7c8f9cd9d9bee569c47566a5c8976c50bb1ffe170e0ccfbbadf3fbf52",
    ("BC", 2): "92016486ecc9aab27f5aad6e73bdc062acfcee0e578df7d8a9287533e7a5d376",
    ("BC", 3): "208e5fbd72af1949bca412adb0d994328c19f314248e48e6ee2392014293c63a",
    ("BC", 4): "fc6bb455fe1f017b2366b71bd0a4eae43669296c19678290fe969de700abd22b",
}


class TestKnownFactor:
    def test_b_n1_deformation(self):
        assert known_factor(make_scheme("deformation", "B", 1)) == [ONE - t(1) * x(1)]

    def test_d_n2_generic_with_1(self):
        factors = known_factor(make_scheme("generic", "D", 2))
        want = [
            v(Var.a1(2)) * v(Var.a2(1)) + v(Var.b1(1)) * v(Var.b2(2)),
            v(Var.a2(1)) * v(Var.a2(2)) + v(Var.b1(2)) * v(Var.b1(1)),
        ]
        assert factors == want

    def test_d_case_split_adds_factors(self):
        with_1 = known_factor(make_scheme("generic", reduced("D", (2, 1))[0], 2))
        without = known_factor(make_scheme("generic", reduced("D", (3, 2))[0], 2))
        assert len(without) == len(with_1) + 2

    def test_bc_n2_deformation(self):
        factors = known_factor(make_scheme("deformation", "BC", 2))
        assert factors == [ONE - t(2) * t(1) * x(2) * x(1), ONE - t(1) * t(1) * x(1, 4)]

    def test_family_a_has_no_generic_factor_list(self):
        with pytest.raises(ValueError, match="family A has no generic factor list"):
            known_factor(make_scheme("generic", "A", 2))

    @pytest.mark.parametrize("key", FACTOR_DIGESTS, ids=lambda k: "-".join(map(str, k)))
    def test_factor_list_golden(self, key):
        # the last key entry says whether lambda has a part 1: rho or rho + 1
        family, n, regime, has_1 = key
        family = reduced(family, [p + (not has_1) for p in rho(n)])[0]
        factors = known_factor(make_scheme(regime, family, n))
        assert sha256([f.to_json() for f in factors]) == FACTOR_DIGESTS[key]

    def test_b_factor_degree_bookkeeping(self):
        # generic factor product at rho is homogeneous of degree 2n^2 - n
        for n in (1, 2, 3):
            product = ONE
            for f in known_factor(make_scheme("generic", "B", n)):
                product = product * f
            spec = build_model("B", list(range(n, 0, -1)))
            assert is_homogeneous(product)
            assert total_degree(product) == vertex_count(spec) - n


def tokuyama_product(n):
    """x^rho prod_{i<j} (1 + t x_j/x_i), rho = (n, ..., 1), written out."""
    tq = LaurentPoly.term(1, [(Var.qshared(), 2)])
    want = LaurentPoly.term(1, [(Var.x(j), 2 * (n + 1 - j)) for j in range(1, n + 1)])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            want = want * (ONE + tq * x(j) * x(i, -2))
    return want


class TestTypeAFactors:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_product_is_x_rho_times_the_deformed_denominator(self, n):
        factors = known_factor(make_scheme("deformation", "A", n))
        assert LaurentPoly.prod(factors) == tokuyama_product(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_each_factor_is_a_crossing_or_a_rows_c2(self, n):
        scheme = make_tokuyama(n)
        rows = [str(j) for j in range(1, n + 1)]
        c2 = [scheme.vertex[("c2", j)] for j in rows]
        crossings = [crossing(scheme, j, k) for j, k in itertools.combinations(rows, 2)]
        assert known_factor(make_scheme("deformation", "A", n)) == c2 + crossings
        # under the Tokuyama weights, c2(j) = x_j and crossing(j, k) = x_j + t x_k
        tq = LaurentPoly.term(1, [(Var.qshared(), 2)])
        assert c2 == [x(j) for j in range(1, n + 1)]
        assert crossings == [x(j) + tq * x(k)
                             for j, k in itertools.combinations(range(1, n + 1), 2)]

    def test_a_negative_exponent_in_the_quotient_is_refused(self, monkeypatch):
        # a monomial divides exactly in the Laurent ring: one x_1 too many
        # leaves x_1^-1 in the quotient, which s_mu cannot have
        real = identities.known_factor
        monkeypatch.setattr(identities, "known_factor",
                            lambda *args, **kwargs: real(*args, **kwargs) + [x(1)])
        with pytest.raises(DivisibilityError,
                           match=r"^x\^rho does not divide Z\(A\^\[2, 1\]\) \[deformation\]$"):
            divisibility_check("A", [2, 1], "deformation")


class TestRhoEqualities:
    @pytest.mark.parametrize("family", ["B", "Bstar", "C", "Cstar", "D", "BC"])
    @pytest.mark.parametrize("regime", ["generic", "deformation"])
    def test_n2(self, family, regime):
        assert rho_check(family, 2, regime)["ok"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_type_a_includes_x_rho(self, n):
        # Z(A^rho) = x^rho prod_{i<j} (1 + t x_j/x_i), rho = (n, ..., 1)
        want = tokuyama_product(n)
        rho = list(range(n, 0, -1))
        assert partition_function(build_model("A", rho), make_tokuyama(n)) == want
        r = rho_check("A", n, "deformation")
        assert r["ok"] and r["z"] == want and r["quotient"] == ONE

    @pytest.mark.parametrize("family", ["B", "D"])
    def test_n3_fast_families(self, family):
        assert rho_check(family, 3, "generic")["ok"]
        assert rho_check(family, 3, "deformation")["ok"]


class TestDivisibility:
    def test_b_rho_quotient_is_one(self):
        q = divisibility_check("B", [2, 1], "generic")
        assert q == ONE

    def test_c_rho_quotient_is_one(self):
        assert divisibility_check("C", [2, 1], "deformation") == ONE

    def test_b31_quotient_nonconstant_and_symmetric(self):
        q = divisibility_check("B", [3, 1], "deformation")
        assert len(q.terms) > 1
        sym = quotient_symmetry_check(q, "B", 2, "deformation")
        assert sym["ok"]

    def test_generic_quotient_symmetry(self):
        q = divisibility_check("Cstar", [3, 1], "generic")
        assert quotient_symmetry_check(q, "Cstar", 2, "generic")["ok"]

    def test_corrupted_quotient_detected(self):
        q = divisibility_check("B", [3, 1], "deformation")
        bad = q + x(1)
        sym = quotient_symmetry_check(bad, "B", 2, "deformation")
        assert not sym["ok"] and sym["failed_actions"]

    def test_remaining_factors_after_one_division(self):
        # divide Z(B^rho) by the j=1 linear factor by hand
        spec = build_model("B", [2, 1])
        z = partition_function(spec, make_generic("B", 2))
        first = v(Var.a2(1)) + I * v(Var.b1(1))
        rest = z.exact_divide(first)
        product = ONE
        for f in known_factor(make_scheme("generic", "B", 2)):
            if f != first:
                product = product * f
        assert rest == product

    def test_type_a_divisibility_and_schur_quotient(self):
        q = divisibility_check("A", [3, 1], "deformation")
        # quotient is the Schur polynomial s_(1,0) = x1 + x2, free of t
        assert q == x(1) + x(2)
        assert quotient_symmetry_check(q, "A", 2, "deformation")["ok"]


def action(family, n, regime, name):
    """The substitution of the named spectral index action."""
    return dict(spectral_actions(family, n, regime))[name]


def okada_product(family, n):
    return LaurentPoly.prod(known_factor(make_scheme("okada", family, n)))


class TestIndexActions:
    def test_swap_is_involutive(self):
        swap = action("B", 2, "generic", "swap(1,2)")
        p = v(Var.a1(1)) * v(Var.b2(2)) + v(Var.a2(2))
        assert p.substitute(swap).substitute(swap) == p

    def test_bar_is_involutive_deformation(self):
        bar = action("B", 2, "deformation", "bar(1)")
        p = x(1) + x(1, -2) * t(1)
        assert p.substitute(bar).substitute(bar) == p

    def test_generic_bar_matches_symmetry_relabeling(self):
        bar = action("B", 1, "generic", "bar(1)")
        s = make_generic("B", 1)
        for kind in ("a1", "a2", "b1", "b2", "c1", "c2"):
            barred = s.vertex[(kind, "1b")]
            assert s.vertex[(kind, "1")].substitute(bar) == barred

    def test_swaps_come_before_bars(self):
        assert [name for name, _ in spectral_actions("B", 3, "deformation")] == [
            "swap(1,2)", "swap(2,3)", "bar(1)", "bar(2)", "bar(3)"]
        assert [name for name, _ in spectral_actions("A", 3, "deformation")] == [
            "swap(1,2)", "swap(2,3)"]


class TestOkada:
    def test_b_n2_product_shape(self):
        tq = LaurentPoly.term(1, [(Var.qshared(), 2)])
        want = ((ONE - tq * x(1)) * (ONE - tq * x(2))
                * (ONE - tq * tq * x(1) * x(2, -2)) * (ONE - tq * tq * x(1) * x(2)))
        assert okada_product("B", 2) == want

    def test_cstar_n1(self):
        tq = LaurentPoly.term(1, [(Var.qshared(), 2)])
        assert okada_product("Cstar", 1) == ONE + tq * x(1, 4)

    def test_d_n1_empty_product(self):
        assert okada_product("D", 1) == ONE

    @pytest.mark.parametrize("key", OKADA_DIGESTS, ids=lambda k: "-".join(map(str, k)))
    def test_product_golden(self, key):
        assert sha256(okada_product(*key).to_json()) == OKADA_DIGESTS[key]

    @pytest.mark.parametrize("family", ["B", "Bstar", "C", "Cstar", "D", "BC"])
    def test_check_n2(self, family):
        assert okada_product_check(family, 2)["ok"]

    def test_check_is_the_rho_identity_under_shared_t_weights(self):
        r = okada_product_check("C", 2)
        assert r == rho_check("C", 2, "okada")
        assert r["z"] == okada_product("C", 2) and r["quotient"] == ONE

    def test_a_factor_that_does_not_divide_leaves_no_quotient(self, monkeypatch):
        real = identities.known_factor
        monkeypatch.setattr(identities, "known_factor",
                            lambda *args, **kwargs: real(*args, **kwargs) + [ONE + x(1)])
        r = okada_product_check("B", 2)
        assert not r["ok"] and r["quotient"] is None

    def test_family_a_has_no_shared_t_weights(self):
        with pytest.raises(ValueError,
                           match="^family A supports tokuyama/generic weights, not 'okada'$"):
            okada_product_check("A", 2)
        with pytest.raises(ValueError,
                           match="^family A supports tokuyama/generic weights, not 'okada'$"):
            make_scheme("okada", "A", 2)

    def test_divisibility_is_not_stated_under_shared_t_weights(self):
        with pytest.raises(ValueError, match="^unknown regime 'okada'$"):
            divisibility_check("B", [2, 1], "okada")


class TestCharacterFactors:
    @pytest.mark.parametrize("family", BENT_FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_okada_product_at_t_j_one(self, family, n):
        # the character weights are the shared-t weights at t_j = 1: t = q^2
        # in B and C, t_j = i q elsewhere
        q = ONE if family in ("B", "C") else LaurentPoly.const(GInt(0, -1))
        okada = LaurentPoly.prod(known_factor(make_scheme("okada", family, n)))
        assert okada.substitute({Var.qshared(): q}) == LaurentPoly.prod(
            known_factor(make_scheme("character", family, n)))

    @pytest.mark.parametrize("family", BENT_FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rho_identity(self, family, n):
        assert rho_check(family, n, "character")["ok"]

    def test_regimes_are_the_builtin_schemes(self):
        for regime in BUILTIN_SCHEMES:
            assert known_factor(make_scheme(regime, "B", 2))
        with pytest.raises(ValueError, match="^unknown scheme 'tokuyama'$"):
            make_scheme("tokuyama", "B", 2)


# the four product checks at one instance each, and the keys each adds to
# product_check's result
PRODUCT_CHECKS = {
    "rho": (lambda: rho_check("C", 2, "generic"), set()),
    "okada": (lambda: okada_product_check("Bstar", 2), set()),
    "character": (lambda: character_theorem_check("D", [3, 2]), {"mu", "chi"}),
    "tokuyama": (lambda: tokuyama_check([3, 1]), {"symbolic_ok", "t_minus_one_ok"}),
}


def spy_stated(monkeypatch) -> list:
    """The stated quotient of each product_check call, in call order."""
    stated = []
    real = identities.product_check

    def spying(family, lam, regime, given, statement):
        stated.append(given)
        return real(family, lam, regime, given, statement)

    for module in (characters, identities):
        monkeypatch.setattr(module, "product_check", spying)
    return stated


class TestProductIdentity:
    @pytest.mark.parametrize("name", PRODUCT_CHECKS)
    def test_one_result_shape(self, monkeypatch, name):
        check, extra = PRODUCT_CHECKS[name]
        stated = spy_stated(monkeypatch)
        r = check()
        assert set(r) == {"ok", "statement", "z", "quotient"} | extra
        assert r["ok"] and stated == [r["quotient"]]

    @pytest.mark.parametrize("name", PRODUCT_CHECKS)
    def test_a_dropped_factor_is_left_in_the_quotient(self, monkeypatch, name):
        real = identities.known_factor
        dropped = []

        def dropping(scheme):
            *kept, last = real(scheme)
            dropped.append(last)
            return kept

        monkeypatch.setattr(identities, "known_factor", dropping)
        stated = spy_stated(monkeypatch)
        r = PRODUCT_CHECKS[name][0]()
        assert not r["ok"] and r["quotient"] == stated[0] * dropped[0]

    def test_character_check_builds_one_model(self, monkeypatch):
        # Z(rho) is the factor product, so only D^[3,2] itself is built
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return build_model(*args, **kwargs)

        for module in (characters, identities):
            monkeypatch.setattr(module, "build_model", counting, raising=False)
        assert character_theorem_check("D", [3, 2])["ok"]
        assert [family for family, _ in built] == ["D"]


@pytest.mark.parametrize("check, scheme", [
    (lambda: rho_check("B", 2, "generic"), ("generic", "B", 2)),
    (lambda: character_theorem_check("D", [3, 2]), ("character", "Cstar", 2)),
    (lambda: divisibility_check("D", [3, 2], "deformation"), ("deformation", "Cstar", 2)),
], ids=["rho", "character", "divisibility"])
def test_each_check_makes_one_scheme(monkeypatch, check, scheme):
    # Z and the factor list are read from the same scheme, the reduction's
    made = []

    def counting(*args):
        made.append(args)
        return make_scheme(*args)

    monkeypatch.setattr(identities, "make_scheme", counting)
    check()
    assert made == [scheme]


def multiplied_out(family, lam, regime):
    """(Z, the factor product multiplied out), both under the reduction's scheme:
    the reference that the product checks' division must agree with."""
    spec = build_model(family, lam)
    scheme = make_scheme(regime, reduced(family, spec.lam)[0], spec.n)
    return partition_function(spec, scheme), LaurentPoly.prod(known_factor(scheme))


# every strict lambda with at most three parts and lambda_1 <= 4
STRICT = [list(lam) for k in (1, 2, 3) for lam in itertools.combinations(range(4, 0, -1), k)]


class TestDivisionAgainstTheProduct:
    """Each product check's verdict is the multiplied-out comparison's."""

    @pytest.mark.parametrize("family, regime", [("A", "deformation")] + [
        (family, regime) for family in BENT_FAMILIES for regime in BUILTIN_SCHEMES])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rho(self, family, regime, n):
        z, product = multiplied_out(family, rho(n), regime)
        r = rho_check(family, n, regime)
        assert r["z"] == z and r["ok"] == (z == product)
        if r["ok"]:
            assert r["quotient"] * product == z

    @pytest.mark.parametrize("family", BENT_FAMILIES)
    @pytest.mark.parametrize("lam", STRICT, ids=str)
    def test_character(self, family, lam):
        z, product = multiplied_out(family, lam, "character")
        r = character_theorem_check(family, lam)
        stated = LaurentPoly.const(gpow_i(sum(r["mu"]))) * r["chi"]
        assert r["z"] == z and r["ok"] == (z == product * stated)
        if r["ok"]:
            assert r["quotient"] * product == z

    @pytest.mark.parametrize("lam", STRICT, ids=str)
    def test_tokuyama(self, lam):
        z, product = multiplied_out("A", lam, "deformation")
        r = tokuyama_check(lam)
        mu = [a - b for a, b in zip(lam, rho(len(lam)))]
        stated = family_character("A", len(lam), mu)
        assert r["z"] == z and r["symbolic_ok"] == (z == product * stated)
        if r["symbolic_ok"]:
            assert r["quotient"] * product == z


def off_the_free_fermion_point(monkeypatch):
    """Make every scheme identities builds take c1 + 1 for c1 in every row."""
    def shifted(*args):
        scheme = make_scheme(*args)
        return dataclasses.replace(scheme, vertex={
            key: w + ONE if key[0] == "c1" else w for key, w in scheme.vertex.items()})

    monkeypatch.setattr(identities, "make_scheme", shifted)


def c1_states(family, n):
    """(states of family^rho with a c1 vertex, all its states)."""
    states = enumerate_states(build_model(family, rho(n)))
    return sum("c1" in s.vertex_kinds().values() for s in states), len(states)


class TestFreeFermionNecessity:
    """A global identity needs the free-fermion point: off it, the rho identity fails."""

    @pytest.mark.parametrize("family, counts", [
        ("B", (92, 140)), ("Bstar", (162, 210)), ("C", (468, 588)),
        ("Cstar", (162, 210)), ("D", (18, 42)), ("BC", (18, 42))])
    def test_rho_fails_off_it_at_n3(self, monkeypatch, family, counts):
        assert c1_states(family, 3) == counts
        off_the_free_fermion_point(monkeypatch)
        r = rho_check(family, 3, "generic")
        assert not r["ok"] and r["quotient"] is None

    @pytest.mark.parametrize("family", ["D", "BC"])
    def test_the_control_is_vacuous_at_n2_in_d_and_bc(self, monkeypatch, family):
        # no state at rho has a c1 vertex, so moving c1 changes no weight
        assert c1_states(family, 2) == (0, 4)
        off_the_free_fermion_point(monkeypatch)
        assert rho_check(family, 2, "generic")["ok"]


def with_schemes_changed(monkeypatch, change):
    """Make every scheme identities builds pass through change."""
    monkeypatch.setattr(identities, "make_scheme", lambda *args: change(make_scheme(*args)))


def counted_states(family, n, holds):
    """(states of family^rho for which holds(state), all its states)."""
    states = enumerate_states(build_model(family, rho(n)))
    return sum(map(holds, states)), len(states)


def other_d_bend(scheme):
    """Every D bend weighs what the other families' do: 1 in B and C, i elsewhere."""
    down = ONE if scheme.family in ("B", "C") else I
    return dataclasses.replace(scheme, bend_down=dict.fromkeys(scheme.bend_down, down))


def conjugate_corner_l(scheme):
    """Family C's corner L weighs a0 + i b0 instead of a0 - i b0."""
    a0, b0 = scheme.vertex[("a1", "0")], scheme.vertex[("b1", "0")]
    return dataclasses.replace(scheme, corner_l=a0 + I * b0)


class TestBendAndCornerNecessity:
    """The table's D bend and C corner L weights are needed: off them, the rho identity fails."""

    @pytest.mark.parametrize("family, n, counts", [
        ("B", 2, (8, 10)), ("Bstar", 2, (10, 12)), ("C", 2, (23, 25)),
        ("Cstar", 2, (10, 12)), ("D", 2, (4, 4)), ("BC", 2, (2, 4)),
        ("B", 3, (133, 140)), ("Bstar", 3, (203, 210)), ("C", 3, (581, 588)),
        ("Cstar", 3, (203, 210)), ("D", 3, (42, 42)), ("BC", 3, (35, 42))])
    def test_rho_fails_with_the_other_d_bend(self, monkeypatch, family, n, counts):
        assert counted_states(family, n, lambda s: "D" in s.bend_dirs().values()) == counts
        with_schemes_changed(monkeypatch, other_d_bend)
        r = rho_check(family, n, "generic")
        assert not r["ok"] and r["quotient"] is None

    @pytest.mark.parametrize("regime", ["generic", "deformation"])
    @pytest.mark.parametrize("n, counts", [(1, (1, 3)), (2, (10, 25)), (3, (252, 588))])
    def test_rho_fails_with_c_corner_l_conjugated(self, monkeypatch, regime, n, counts):
        assert counted_states("C", n, lambda s: s.corner_dir() == "L") == counts
        with_schemes_changed(monkeypatch, conjugate_corner_l)
        r = rho_check("C", n, regime)
        assert not r["ok"] and r["quotient"] is None


class ScriptedRng:
    """Stands in for random.Random: choice returns the given values in turn, cycling."""

    def __init__(self, values):
        self.values = itertools.cycle(values)
        self.draws = 0

    def choice(self, pool):
        self.draws += 1
        return next(self.values)


def chained_value_division(num, dens, point):
    """num's value divided by each divisor's value in turn; None once one fails."""
    value = evaluate(num, point)
    for d in dens:
        value = value.exact_div(evaluate(d, point))
        if value is None:
            return None
    return value


class TestProbabilisticPreCheck:
    def test_refutes_non_divisibility(self):
        rng = random.Random(3)
        num = x(1) + ONE
        den = x(1) + x(2)
        ok, point = probabilistic_divides(num, [den], rng)
        assert not ok and point is not None

    def test_accepts_divisibility(self):
        rng = random.Random(3)
        num = (x(1) + x(2)) * (x(1) - x(2))
        ok, point = probabilistic_divides(num, [x(1) + x(2)], rng)
        assert ok and point is None

    def test_accepts_a_chain_that_divides(self):
        num = (x(1) + x(2)) * (x(1) - x(2)) * (ONE + t(1) * x(1))
        dens = [x(1) - x(2), ONE + t(1) * x(1), x(1) + x(2)]
        assert probabilistic_divides(num, dens, random.Random(3)) == (True, None)

    def test_refutes_a_chain_whose_second_divisor_fails(self):
        # each divisor alone divides num, but not their product: the second
        # fails on what the first leaves
        num = (x(1) + x(2)) * (x(1) - x(2))
        dens = [x(1) + x(2), x(1) + x(2)]
        for d in dens:
            assert probabilistic_divides(num, [d], random.Random(3)) == (True, None)
        ok, point = probabilistic_divides(num, dens, random.Random(3))
        assert not ok
        assert evaluate(num, point).exact_div(evaluate(dens[0], point)) is not None
        assert chained_value_division(num, dens, point) is None

    def test_points_where_a_divisor_vanishes_are_redrawn(self):
        q = v(Var.q(1))
        dens = [q + 2, q - ONE]
        num = dens[0] * dens[1] * (q + 3)
        rng = ScriptedRng([GInt(1), GInt(1), GInt(2), GInt(1), GInt(3), GI, -GI])
        assert probabilistic_divides(num, dens, rng, trials=5) == (True, None)
        # three of the seven values are q = 1, where q - 1 vanishes: five
        # points that count take ten draws
        assert rng.draws == 10
        # a vanishing divisor is redrawn even where num is not divisible
        rng = ScriptedRng([GInt(1), GInt(2)])
        ok, point = probabilistic_divides(num + ONE, dens, rng)
        assert not ok and point == {Var.q(1): GInt(2)}

    def test_a_zero_divisor_raises_before_any_point_is_drawn(self):
        # every point would be drawn again, for ever
        class NoDraws:
            def choice(self, pool):
                raise AssertionError("a point was drawn")

        with pytest.raises(ZeroDivisorError):
            probabilistic_divides(x(1) + ONE, [x(1) + ONE, zero()], NoDraws())
        # a cleared monomial is constant: its points have no variable to draw
        with pytest.raises(ZeroDivisorError):
            probabilistic_divides(x(1), [zero()], random.Random(0))

    def test_a_divisor_that_vanishes_at_every_point_stops_the_draws(self):
        # d vanishes at each of the 48 values a point can give a1, so no
        # point tests it; the pre-check must give up, not draw for ever
        a1 = v(Var.a1(1))
        pool = [GInt(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
        d = LaurentPoly.prod(a1 - LaurentPoly.const(c) for c in pool)

        def hung(signum, frame):
            raise TimeoutError("the pre-check is still drawing points")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            with pytest.raises(PreCheckUndecidedError) as exc:
                probabilistic_divides(d * (a1 + ONE), [d], random.Random(0))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert f"divisor {d.to_latex()} vanished" in str(exc.value)
        # nothing was refuted
        assert not isinstance(exc.value, DivisibilityError)

    def test_division_failure_raises(self, monkeypatch):
        # state a factor that is not there
        bad_factor = ONE - t(1) * t(1) * x(1)
        real = identities.known_factor
        monkeypatch.setattr(identities, "known_factor",
                            lambda *args, **kwargs: real(*args, **kwargs) + [bad_factor])
        with pytest.raises(DivisibilityError) as exc:
            divisibility_check("B", [2, 1], "deformation")
        assert f"factor {bad_factor.to_latex()} does not divide" in str(exc.value)


def test_the_first_factor_that_leaves_a_remainder_is_named(monkeypatch):
    # a factor plus one keeps that factor's leading monomial, so it sorts
    # into the middle of the list, and it does not divide Z
    real = identities.known_factor
    factors = real(make_scheme("deformation", "C", 2))
    order = sorted({v for f in factors for v, _ in f.leading()[0]})

    def ordered(fs):  # as divisibility_check orders them
        return sorted(fs, key=lambda f: dense_key(f.leading()[0], order))

    bad = ordered(factors)[2] + ONE
    listed = factors + [bad]
    assert ordered(listed).index(bad) == 3 < len(listed) - 1
    monkeypatch.setattr(identities, "known_factor", lambda *args, **kwargs: list(listed))
    with pytest.raises(DivisibilityError) as exc:
        divisibility_check("C", [3, 1], "deformation")
    assert str(exc.value) == (f"factor {bad.to_latex()} does not divide "
                              "Z(C^[3, 1]) [deformation]")
