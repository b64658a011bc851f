"""Case classification, Galois data on embeddings, and reflex fields."""

import random
from fractions import Fraction

import pytest

from util import fraction_params, galois_action_by_cosets, is_identity, random_field_params
from weakcm import cmfield, dodson_core, linalg, serialize
from weakcm.errors import (
    BadFactorBound,
    FactorizationInconclusive,
    SquareClassMismatch,
    WrongCase,
    WrongSign,
)


def field_B():
    return cmfield.classify({"d": 5, "p": Fraction(-5, 2), "q": Fraction(-1, 2)})


def field_C():
    return cmfield.classify({"d": 2, "p": -3, "q": 1})


# ---------------------------------------------------------------- classify


def test_classify_cases():
    assert cmfield.classify({"p1": -1, "p2": -3}).case == "A"
    assert field_B().case == "B"
    assert field_C().case == "C"
    assert cmfield.classify({"p": -1}).case == "deg2"


def test_classify_degrees():
    fB, fC = field_B(), field_C()
    assert (fB.degree, fB.closure_degree) == (4, 4)
    assert (fC.degree, fC.closure_degree) == (4, 8)


def test_classify_propagates_tower_errors():
    with pytest.raises(WrongSign):
        cmfield.classify({"p1": 1, "p2": -3})
    with pytest.raises(SquareClassMismatch):
        cmfield.build_as_case("C", {"d": 5, "p": Fraction(-5, 2), "q": Fraction(-1, 2)})


def test_classify_returns_one_object_for_equivalent_spellings():
    spellings = [
        {"d": 5, "p": "-5/2", "q": "-1/2"},
        {"d": "5", "p": Fraction(-5, 2), "q": -0.5},
        {"d": 5.0, "p": -2.5, "q": " -1/2 "},
        {"q": "-2/4", "p": "-10/4", "d": "10/2", "case": "B"},
    ]
    first = cmfield.classify(spellings[0])
    assert all(cmfield.classify(params) is first for params in spellings)
    assert cmfield.classify({"p": "-1"}) is cmfield.classify({"p": -1})
    assert cmfield.classify({"p": -1}) is not cmfield.classify({"p": -2})


def test_classify_follows_the_factor_bound(monkeypatch):
    params = {"d": 5, "p": "-5/2", "q": "-1/2"}
    monkeypatch.delenv("WEAKCM_FACTOR_BOUND", raising=False)
    first = cmfield.classify(params)
    # trial division up to 2 cannot certify that d = 5 is square-free
    monkeypatch.setenv("WEAKCM_FACTOR_BOUND", "2")
    with pytest.raises(FactorizationInconclusive):
        cmfield.classify(params)
    for raw in ("abc", "1"):
        monkeypatch.setenv("WEAKCM_FACTOR_BOUND", raw)
        for _ in range(2):
            with pytest.raises(BadFactorBound):
                cmfield.classify(params)
    # another usable bound has its own cache entry
    monkeypatch.setenv("WEAKCM_FACTOR_BOUND", "3")
    other = cmfield.classify(params)
    assert other == first and other is not first
    # equal fields hash alike, so they share galois_group's and reflex_bc's
    # cache entries
    assert hash(other) == hash(first)
    assert cmfield.galois_group(other) is cmfield.galois_group(first)
    assert cmfield.reflex_bc(other) is cmfield.reflex_bc(first)
    monkeypatch.delenv("WEAKCM_FACTOR_BOUND")
    assert cmfield.classify(params) is first


def test_field_caches_drop_old_fields():
    # galois_group and reflex_bc keep at most as many fields as classify,
    # so a field that classify has dropped does not stay alive with its tower
    for k in range(100):
        field = cmfield.classify({"d": 2, "p": -3 - k, "q": 1})
        cmfield.galois_group(field)
        cmfield.reflex_bc(field)
    for cache in (cmfield._classify_cached, cmfield.galois_group, cmfield.reflex_bc):
        assert cache.cache_info().currsize <= 64


# ---------------------------------------------------------------- galois


def test_galois_group_orders():
    for params, order in (
        ({"p": -1}, 2),
        ({"p1": -1, "p2": -3}, 4),
        ({"d": 5, "p": Fraction(-5, 2), "q": Fraction(-1, 2)}, 4),
        ({"d": 2, "p": -3, "q": 1}, 8),
    ):
        gg = cmfield.galois_group(cmfield.classify(params))
        assert gg.order == order


def test_galois_action_matches_coset_oracle():
    # each embedding read as a restriction to phi'(K') against the cosets of
    # the pointwise stabiliser of phi'(K')
    rng = random.Random(1301)
    for case in (cmfield.DEG2, cmfield.CASE_A, cmfield.CASE_B, cmfield.CASE_C):
        for _ in range(4):
            field = cmfield.classify(random_field_params(rng, case))
            gg = cmfield.galois_group(field)
            assert (gg.action, gg.pairing) == galois_action_by_cosets(field)


def test_galois_group_axioms_exhaustive():
    for field in (cmfield.classify({"p1": -1, "p2": -3}), field_B(), field_C()):
        gg = cmfield.galois_group(field)
        els = gg.elements
        assert any(is_identity(g) for g in els)
        for a in els:
            for b in els:
                assert a.compose(b) in els
        rho = els[gg.conj_index]
        assert is_identity(rho.compose(rho))


def test_case_a_generated_by_s1_s2():
    field = cmfield.classify({"p1": -1, "p2": -3})
    t = field.tower
    s1, s2 = t.generators["s1"], t.generators["s2"]
    generated = {t.galois_elements()[0], s1, s2, s1.compose(s2)}
    assert generated == set(t.galois_elements())


def test_case_b_sigma0_squared_is_conjugation():
    field = field_B()
    s0 = field.tower.generators["s0"]
    assert s0.compose(s0) == field.tower.conjugation


def test_case_c_dihedral_relation_on_embeddings():
    gg = cmfield.galois_group(field_C())
    by_label = {g.label: perm for g, perm in zip(gg.elements, gg.action)}
    s0 = by_label["s0"]
    s3 = by_label["s3"]

    def compose(a, b):
        return tuple(a[b[i]] for i in range(len(a)))

    lhs = compose(s3, compose(s0, s3))
    rhs = compose(s0, compose(s0, s0))
    assert lhs == rhs


def test_embedding_action_transitive_and_paired():
    for field in (cmfield.classify({"p": -1}),
                  cmfield.classify({"p1": -1, "p2": -3}), field_B(), field_C()):
        gg = cmfield.galois_group(field)
        n_emb = field.degree
        reached = {0}
        for perm in gg.action:
            reached |= {perm[i] for i in reached}
        assert reached == set(range(n_emb))
        assert all(gg.pairing[i] != i for i in range(n_emb))
        assert all(gg.pairing[gg.pairing[i]] == i for i in range(n_emb))


# ---------------------------------------------------------------- reflex


def test_reflex_case_b_spans_whole_field():
    field = field_B()
    r = cmfield.reflex_bc(field)
    assert r.degree == 4
    assert r.equals_field
    # span{1, sqrt(dp), xi+ + xi-, sqrt(d)(xi+ - xi-)} = span{1, sqrt(d),
    # xi+, sqrt(d) xi+}: both are everything, compare exactly
    t = field.tower
    rows = [list(b.coeffs) for b in r.basis]
    assert len(linalg.pivot_columns(rows)) == 4 == t.dim


def test_reflex_squares_evaluate_exactly():
    # (xi+ + xi-)^2 = 2p - 2 sqrt(dp): expand by hand through the relations
    # xi+^2 = p + q sqrt(d), xi-^2 = p - q sqrt(d), xi+ xi- = -sqrt(dp)
    for field in (field_B(), field_C()):
        t = field.tower
        r = cmfield.reflex_bc(field)
        p = fraction_params(t)["p"]
        one, sdp, g2, g3 = r.basis
        assert g2 * g2 == one * (2 * p) - sdp * 2
        d = fraction_params(t)["d"]
        assert g3 * g3 == (one * (2 * p) + sdp * 2) * d


def test_reflex_case_c_proper_subspace_fixed_by_stabilizer():
    field = field_C()
    r = cmfield.reflex_bc(field)
    assert not r.equals_field
    assert set(r.stabilizer_words) == {"1", "s3"}
    s3 = field.tower.generators["s3"]
    for b in r.basis:
        assert s3(b) == b


def test_reflex_span_multiplicatively_closed():
    for field in (field_B(), field_C()):
        r = cmfield.reflex_bc(field)
        span = linalg.generated_subalgebra(field.tower, r.basis)
        assert len(span) == 4
        for a in r.basis:
            for b in r.basis:
                assert linalg.subspace_coordinates(list(r.basis), a * b) is not None


def test_reflex_cm_witness_totally_negative():
    for field in (field_B(), field_C()):
        r = cmfield.reflex_bc(field)
        # dp and the witness are integer pairs in lowest terms
        dp = Fraction(*cmfield.dprime_of(field))
        p, q, d = (fraction_params(field.tower)[k] for k in "pqd")
        assert dp == p * p - q * q * d
        for label, pairs in r.cm_witness.items():
            u, v = (Fraction(*x) for x in pairs)
            assert pairs == ((u.numerator, u.denominator), (v.numerator, v.denominator))
            assert u < 0 and u * u - v * v * dp > 0
            # (u, v) are the coordinates of the generator's square
            g = r.basis[2] if label == "xi+ + xi-" else r.basis[3]
            assert g * g == r.basis[0] * u + r.basis[1] * v


def test_reflex_wrong_case():
    with pytest.raises(WrongCase):
        cmfield.reflex_bc(cmfield.classify({"p1": -1, "p2": -3}))
    with pytest.raises(WrongCase):
        cmfield.reflex_bc(cmfield.classify({"p": -1}))


# ---------------------------------------------------------------- dodson glue


def test_dodson_type_tags():
    cases = {
        "A": cmfield.classify({"p1": -1, "p2": -3}),
        "B": field_B(),
        "C": field_C(),
    }
    for expect, field in cases.items():
        ct = cmfield.dodson_type(field)
        triple = dodson_core.triple_from_group(ct.group)
        assert dodson_core.quartic_case_alias(triple) == expect


def test_case_report_shape():
    rep = serialize.field_report(field_C())
    assert rep["case"] == "C"
    assert rep["group_order"] == 8
    assert rep["dprime"] == "7"
    assert set(rep["generators"]) == {"rho", "s0", "s3"}
