"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact (integer/rational equality); the stated
wall-clock budgets are asserted.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from util import random_period_matrix
from weakcm import cli, cmfield, dodson, hodge, tausplit
from weakcm.errors import OddDimension
from weakcm.presets import preset_reflex_reports


def _report(num, label, t0, limit=None):
    elapsed = time.time() - t0
    budget = f", budget {limit}s" if limit else ""
    print(f"ACCEPTANCE {num:02d} {label}: pass ({elapsed:.2f}s{budget})")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s"


def _run_cli(argv):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_acceptance_01_classification_counts():
    t0 = time.time()
    expected = {("2", "k3"): 3, ("2", "abl"): 3, ("3", "cy3"): 8, ("3", "abl"): 6}
    for (n, part), count in expected.items():
        code, out = _run_cli(["dodson-classify", "--n", n, "--partition", part])
        assert code == 0
        assert json.loads(out)["payload"]["class_count"] == count, (n, part)
    _report(1, "dodson-classify counts 3/3/8/6", t0, limit=5)


def test_acceptance_02_weight1_presets_reflex_table():
    t0 = time.time()
    expected_nprime = {
        "Z3-1-triv": 1, "S3-1-triv": 1, "A-iso": 1, "sum-iso3": 1,
        "A-noniso": 2, "sum-iso2": 2,
        "B": 4, "C": 4, "sum-distinct": 4, "Z3-3-triv": 4, "S3-3-triv": 4,
        "Z3-1-nontriv": 3, "S3-1-nontriv": 3,
    }
    expected_class = {
        "A-noniso": "A", "sum-iso2": "A",
        "Z3-3-triv": "(A4,1,non-triv.)", "S3-3-triv": "(S4,1,non-triv.)",
        "Z3-1-nontriv": "(Z3,1,non-triv.)", "S3-1-nontriv": "(S3,1,non-triv.)",
    }
    reports = preset_reflex_reports()
    assert len(reports) == 13
    for pr, rep in reports:
        assert rep.n_prime == expected_nprime[pr.name], pr.name
        if pr.name in expected_class:
            assert rep.class_tag == expected_class[pr.name], pr.name
    _report(2, "13 weight-1 presets reproduce the reflex table", t0, limit=5)


def test_acceptance_03_degree8_reflex_galois_groups():
    t0 = time.time()
    expected_models = {
        "sum-distinct": "Z2^3",
        "B": "Z2xZ4",
        "C": "Z2xD4",       # Z2 x (Z4 x| Z2)
        "Z3-3-triv": "Z2xA4",
        "S3-3-triv": "Z2xS4",
    }
    seen = {}
    for pr, rep in preset_reflex_reports():
        if rep.degree != 8:
            continue
        table = dodson.CayleyTable.from_imn2(rep.group)
        inv = table.invariants()
        model = dodson.model_group(expected_models[pr.name])
        assert inv == model.invariants(), pr.name
        seen[pr.name] = inv
    assert set(seen) == set(expected_models)
    # the five models are pairwise non-isomorphic, so the matching is sharp
    assert len({dodson.model_group(m).invariants()
                for m in expected_models.values()}) == 5
    # the reading-discrepancy flag for the triple-sum preset must be reported
    code, out = _run_cli(["presets"])
    assert code == 0
    payload = json.loads(out)["payload"]
    by_name = {p["name"]: p for p in payload["presets"]}
    notes = by_name["sum-distinct"]["reflex"].get("notes", [])
    assert any("flag" in n for n in notes)
    _report(3, "five reflex degree-8 Galois groups match, flag present", t0,
            limit=5)


def test_acceptance_04_reflex_degree_bound_exhaustive():
    t0 = time.time()
    checked = 0
    for G in dodson.enumerate_admissible(3):
        for signs in itertools.product((0, 1), repeat=3):
            phi = tuple((i, s) for i, s in enumerate(signs))
            ct = dodson.AbstractCMType(G, phi)
            rep = dodson.reflex_from_dodson(ct, 3)
            assert rep.degree <= 2 ** 3
            assert rep.bound_ok
            checked += 1
    assert checked == 10 * 8
    _report(4, f"reflex bound 2n' <= 8 on all {checked} N=3 CM types", t0)


_FIELDS = {
    "deg2": {"p": -1},
    "A": {"p1": -1, "p2": -3},
    "B": {"d": 5, "p": Fraction(-5, 2), "q": Fraction(-1, 2)},
    "C": {"d": 2, "p": -3, "q": 1},
}

_SPLIT_PLAN = {
    "deg2": ((2, 34), (3, 34), (4, 34)),
    "A": ((2, 50), (3, 50)),
    "B": ((2, 50), (4, 50)),
    "C": ((2, 70), (4, 30)),
}


def _split_corpus():
    rng = random.Random(20260809)
    for case, plan in _SPLIT_PLAN.items():
        field = cmfield.classify(_FIELDS[case])
        for n, count in plan:
            for _ in range(count):
                yield case, field, random_period_matrix(field, n, rng)


def test_acceptance_05_randomized_split_roundtrips():
    t0 = time.time()
    per_case = {}
    for case, field, pm in _split_corpus():
        cert, verified = tausplit.split(pm)
        assert verified.ok, verified.diagnostic
        res = tausplit.verify_certificate(pm, cert)
        assert res.ok, res.diagnostic
        assert cert.standard_form == tausplit.standard_form(
            field, pm.n, cert.level.p_split
        )
        per_case[case] = per_case.get(case, 0) + 1
    assert all(count >= 100 for count in per_case.values()), per_case
    total = sum(per_case.values())
    _report(5, f"{total} randomized splits verified ({per_case})", t0, limit=60)


def test_acceptance_06_structural_identities():
    t0 = time.time()
    rng = random.Random(5150)
    fA = cmfield.classify(_FIELDS["A"])
    for n in (2, 3):
        for _ in range(10):
            pm = random_period_matrix(fA, n, rng)
            de = tausplit.validate_weak_cm(pm)
            t = fA.tower
            tau = pm.tau()
            for i in range(n):
                for j in range(n):
                    taubar = t.conjugation(tau[i][j])
                    assert de.delta[i][j] - de.eps[i][j] == tau[i][j] - taubar
    for case in ("B", "C"):
        field = cmfield.classify(_FIELDS[case])
        s0 = field.tower.generators["s0"]
        for _ in range(10):
            pm = random_period_matrix(field, 2, rng)
            de = tausplit.validate_weak_cm(pm)
            for i in range(2):
                for j in range(2):
                    assert de.eps[i][j] == -s0(de.delta[i][j])
    _report(6, "delta - eps = tau - taubar (A) and eps = -s0(delta) (B/C)", t0)


def test_acceptance_07_odd_dimension_exclusion():
    t0 = time.time()
    rng = random.Random(404)
    corpus = []
    for case in ("B", "C"):
        field = cmfield.classify(_FIELDS[case])
        for n in (1, 3, 5):
            zero = [[0] * n for _ in range(n)]
            corpus.append((field, n, [zero] * 4))
            rand = [
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                for _ in range(4)
            ]
            corpus.append((field, n, rand))
    for field, n, Bs in corpus:
        pm = tausplit.period_matrix(field, *Bs)
        try:
            tausplit.split(pm)
            raise AssertionError(f"odd n = {n} was not rejected")
        except OddDimension as exc:
            assert exc.condition == "odd-dimension-exclusion"
    _report(7, f"odd-dimension exclusion on all {len(corpus)} odd inputs", t0)


def test_acceptance_08_level_hodge_numbers():
    t0 = time.time()
    rng = random.Random(88)
    fA = cmfield.classify(_FIELDS["A"])
    for n, p in ((2, 1), (3, 1), (3, 2)):
        pm = random_period_matrix(fA, n, rng, p_split=p)
        cert, _ = tausplit.split(pm)
        level = cert.level
        expect = {(n, 0): 1, (0, n): 1}
        for key in ((p, n - p), (n - p, p)):
            expect[key] = expect.get(key, 0) + 1
        assert level.hodge_numbers == expect
    for case in ("B", "C"):
        field = cmfield.classify(_FIELDS[case])
        for n in (2, 4):
            pm = random_period_matrix(field, n, rng)
            cert, _ = tausplit.split(pm)
            level = cert.level
            r = n // 2
            assert level.hodge_numbers == {(n, 0): 1, (0, n): 1, (r, r): 2}
    _report(8, "level Hodge numbers match the two quartic shapes", t0)


def test_acceptance_09_k3t2_both_situations():
    t0 = time.time()
    e = hodge.elliptic_structure()
    cases = []

    # disjoint situation across all four transcendental shapes
    for params in _FIELDS.values():
        ct = cmfield.dodson_type(cmfield.classify(params))
        ts = hodge.k3_structure(ct.group)
        cases.append((ts, "disjoint", None, 2 * len(ts.slots)))

    # contained situation: quadratic and biquadratic transcendental data
    ts_q = hodge.k3_structure(dodson.universe(1).elements)
    ident_idx = e.group.index(tuple(e.slots))
    chi_q = [ident_idx if g == tuple(ts_q.slots) else 1 - ident_idx
             for g in ts_q.group]
    cases.append((ts_q, "contained", chi_q, len(ts_q.slots)))

    ct_a = cmfield.dodson_type(cmfield.classify(_FIELDS["A"]))
    ts_a = hodge.k3_structure(ct_a.group)
    top = ts_a.slots_with_label((2, 0))[0]
    found = None
    for bits in itertools.product((0, 1), repeat=len(ts_a.group)):
        chi = [ident_idx if b == 0 else 1 - ident_idx for b in bits]
        try:
            hodge.k3t2_analyze(ts_a, e, "contained", chi)
            found = chi
            break
        except Exception:
            continue
    assert found is not None
    cases.append((ts_a, "contained", found, len(ts_a.slots)))

    for ts, situation, chi, expect_dim in cases:
        t_case = time.time()
        rep = hodge.k3t2_analyze(ts, e, situation, chi)
        assert rep.level_dim == expect_dim
        assert rep.tau_orbit_size == 2
        assert rep.strong_cm_verdict
        assert time.time() - t_case < 1
    _report(9, f"K3xT2 verdicts over {len(cases)} cases, both situations", t0)


def test_acceptance_10_weil_griffiths():
    t0 = time.time()
    from weakcm.presets import weight1_presets

    cm_structures = []
    for pr in weight1_presets():
        cm_structures.append(hodge.cy3_structure(pr.cm_type.group))
    for case in ("B", "C"):
        ct = cmfield.dodson_type(cmfield.classify(_FIELDS[case]))
        cm_structures.append(hodge.cy3_structure(ct.group))
    for h in cm_structures:
        pair = hodge.weil_griffiths(h)
        assert pair.weil_cm and pair.griffiths_cm and pair.common_algebra_ok

    base = cm_structures[0]
    spreads = {g: base.spread(g) for g in base.group}
    some = next(g for g in base.group if g != tuple(base.slots))
    spreads[some] = frozenset({base.top_slot(), (1, 0)})
    synthetic = hodge.CMHodgeStructure(
        3, base.slots, base.labels, base.rho, list(base.group),
        top_spreads=spreads,
    )
    pair = hodge.weil_griffiths(synthetic)
    assert not (pair.weil_cm and pair.griffiths_cm and pair.common_algebra_ok)
    _report(10, f"Weil/Griffiths on {len(cm_structures)} CM + 1 synthetic", t0)


def test_acceptance_11_triple_roundtrip_exhaustive():
    t0 = time.time()
    total = 0
    for N in (2, 3):
        for G in dodson.enumerate_admissible(N):
            triple = dodson.triple_from_group(G)
            assert dodson.group_from_triple(triple) == G
            total += 1
    assert total == 3 + 10
    _report(11, f"triple round-trip on all {total} admissible subgroups", t0,
            limit=10)
