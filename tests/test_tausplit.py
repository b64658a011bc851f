"""Period-matrix validation and certified splitting."""

import copy
import itertools
import random
from fractions import Fraction

import pytest

from util import (
    apply_galois,
    coframe_by_products,
    mat_sub,
    random_period_matrix,
    rank_by_minors,
    solve_left,
)
from weakcm import cmfield, linalg, tausplit
from weakcm.errors import (
    MathError,
    NotFullSpan,
    OddDimension,
    ProperSubfield,
    SingularTauBar,
    TowerMismatch,
)

Z2 = [[0, 0], [0, 0]]


def f_deg2(p=-1):
    return cmfield.classify({"p": p})


def f_A():
    return cmfield.classify({"p1": -1, "p2": -3})


def f_B():
    return cmfield.classify({"d": 5, "p": Fraction(-5, 2), "q": Fraction(-1, 2)})


def f_C():
    return cmfield.classify({"d": 2, "p": -3, "q": 1})


# ---------------------------------------------------------------- validation


def test_period_matrix_checks_its_shape_when_built():
    with pytest.raises(TowerMismatch, match="case deg2 needs 2 B-matrices"):
        tausplit.period_matrix(f_deg2(), Z2)
    with pytest.raises(TowerMismatch, match="case A needs 4 B-matrices"):
        tausplit.period_matrix(f_A(), Z2, Z2)
    with pytest.raises(TowerMismatch, match="B matrices must be n x n"):
        tausplit.period_matrix(f_deg2(), Z2, [[1, 0]])
    # tau is assembled once; each call hands out its own rows
    pm = tausplit.period_matrix(f_deg2(), Z2, [[1, 0], [0, 1]])
    tau = pm.tau()
    tau[0][0] = tau[0][1]
    assert pm.tau() != tau and pm.tau()[0][0] == pm.field.tower.gen("sqrt(p)")


def test_validate_deg2_identity_times_sqrt_p():
    pm = tausplit.period_matrix(f_deg2(), Z2, [[1, 0], [0, 1]])
    de = tausplit.validate_weak_cm(pm)
    assert (de.rank_delta, de.rank_eps, de.rank_joint) == (2, 0, 2)
    # det(tau - taubar) = det(2 sqrt(p) I) = 4p != 0
    tau = pm.tau()
    t = pm.field.tower
    diff = [[a - t.conjugation(a) for a in row] for row in tau]
    from weakcm import linalg

    assert linalg.mat_det(diff, t.one()) == t.rational(-4)


def test_validate_case_a_diagonal():
    field = f_A()
    pm = tausplit.period_matrix(field, Z2, [[1, 0], [0, 0]], [[0, 0], [0, 1]], Z2)
    de = tausplit.validate_weak_cm(pm)
    assert (de.rank_delta, de.rank_eps, de.rank_joint, de.p_split) == (1, 1, 2, 1)
    t = field.tower
    sp1, sp2 = t.gen("sqrt(p1)"), t.gen("sqrt(p2)")
    assert de.delta == [[sp1 * 2, t.zero()], [t.zero(), t.zero()]]
    assert de.eps == [[t.zero(), t.zero()], [t.zero(), sp2 * (-2)]]


def test_validate_proper_subfield_b3_b4_zero():
    pm = tausplit.period_matrix(f_A(), Z2, [[1, 0], [0, 1]], Z2, Z2)
    with pytest.raises(ProperSubfield) as err:
        tausplit.validate_weak_cm(pm)
    assert err.value.subfield_dim == 2


def test_validate_eps_rank_zero_is_proper_subfield():
    # rank(delta) = 2, rank(eps) = 0 forces tau - tau^{s2} = 0
    pm = tausplit.period_matrix(f_A(), Z2, [[1, 1], [1, 2]], Z2, Z2)
    with pytest.raises(ProperSubfield):
        tausplit.validate_weak_cm(pm)


def test_validate_singular_tau_bar():
    pm = tausplit.period_matrix(f_deg2(), Z2, [[1, 1], [1, 1]])
    with pytest.raises(SingularTauBar):
        tausplit.validate_weak_cm(pm)


@pytest.mark.parametrize("field_of", [f_A, f_B, f_C])
def test_validate_singular_tau_bar_in_every_case(field_of):
    # tau with two equal rows whose entries generate the field: tau - taubar
    # has two equal rows, so validation stops at the nondegeneracy check
    field = field_of()
    t = field.tower
    rows = [[1, 0], [1, 0]], [[0, 1], [0, 1]], [[1, 1], [1, 1]]
    pm = tausplit.period_matrix(field, Z2, *rows)
    entries = [x for row in pm.tau() for x in row]
    assert len(linalg.generated_subalgebra(t, entries)) == field.degree
    with pytest.raises(SingularTauBar) as err:
        tausplit.validate_weak_cm(pm)
    assert err.value.condition == "period-matrix:singular-tau-bar"
    assert str(err.value) == "det(tau - taubar) = 0"


def test_validate_rational_tau_is_proper_subfield():
    pm = tausplit.period_matrix(f_deg2(), [[1, 0], [0, 1]], Z2)
    with pytest.raises(ProperSubfield) as err:
        tausplit.validate_weak_cm(pm)
    assert err.value.subfield_dim == 1


def test_validate_overlap_rejected():
    # generic full-rank delta and eps overlap: not weak CM
    field = f_A()
    pm = tausplit.period_matrix(
        field,
        Z2,
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[1, 1], [0, 1]],
    )
    with pytest.raises((NotFullSpan, ProperSubfield)):
        tausplit.validate_weak_cm(pm)


def test_validate_odd_n_cases_bc():
    Z3 = [[0] * 3 for _ in range(3)]
    for field in (f_B(), f_C()):
        pm = tausplit.period_matrix(field, Z3, Z3, Z3, Z3)
        with pytest.raises(OddDimension):
            tausplit.validate_weak_cm(pm)
        with pytest.raises(OddDimension):
            tausplit.split(pm)


def test_structural_identities_on_random_inputs():
    rng = random.Random(23)
    field = f_A()
    for _ in range(5):
        pm = random_period_matrix(field, 2, rng)
        de = tausplit.validate_weak_cm(pm)
        t = field.tower
        tau = pm.tau()
        taubar = [[t.conjugation(x) for x in row] for row in tau]
        for i in range(2):
            for j in range(2):
                assert de.delta[i][j] - de.eps[i][j] == tau[i][j] - taubar[i][j]
    for field in (f_B(), f_C()):
        pm = random_period_matrix(field, 2, rng)
        de = tausplit.validate_weak_cm(pm)
        s0 = field.tower.generators["s0"]
        for i in range(2):
            for j in range(2):
                assert de.eps[i][j] == -s0(de.delta[i][j])


def test_rank_matches_minor_oracle():
    rng = random.Random(31)
    field = f_A()
    pm = random_period_matrix(field, 3, rng, p_split=1)
    de = tausplit.validate_weak_cm(pm)
    t = field.tower
    assert rank_by_minors(de.delta, t) == de.rank_delta
    assert rank_by_minors(de.eps, t) == de.rank_eps


def test_rank_eps_is_rank_delta_in_cases_b_c():
    # validation reads rank(eps) off rank(delta), since eps = -s0(delta);
    # checked against the elimination on seeded corpus matrices and on
    # rejects whose ranks the NotFullSpan message reports
    rng = random.Random(37)
    for field in (f_B(), f_C()):
        for n in (2, 4):
            for _ in range(3):
                de = tausplit.validate_weak_cm(random_period_matrix(field, n, rng))
                assert (de.rank_eps == len(linalg.pivot_columns(de.eps))
                        == de.rank_delta == n // 2)
        t = field.tower
        s0 = t.generators["s0"]
        I2 = [[1, 0], [0, 1]]
        for Bs in ((Z2, Z2, I2, Z2), (Z2, I2, I2, [[0, 1], [1, 0]])):
            pm = tausplit.period_matrix(field, *Bs)
            tau = pm.tau()
            delta = [[x - s0(x) for x in row] for row in tau]
            eps = [[-s0(x) for x in row] for row in delta]
            with pytest.raises(NotFullSpan) as info:
                tausplit.validate_weak_cm(pm)
            assert (f"rank(delta) = {len(linalg.pivot_columns(delta))}, "
                    f"rank(eps) = {len(linalg.pivot_columns(eps))}") in str(info.value)


def _oracle_fields():
    # the four corpus fields, plus a closure and a quadratic field whose
    # structure constants are not integers
    return [f_deg2(), f_A(), f_B(), f_C(),
            cmfield.classify({"d": 2, "p": Fraction(-5, 3), "q": Fraction(1, 2)}),
            f_deg2(Fraction(-7, 12))]


def _shapes(field):
    return (2, 4) if field.case in ("B", "C") else (2, 3)


@pytest.mark.parametrize("k", range(6))
def test_tau_assembly_matches_the_element_oracle(k):
    # tau's entries are assembled from the B entries' numerators; the
    # oracle builds each entry from its Fraction coefficients
    field = _oracle_fields()[k]
    t = field.tower
    pos = [t.basis.index(lbl) for lbl in field.phi_basis]
    rng = random.Random(80 + k)
    pms = [random_period_matrix(field, n, rng) for n in _shapes(field)]
    big = [[[Fraction(rng.randint(-10 ** 20, 10 ** 20), rng.randint(1, 10 ** 12))
             if rng.random() < 0.7 else rng.randint(-3, 3) for _ in range(3)]
            for _ in range(3)] for _ in field.phi_basis]
    pms.append(tausplit.period_matrix(field, *big))
    for pm in pms:
        for i, row in enumerate(pm.tau()):
            for j, x in enumerate(row):
                coeffs = [0] * t.dim
                for M, q in zip(pm.B, pos):
                    coeffs[q] = M[i][j]
                want = t.element(coeffs)
                assert (x.num, x.den) == (want.num, want.den)


@pytest.mark.parametrize("k", range(6))
def test_difference_matrices_match_the_galois_oracles(k):
    # each difference matrix is one integer map on tau's numerators; the
    # oracle applies the Galois elements entrywise and subtracts
    field = _oracle_fields()[k]
    t = field.tower
    rng = random.Random(90 + k)
    for n in _shapes(field):
        pm = random_period_matrix(field, n, rng)
        de = tausplit.validate_weak_cm(pm)
        tau = pm.tau()
        taubar = apply_galois(t.conjugation, tau)
        assert tausplit._difference(t, "1", "rho", tau) == mat_sub(tau, taubar)
        if field.case == "deg2":
            assert de.delta == mat_sub(tau, taubar)
            continue
        g = t.generators["s1" if field.case == "A" else "s0"]
        tau_g = apply_galois(g, tau)
        assert de.delta == mat_sub(tau, tau_g)
        if field.case == "A":
            assert de.eps == mat_sub(taubar, tau_g)
        else:
            assert de.eps == mat_sub(apply_galois(g, tau_g), tau_g)
    # one map per tower and pair, kept
    assert tausplit._difference_map(t, "1", "rho") is tausplit._difference_map(t, "1", "rho")


# ---------------------------------------------------------------- subfield from B


def _closure_dim(pm):
    """The oracle: close the span of the entries under products."""
    entries = [x for row in pm.tau() for x in row]
    return len(linalg.generated_subalgebra(pm.field.tower, entries))


def _subfield_cases():
    """Seeded corpus matrices, proper-subfield rejects, and matrices whose
    entries span less than K but generate all of it."""
    rng = random.Random(2024)
    out = []
    for field, shapes in ((f_deg2(), (2, 3)), (f_A(), (2, 3)), (f_B(), (2, 4)),
                          (f_C(), (2, 4))):
        for n in shapes:
            for _ in range(4):
                out.append(("corpus", random_period_matrix(field, n, rng)))
    I2 = [[1, 0], [0, 1]]
    out += [
        ("reject", tausplit.period_matrix(f_A(), Z2, I2, Z2, Z2)),
        ("reject", tausplit.period_matrix(f_A(), [[1, 1], [1, 2]], Z2, Z2, [[0, 3], [1, 0]])),
        ("reject", tausplit.period_matrix(f_deg2(), I2, Z2)),
        ("reject", tausplit.period_matrix(f_B(), [[2, 1], [0, 1]], I2, Z2, Z2)),
        ("reject", tausplit.period_matrix(f_C(), Z2, [[1, 2], [3, 4]], Z2, Z2)),
        ("reject", tausplit.period_matrix(f_C(), I2, Z2, Z2, Z2)),
        # sqrt(p1) + sqrt(p2) and xi+ + sqrt(d)*xi+ each generate all of K
        ("closure", tausplit.period_matrix(f_A(), Z2, I2, I2, Z2)),
        ("closure", tausplit.period_matrix(f_B(), Z2, Z2, I2, I2)),
        ("closure", tausplit.period_matrix(f_C(), Z2, Z2, [[1, 2], [0, 1]], [[1, 2], [0, 1]])),
    ]
    return out


def test_subfield_from_b_agrees_with_generated_subalgebra():
    fast = 0
    for kind, pm in _subfield_cases():
        want = 2 if pm.field.case == "deg2" else 4
        oracle = _closure_dim(pm)
        dim, basis = tausplit._generated_field(pm, pm.tau())
        assert dim == oracle, (kind, pm)
        fast += basis is None
        assert (basis is None) == (kind == "corpus"), (kind, pm)
        # the verdict and field_dimension that validate_weak_cm reports
        try:
            reported = tausplit.validate_weak_cm(pm).subfield_dim
        except ProperSubfield as exc:
            reported = exc.subfield_dim
            assert oracle < want
        except (NotFullSpan, SingularTauBar):
            reported = oracle  # failed a later check: the subfield one passed
            assert oracle == want
        assert reported == oracle, (kind, pm)
    assert fast == 32


# ---------------------------------------------------------------- renaming


def _renaming_by_subset_search(delta, r):
    """The C(n, n/2) search the greedy pass replaced: the lexicographically
    first r-subset of independent delta rows goes to the bottom."""
    n = len(delta)
    for subset in itertools.combinations(range(n), r):
        if len(linalg.pivot_columns([delta[i] for i in subset])) == r:
            return tuple(i for i in range(n) if i not in subset) + subset
    return None


def _low_rank_delta(rng, t, n, r):
    """X Y for a rational n x r X whose rows are often zero or repeat an
    earlier row up to a factor, and a random r x n Y over the tower."""
    X = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 2 and X:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            X.append([c * x for x in rng.choice(X)])
        elif kind == 1:
            X.append([Fraction(0)] * r)
        else:
            X.append([Fraction(rng.randint(-3, 3)) for _ in range(r)])
    Y = [[t.element([rng.randint(-3, 3) for _ in range(t.dim)]) for _ in range(n)]
         for _ in range(r)]
    return linalg.mat_mul(X, Y)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_greedy_renaming_matches_subset_search(n):
    rng = random.Random(600 + n)
    r = n // 2
    found = failed = 0
    for field in (f_B(), f_C()):
        deltas = [tausplit.validate_weak_cm(random_period_matrix(field, n, rng)).delta
                  for _ in range(2)]
        deltas += [_low_rank_delta(rng, field.tower, n, r) for _ in range(12)]
        for delta in deltas:
            expected = _renaming_by_subset_search(delta, r)
            relations = linalg.column_relations(linalg.transpose(delta))
            if expected is None:
                # fewer than n/2 independent rows, which validation rejects
                failed += 1
                assert len(relations[0]) < r
                continue
            found += 1
            renaming, c1, c2, M = tausplit._choose_renaming(field.case, r, relations, ())
            assert renaming == expected and c1 is None and c2 is None
            delta = [delta[i] for i in renaming]
            assert M == solve_left(delta[r:], delta[:r])
    assert found >= 8 and (failed >= 1 or n == 2)


def _case_a_renaming_by_rank_search(delta, eps, k):
    """The case A search that ranked every index subset: the first k-subset
    of independent delta rows whose complement holds independent eps
    rows."""
    n = len(delta)
    for subset in itertools.combinations(range(n), k):
        comp = tuple(i for i in range(n) if i not in subset)
        if (len(linalg.pivot_columns([delta[i] for i in subset])) == k
                and len(linalg.pivot_columns([eps[i] for i in comp])) == n - k):
            return subset + comp
    return None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_case_a_renaming_matches_rank_search(n):
    # low-rank delta and eps whose leading rows are often dependent, so the
    # search has to pass over subsets; c1 and c2 against solve_left
    rng = random.Random(700 + n)
    t = f_A().tower
    found = failed = searched = 0
    for _ in range(100):
        k = rng.randint(1, n - 1)
        delta = _low_rank_delta(rng, t, n, k)
        if len(linalg.pivot_columns(delta)) != k:
            continue
        eps = _low_rank_delta(rng, t, n, n - k)
        expected = _case_a_renaming_by_rank_search(delta, eps, k)
        rel_d = linalg.column_relations(linalg.transpose(delta))
        rel_e = linalg.column_relations(linalg.transpose(eps))
        if expected is None:
            failed += 1
            with pytest.raises(MathError):
                tausplit._choose_renaming("A", n - k, rel_d, rel_e)
            continue
        found += 1
        renaming, c1, c2, M = tausplit._choose_renaming("A", n - k, rel_d, rel_e)
        assert renaming == expected and M is None
        searched += renaming[:k] != tuple(rel_d[0])
        delta = [delta[i] for i in renaming]
        eps = [eps[i] for i in renaming]
        assert c1 == solve_left(eps[k:], [[-x for x in row] for row in eps[:k]])
        assert c2 == solve_left(delta[:k], [[-x for x in row] for row in delta[k:]])
    assert found >= 8 and failed >= 1 and searched >= 3


@pytest.mark.parametrize("field_of", [f_deg2, f_A, f_B, f_C])
def test_ranks_and_relations_match_full_matrix_oracles(field_of):
    # validation ranks delta and eps by their basis rows, and the split
    # reads c1/c2 or M off the same passes; against the ranks of the whole
    # matrices and their stack, and against solve_left on the renamed rows
    field = field_of()
    rng = random.Random(800 + len(field.case))
    for n in (2, 3, 4):
        if n % 2 and field.case in ("B", "C"):
            continue
        for p_split in (range(1, n) if field.case == "A" else (None,)):
            pm = random_period_matrix(field, n, rng, p_split)
            de = tausplit.validate_weak_cm(pm)
            assert (de.rank_delta, de.rank_eps, de.rank_joint) == (
                len(linalg.pivot_columns(de.delta)),
                len(linalg.pivot_columns(de.eps)),
                len(linalg.pivot_columns(de.delta + de.eps)))
            cert, _ = tausplit.split(pm)
            delta = [de.delta[i] for i in cert.renaming]
            eps = [de.eps[i] for i in cert.renaming]
            if field.case == "A":
                k = n - p_split
                assert cert.block_sizes == (k, p_split)
                assert cert.c1 == solve_left(eps[k:], [[-x for x in row] for row in eps[:k]])
                assert cert.c2 == solve_left(delta[:k],
                                             [[-x for x in row] for row in delta[k:]])
            elif field.case != "deg2":
                r = n // 2
                assert cert.M == solve_left(delta[r:], delta[:r])


@pytest.mark.parametrize("field_of, n", [(f_A, 3), (f_B, 4), (f_C, 4)])
def test_split_eliminates_each_difference_matrix_once(field_of, n, monkeypatch):
    # cases B/C: one pass over transpose(delta); the tower ranks are those
    # of tau - taubar and then the joint one, each on n rows; case A: two
    # passes in validation, and no tower solve.  The rational S solve
    # reaches column_relations too, so only tower matrices are counted
    field = field_of()
    pm = random_period_matrix(field, n, random.Random(900 + n))
    de = tausplit.validate_weak_cm(pm)
    calls = []
    for name in ("column_relations", "row_rank", "solve_columns"):
        def wrapped(*args, _real=getattr(linalg, name), _name=name):
            calls.append((_name, args))
            return _real(*args)
        monkeypatch.setattr(linalg, name, wrapped)
    cert, verified = tausplit.split(pm)
    assert verified.ok
    relations = [args[0] for name, args in calls  # the tower eliminations
                 if name == "column_relations"
                 and not isinstance(args[0][0][0], (int, Fraction))]
    ranks = [args[0] for name, args in calls  # the tower ranks
             if name == "row_rank" and not isinstance(args[0][0][0], (int, Fraction))]
    assert [len(rows) for rows in ranks] == [n, n]
    assert all(isinstance(x, (int, Fraction))
               for name, args in calls if name == "solve_columns"
               for matrix in args for row in matrix for x in row)
    if field.case == "A":
        assert relations[:2] == [linalg.transpose(de.delta), linalg.transpose(de.eps)]
        assert all(len(rows) < n for rows in relations[2:])  # the relation matrices
    else:
        assert relations == [linalg.transpose(de.delta)]


@pytest.mark.parametrize("row", [1, -1])
@pytest.mark.parametrize("field_of, n", [(f_deg2, 3), (f_A, 3), (f_B, 4), (f_C, 4)])
def test_split_rejects_a_singular_coordinate_change(field_of, n, row, monkeypatch):
    # split checks C only through its one verify_certificate call (or while
    # realifying the coframe): a C with row 0 repeated must not pass.  In
    # cases B/C the last row is a bottom row, which only verify reads
    pm = random_period_matrix(field_of(), n, random.Random(70 + n))
    real = tausplit.coordinate_change

    def singular(*args, **kwargs):
        C = real(*args, **kwargs)
        C[row] = C[0]
        return C

    monkeypatch.setattr(tausplit, "coordinate_change", singular)
    with pytest.raises(MathError):
        tausplit.split(pm)


# ---------------------------------------------------------------- splitting


def test_split_deg2_shioda_mitani_shape():
    # tau = sqrt(p) I: isogenous to E x E with CM by Q(sqrt(-1))
    pm = tausplit.period_matrix(f_deg2(), Z2, [[1, 0], [0, 1]])
    cert, _ = tausplit.split(pm)
    level = cert.level
    assert cert.factors[0].kind == "elliptic"
    assert cert.factors[0].cm_field == "Q(sqrt(-1))"
    assert cert.factors[0].multiplicity == 2
    assert tausplit.verify_certificate(pm, cert).ok
    assert level.hodge_numbers == {(2, 0): 1, (0, 2): 1}


def test_split_deg2_row_reduction_example():
    pm = tausplit.period_matrix(f_deg2(), Z2, [[1, 1], [1, 2]])
    cert, _ = tausplit.split(pm)
    assert tausplit.verify_certificate(pm, cert).ok


def test_split_deg2_n3_diag():
    B1 = [[2, -1, 0], [0, 1, 5], [1, 1, 1]]
    B2 = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    pm = tausplit.period_matrix(f_deg2(-7), B1, B2)
    cert, _ = tausplit.split(pm)
    assert cert.factors[0].multiplicity == 3
    assert cert.factors[0].cm_field == "Q(sqrt(-7))"
    assert tausplit.verify_certificate(pm, cert).ok


def test_split_case_a_diagonal():
    field = f_A()
    pm = tausplit.period_matrix(field, Z2, [[1, 0], [0, 0]], [[0, 0], [0, 1]], Z2)
    cert, _ = tausplit.split(pm)
    level = cert.level
    kinds = [(f.cm_field, f.multiplicity) for f in cert.factors]
    assert kinds == [("Q(sqrt(-1))", 1), ("Q(sqrt(-3))", 1)]
    assert level.hodge_numbers == {(2, 0): 1, (0, 2): 1, (1, 1): 2}
    assert level.p_split == 1
    assert tausplit.verify_certificate(pm, cert).ok


def test_split_case_a_n3():
    rng = random.Random(17)
    field = f_A()
    pm = random_period_matrix(field, 3, rng, p_split=1)
    de = tausplit.validate_weak_cm(pm)
    assert {de.rank_delta, de.rank_eps} == {1, 2}
    cert, _ = tausplit.split(pm)
    level = cert.level
    mult = {f.cm_field: f.multiplicity for f in cert.factors}
    assert mult == {"Q(sqrt(-1))": 2, "Q(sqrt(-3))": 1}
    assert tausplit.verify_certificate(pm, cert).ok
    assert level.hodge_numbers == {(3, 0): 1, (0, 3): 1, (1, 2): 1, (2, 1): 1}


def test_split_case_b_n2():
    rng = random.Random(5)
    field = f_B()
    pm = random_period_matrix(field, 2, rng)
    cert, _ = tausplit.split(pm)
    level = cert.level
    assert len(cert.factors) == 1
    assert cert.factors[0].kind == "abelian-surface"
    assert cert.factors[0].multiplicity == 1
    assert level.hodge_numbers == {(2, 0): 1, (0, 2): 1, (1, 1): 2}
    assert tausplit.verify_certificate(pm, cert).ok


def test_split_case_c_n4_block_diagonal():
    rng = random.Random(9)
    field = f_C()
    pm2 = random_period_matrix(field, 2, rng)
    n = 4
    Bs = []
    for M in pm2.B:
        big = [[Fraction(0)] * n for _ in range(n)]
        for i in range(2):
            for j in range(2):
                big[i][j] = M[i][j]
                big[2 + i][2 + j] = M[i][j]
        Bs.append(big)
    pm4 = tausplit.period_matrix(field, *Bs)
    cert, _ = tausplit.split(pm4)
    level = cert.level
    assert cert.factors[0].multiplicity == 2
    assert level.hodge_numbers == {(4, 0): 1, (0, 4): 1, (2, 2): 2}
    assert tausplit.verify_certificate(pm4, cert).ok


def test_factor_dimensions_sum_to_n():
    rng = random.Random(77)
    for field, n, kwargs in (
        (f_deg2(-2), 3, {}),
        (f_A(), 2, {}),
        (f_B(), 2, {}),
        (f_C(), 2, {}),
    ):
        pm = random_period_matrix(field, n, rng, **kwargs)
        cert, _ = tausplit.split(pm)
        level = cert.level
        total = sum(
            (1 if f.kind == "elliptic" else 2) * f.multiplicity
            for f in cert.factors
        )
        assert total == n
        # level-n dimension is the reflex degree: 2 for deg2, 4 for quartics
        expect_dim = 2 if field.case == "deg2" else 4
        assert sum(level.hodge_numbers.values()) == expect_dim


def test_standard_forms_match_canonical():
    rng = random.Random(40)
    for field, n in ((f_deg2(-1), 2), (f_A(), 2), (f_B(), 2), (f_C(), 2)):
        pm = random_period_matrix(field, n, rng)
        cert, _ = tausplit.split(pm)
        p_split = cert.level.p_split
        assert cert.standard_form == tausplit.standard_form(field, n, p_split)


@pytest.mark.parametrize("field", [f_B, f_C])
def test_s0_cubed_composed_once_per_tower(field):
    t = field().tower
    s0 = t.generators["s0"]
    s03 = tausplit._s0_cubed(t)
    assert tausplit._s0_cubed(t) is s03
    assert s03.images == s0.compose(s0).compose(s0).images


@pytest.mark.parametrize("field_of, n, p_split", [(f_A, 3, 1), (f_C, 4, 2)])
def test_standard_form_built_once_per_tower_and_shape(field_of, n, p_split,
                                                      monkeypatch):
    # split and verify share one build per (tower, n, p); callers get their
    # own rows, so editing them reaches neither the next split nor verify
    field = field_of()
    rng = random.Random(60 + n)
    pm1 = random_period_matrix(field, n, rng, p_split)
    pm2 = random_period_matrix(field, n, rng, p_split)
    builds = []
    real = tausplit._build_standard_form

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(tausplit, "_build_standard_form", counting)
    monkeypatch.setattr(field.tower, "_kept", {})
    cert1, _ = tausplit.split(pm1)
    cert2, verified = tausplit.split(pm2)
    assert verified.ok and builds == [(field, n, p_split)]

    canonical = tausplit.standard_form(field, n, p_split)
    assert cert1.standard_form == cert2.standard_form == canonical
    cert1.standard_form[0][0] = cert1.standard_form[1][1]
    edited = tausplit.standard_form(field, n, p_split)
    edited[1] = edited[0]
    edited[0][1] = edited[0][0]
    assert tausplit.split(pm2) == (cert2, verified)
    assert tausplit.verify_certificate(pm2, cert2) == verified
    assert tausplit.standard_form(field, n, p_split) == canonical
    assert len(builds) == 1


def test_determinism():
    rng1, rng2 = random.Random(99), random.Random(99)
    field = f_B()
    pm1 = random_period_matrix(field, 2, rng1)
    pm2 = random_period_matrix(field, 2, rng2)
    c1, _ = tausplit.split(pm1)
    c2, _ = tausplit.split(pm2)
    assert c1.S == c2.S and c1.renaming == c2.renaming
    assert c1.M == c2.M


# ---------------------------------------------------------------- verification


def test_verify_rejects_perturbed_s():
    pm = tausplit.period_matrix(f_deg2(), Z2, [[1, 0], [0, 1]])
    cert, _ = tausplit.split(pm)
    bad = copy.deepcopy(cert)
    bad.S[0][0] += 1
    res = tausplit.verify_certificate(pm, bad)
    assert not res.ok and res.diagnostic


def test_verify_rejects_singular_p():
    pm = tausplit.period_matrix(f_deg2(), Z2, [[1, 0], [0, 1]])
    cert, _ = tausplit.split(pm)
    t = pm.field.tower
    bad = cert._replace(P=[[t.zero(), t.zero()], [t.zero(), t.zero()]])
    res = tausplit.verify_certificate(pm, bad)
    assert not res.ok and "P" in res.diagnostic


def test_verify_rejects_bad_renaming():
    pm = tausplit.period_matrix(f_deg2(), Z2, [[1, 0], [0, 1]])
    cert, _ = tausplit.split(pm)
    bad = cert._replace(renaming=(0, 0))
    assert not tausplit.verify_certificate(pm, bad).ok


def _reshaped(S, how):
    S = [list(row) for row in S]
    if how == "extra column":
        return [row + [0] for row in S]
    if how == "extra row":
        return S + [[0] * len(S[0])]
    if how == "dropped row":
        return S[:-1]
    return [row[:-1] for row in S]


@pytest.mark.parametrize("how, shape", [
    ("extra column", "4 x 5"), ("extra row", "5 x 4"),
    ("dropped row", "3 x 4"), ("dropped column", "4 x 3"),
])
def test_verify_rejects_a_mis_shaped_s(how, shape):
    # an extra column passed: mat_det took the non-square S, and the zip
    # over the coframe product truncated the extra entries
    pm = random_period_matrix(f_A(), 2, random.Random(7))
    cert, _ = tausplit.split(pm)
    res = tausplit.verify_certificate(pm, cert._replace(S=_reshaped(cert.S, how)))
    assert not res.ok and res.diagnostic == f"S is {shape}, not 4 x 4"


def test_verify_rejects_forged_factors_and_level_numbers():
    pm = random_period_matrix(f_A(), 3, random.Random(8))
    cert, _ = tausplit.split(pm)
    first = cert.factors[0]
    forged = (first._replace(multiplicity=first.multiplicity + 1),) + cert.factors[1:]
    res = tausplit.verify_certificate(pm, cert._replace(factors=forged))
    assert not res.ok and "factors" in res.diagnostic
    numbers = dict(cert.level.hodge_numbers)
    numbers[(3, 0)] += 1
    res = tausplit.verify_certificate(
        pm, cert._replace(level=cert.level._replace(hodge_numbers=numbers)))
    assert not res.ok and "level numbers" in res.diagnostic


@pytest.mark.parametrize("field_of, n", [(f_deg2, 2), (f_A, 3), (f_B, 4), (f_C, 4)])
def test_verify_rejects_forged_block_fields(field_of, n):
    pm = random_period_matrix(field_of(), n, random.Random(50 + n))
    cert, _ = tausplit.split(pm)
    forged = [list(labels) for labels in cert.block_fields]
    forged[-1][-1] = "sqrt(2)"
    forgeries = [forged, cert.block_fields[::-1]] if pm.field.case == "A" else [forged]
    for bad in forgeries:
        res = tausplit.verify_certificate(pm, cert._replace(block_fields=bad))
        assert not res.ok and res.diagnostic == "recorded block fields are not the split's"
    # the labels as lists, as a parsed document holds them, are the same
    listed = [list(labels) for labels in cert.block_fields]
    assert tausplit.verify_certificate(pm, cert._replace(block_fields=listed)).ok


@pytest.mark.parametrize("field_of, n", [(f_deg2, 2), (f_A, 3), (f_C, 4)])
def test_verify_rejects_a_singular_s(field_of, n):
    pm = random_period_matrix(field_of(), n, random.Random(70 + n))
    cert, _ = tausplit.split(pm)
    S = [list(row) for row in cert.S]
    S[-1] = [a - 2 * b for a, b in zip(S[0], S[1])]
    res = tausplit.verify_certificate(pm, cert._replace(S=S))
    assert not res.ok and res.diagnostic == "S is singular over Q"
    # singular modulo the residue prime only: the exact rank is full, so
    # the certificate fails at the standard form instead
    ell = linalg.RESIDUE_PRIMES[0]
    S = [list(row) for row in cert.S]
    S[-1] = [a + ell * b for a, b in zip(S[0], S[-1])]
    assert linalg._residue_rank(S) < 2 * n == len(linalg.pivot_columns(S))
    res = tausplit.verify_certificate(pm, cert._replace(S=S))
    assert not res.ok and res.diagnostic.startswith("standard form mismatch")


# one seeded period matrix per split class of the benchmark corpus
_SPLIT_CLASSES = [
    (f_deg2, 2), (f_deg2, 3), (f_deg2, 4), (f_A, 2), (f_A, 3),
    (f_B, 2), (f_B, 4), (f_C, 2), (f_C, 4),
]


def test_coframe_matches_product_oracle():
    rng = random.Random(2024)
    for field_of, n in _SPLIT_CLASSES:
        field = field_of()
        t = field.tower
        pm = random_period_matrix(field, n, rng)
        cert, _ = tausplit.split(pm)
        C = tausplit.coordinate_change(t, cert.case, n, cert.block_sizes,
                                       cert.c1, cert.c2, cert.M)
        tau = pm.tau()
        renamings = [cert.renaming, tuple(range(n))[::-1]]
        renamings += [tuple(rng.sample(range(n), n)) for _ in range(3)]
        for renaming in renamings:
            assert (tausplit._coframe(tau, C, renaming)
                    == coframe_by_products(t, tau, C, renaming))


def _single_mutations(cert, t):
    """(name, certificate) for each single mutation of a valid certificate:
    +1 on one entry of S, c1, c2 or M, one transposition of the renaming,
    P = 2 I, P a non-identity permutation matrix, block sizes that do not
    fit the case or record another split, and another case or n."""
    for attr in ("S", "c1", "c2", "M"):
        M = getattr(cert, attr)
        for i, row in enumerate(M or ()):
            for j in range(len(row)):
                bumped = [list(r) for r in M]
                bumped[i][j] = bumped[i][j] + 1
                yield f"{attr}[{i}][{j}] + 1", cert._replace(**{attr: bumped})
    for a, b in itertools.combinations(range(cert.n), 2):
        renaming = list(cert.renaming)
        renaming[a], renaming[b] = renaming[b], renaming[a]
        yield f"renaming ({a} {b})", cert._replace(renaming=tuple(renaming))
    size = sum(cert.block_sizes)
    two_i = linalg.identity_matrix(size, t.rational(2))
    yield "P = 2 I", cert._replace(P=two_i)
    one, zero = t.one(), t.zero()
    for perm in itertools.permutations(range(size)):
        if perm != tuple(range(size)):
            P = [[one if j == perm[i] else zero for j in range(size)] for i in range(size)]
            yield f"P = permutation {perm}", cert._replace(P=P)
    n = cert.n
    sizes = {(n + 1,), (n, 0), (0, n), (n - 1, 1, 0), (), (n // 2,), (n,),
             (1, n - 1), (n - 1, True)} - {tuple(cert.block_sizes)}
    for bad in sorted(sizes, key=repr):
        yield f"block_sizes {bad}", cert._replace(block_sizes=bad)
    yield "case", cert._replace(case="B" if cert.case != "B" else "C")
    yield "n + 1", cert._replace(n=n + 1)


@pytest.mark.parametrize("field_of, n", [(f_deg2, 3), (f_A, 3), (f_B, 4), (f_C, 4)])
def test_verify_rejects_every_single_mutation(field_of, n):
    field = field_of()
    t = field.tower
    pm = random_period_matrix(field, n, random.Random(31 + n))
    cert, verified = tausplit.split(pm)
    assert verified.ok
    names = []
    for name, bad in _single_mutations(cert, t):
        res = tausplit.verify_certificate(pm, bad)
        assert not res.ok and res.diagnostic, name
        names.append(name)
    # every kind of mutation was tried
    kinds = {name.split("[")[0].split(" ")[0] for name in names}
    recorded = {"deg2": set(), "A": {"c1", "c2"}, "B": {"M"}, "C": {"M"}}[field.case]
    assert kinds == {"S", "renaming", "P", "block_sizes", "case", "n"} | recorded
    assert any("permutation" in name for name in names)


@pytest.mark.parametrize("field_of, n", _SPLIT_CLASSES)
def test_verify_rejects_forged_standard_form(field_of, n):
    # any invertible S' with the recorded standard form set to coframe . S'
    # is consistent with itself, but not with the field's canonical form
    field = field_of()
    t = field.tower
    pm = random_period_matrix(field, n, random.Random(500 + 10 * n + len(field.case)))
    cert, verified = tausplit.split(pm)
    assert verified.ok
    forged_s = [list(row) for row in cert.S]
    for row in forged_s:  # add column 0 to column 1: still invertible
        row[1] += row[0]
    assert linalg.mat_det(forged_s, Fraction(1))
    C = tausplit.coordinate_change(t, cert.case, n, cert.block_sizes,
                                   cert.c1, cert.c2, cert.M)
    coframe = tausplit._coframe(pm.tau(), C, cert.renaming)
    forged = cert._replace(S=forged_s, standard_form=linalg.mat_mul(coframe, forged_s))
    res = tausplit.verify_certificate(pm, forged)
    assert not res.ok and "standard form mismatch" in res.diagnostic
    res = tausplit.verify_certificate(pm, cert._replace(standard_form=forged.standard_form))
    assert not res.ok and "not the canonical one" in res.diagnostic
