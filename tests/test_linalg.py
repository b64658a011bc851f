"""The integer kernel of ``linalg`` against the plain field-operation loops
it replaced: the per-term matrix product and the Gauss-Jordan inverse over
Q, kept here as oracles."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from test_tower import _assert_normal_form, _oracle_elements, _oracle_towers, all_towers
from util import _det_cofactor, echelon, rank_by_minors, solve_left
from weakcm import linalg, tower as tw
from weakcm.errors import DivisionByZero, SingularMatrix, TowerMismatch


# ---------------------------------------------------------------- oracles


def per_term_mat_mul(A, B):
    """Each entry as a running sum of single products."""
    out = []
    for row in A:
        new = []
        for j in range(len(B[0])):
            acc = row[0] * B[0][j]
            for k in range(1, len(B)):
                acc = acc + row[k] * B[k][j]
            new.append(acc)
        out.append(new)
    return out


def gauss_jordan_inverse(A):
    """Inverse of a rational matrix by Gauss-Jordan elimination over Q."""
    n = len(A)
    aug = [[Fraction(x) for x in A[i]] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrix("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def leibniz_det(A):
    n = len(A)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i, j in enumerate(perm):
            term *= A[i][j]
        total += term
    return total


# ---------------------------------------------------------------- inputs


def _rational(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-5, 5))
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))


def _with_zero_lines(rng, M, zero):
    """M with one row and one column cleared, when it has more than one."""
    if len(M) > 1:
        M[rng.randrange(len(M))] = [zero] * len(M[0])
    if len(M[0]) > 1:
        j = rng.randrange(len(M[0]))
        for row in M:
            row[j] = zero
    return M


def _tower_matrix(t, rng, rows, cols):
    pool = _oracle_elements(t, rng, 6)
    return [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]


def _rational_matrix(rng, rows, cols):
    return [[_rational(rng) for _ in range(cols)] for _ in range(rows)]


SHAPES = [(1, 1, 1), (2, 3, 2), (3, 3, 3), (4, 2, 5), (4, 8, 4)]


# ---------------------------------------------------------------- mat_mul


@pytest.mark.parametrize("t", _oracle_towers(), ids=lambda t: t.case)
def test_fused_mat_mul_over_towers_matches_per_term(t):
    rng = random.Random(61)
    for rows, inner, cols in SHAPES:
        for zero_lines in (False, True):
            A = _tower_matrix(t, rng, rows, inner)
            B = _tower_matrix(t, rng, inner, cols)
            if zero_lines:
                A = _with_zero_lines(rng, A, t.zero())
                B = _with_zero_lines(rng, B, t.zero())
            got = linalg.mat_mul(A, B)
            assert got == per_term_mat_mul(A, B)
            for row in got:
                for x in row:
                    assert x.num == t.element(x.coeffs).num
                    assert x.den == t.element(x.coeffs).den


@pytest.mark.parametrize("t", all_towers(), ids=lambda t: t.case)
def test_fused_mat_mul_identity_permutation_and_rational_factors(t):
    rng = random.Random(67)
    n = 4
    A = _tower_matrix(t, rng, n, n)
    perm = [2, 0, 3, 1]
    P = [[t.one() if j == perm[i] else t.zero() for j in range(n)] for i in range(n)]
    assert linalg.mat_mul(linalg.identity_matrix(n, t.one()), A) == A
    assert linalg.mat_mul(A, linalg.identity_matrix(n, t.one())) == A
    assert linalg.mat_mul(P, A) == [A[perm[i]] for i in range(n)]
    # rational entries on either side are taken as elements of the tower
    S = _rational_matrix(rng, n, n)
    S_t = [[t.rational(x) for x in row] for row in S]
    assert linalg.mat_mul(A, S) == linalg.mat_mul(A, S_t) == per_term_mat_mul(A, S_t)
    assert linalg.mat_mul(S, A) == per_term_mat_mul(S_t, A)


@pytest.mark.parametrize("t", _oracle_towers(), ids=lambda t: t.case)
def test_tower_times_rational_mat_mul_matches_per_term(t):
    # the rational right factor takes its own path: integer combinations
    # of the numerator vectors, no structure table
    rng = random.Random(73)
    for rows, inner, cols in SHAPES:
        for zero_lines in (False, True):
            A = _tower_matrix(t, rng, rows, inner)
            S = _rational_matrix(rng, inner, cols)
            if zero_lines:
                A = _with_zero_lines(rng, A, t.zero())
                S = _with_zero_lines(rng, S, Fraction(0))
            if rows * inner > 1:
                A[-1][-1] = Fraction(-2, 9)  # rationals in A are coerced
            S_t = [[t.rational(x) for x in row] for row in S]
            got = linalg.mat_mul(A, S)
            assert got == per_term_mat_mul(A, S_t)
            for row in got:
                for x in row:
                    _assert_normal_form(x)
    with pytest.raises(TowerMismatch):
        other = all_towers()[0] if t.dim != 2 else all_towers()[1]
        linalg.mat_mul([[t.one(), other.one()]], [[1], [2]])


def test_fused_mat_mul_rejects_mixed_towers():
    t1, t2 = all_towers()[:2]
    with pytest.raises(TowerMismatch):
        linalg.mat_mul([[t1.one()]], [[t2.one()]])


def test_eliminations_reject_mixed_towers_on_entry():
    # a one-row matrix has no row below its pivot, so nothing would meet the
    # other tower in the elimination itself; _working_rows checks every entry
    t1, t2 = tw.quadratic_tower(-1), tw.quadratic_tower(-3)
    for row in ([t1.radical("sp"), t2.radical("sp")], [1, t1.one(), t2.one()]):
        for solve in (linalg.row_rank, linalg.pivot_columns, linalg.column_relations,
                      linalg._residue_rank):
            with pytest.raises(TowerMismatch):
                solve([row])
    with pytest.raises(TowerMismatch):
        linalg.solve_columns([[t1.one()]], [[t2.one()]])


def test_fused_mat_mul_over_q_matches_per_term():
    rng = random.Random(71)
    for rows, inner, cols in SHAPES:
        for zero_lines in (False, True):
            A = _rational_matrix(rng, rows, inner)
            B = _rational_matrix(rng, inner, cols)
            if zero_lines:
                A = _with_zero_lines(rng, A, Fraction(0))
                B = _with_zero_lines(rng, B, Fraction(0))
            got = linalg.mat_mul(A, B)
            assert got == per_term_mat_mul(A, B)
            assert all(type(x) is Fraction for row in got for x in row)
    assert linalg.mat_mul([[1, -2]], [[3], [4]]) == [[Fraction(-5)]]
    assert linalg.mat_mul([], [[1]]) == [] and linalg.mat_mul([[1]], []) == []


# ---------------------------------------------------------------- Bareiss


def _singular_matrix(rng, n):
    """A random n x n matrix with one row a combination of the others."""
    A = _rational_matrix(rng, n, n)
    r = rng.randrange(n)
    others = [(_rational(rng), A[i]) for i in range(n) if i != r]
    A[r] = [sum((c * row[j] for c, row in others), Fraction(0)) for j in range(n)]
    return A


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bareiss_solve_and_det_against_gauss_jordan(n):
    rng = random.Random(73 + n)
    solved = 0
    for _ in range(12):
        A = _rational_matrix(rng, n, n)
        B = _rational_matrix(rng, n, rng.randint(1, 2 * n))
        det = linalg.mat_det(A, Fraction(1))
        assert det == leibniz_det(A) and type(det) is Fraction
        if not det:
            with pytest.raises(SingularMatrix):
                gauss_jordan_inverse(A)
            continue
        A_inv = gauss_jordan_inverse(A)
        assert linalg.mat_inverse(A, Fraction(1)) == A_inv
        assert linalg.solve_columns(A, B) == per_term_mat_mul(A_inv, B)
        solved += 1
    assert solved >= 6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bareiss_singular_systems_raise(n):
    rng = random.Random(79 + n)
    for _ in range(6):
        A, B = _singular_matrix(rng, n), _rational_matrix(rng, n, 2)
        assert leibniz_det(A) == 0
        assert linalg.mat_det(A, Fraction(1)) == 0
        with pytest.raises(SingularMatrix):
            linalg.solve_columns(A, B)
        with pytest.raises(SingularMatrix):
            linalg.mat_inverse(A, Fraction(1))


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 2), (4, 4), (9, 3), (16, 3), (2, 5)])
def test_row_rank_over_q_matches_fraction_echelon(rows, cols):
    # the integer elimination against the Gauss-Jordan echelon over Fractions
    rng = random.Random(83 + rows * cols)
    for _ in range(10):
        M = _with_zero_lines(rng, _rational_matrix(rng, rows, cols), Fraction(0))
        if rows > 2 and rng.random() < 0.5:  # a row that depends on two others
            a, b, c = rng.sample(range(rows), 3)
            M[a] = [_rational(rng) * x + y for x, y in zip(M[b], M[c])]
        assert linalg.row_rank(M) == len(echelon(M))
    assert linalg.row_rank([[0, 0], [Fraction(1, 2), 3], [1, 6]]) == 1


def test_bareiss_integer_contract():
    rng = random.Random(83)
    for n in range(0, 6):
        for m in (0, 1, 3):
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            B = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
            want = leibniz_det(A)
            if not want:
                with pytest.raises(SingularMatrix):
                    linalg.bareiss([a + b for a, b in zip(A, B)])
                continue
            det, X = linalg.bareiss([a + b for a, b in zip(A, B)])
            assert det == want
            assert all(type(x) is int for row in X for x in row)
            if n and m:
                assert per_term_mat_mul(A, X) == [[det * b for b in row] for row in B]


# ---------------------------------------------------------------- inv


def _regular_representation(t, x):
    """Matrix of multiplication by x on the monomial basis, over Q."""
    cols = [[sum(c * t.mul_table[i][j][k] for i, c in enumerate(x.coeffs))
             for k in range(t.dim)] for j in range(t.dim)]
    return [list(row) for row in zip(*cols)]


@pytest.mark.parametrize("t", _oracle_towers(), ids=lambda t: t.case)
def test_inverse_on_shared_bareiss_matches_gauss_jordan(t):
    rng = random.Random(89)
    for x in filter(None, _oracle_elements(t, rng, 10)):
        R_inv = gauss_jordan_inverse(_regular_representation(t, x))
        want = tuple(row[0] for row in R_inv)  # R^-1 e_1
        y = x.inv()
        assert y.coeffs == want
        assert (y.num, y.den) == (t.element(want).num, t.element(want).den)
    with pytest.raises(DivisionByZero):
        t.zero().inv()


# ---------------------------------------------- shared elimination over towers


def _product_matrix(t, rng, rows, cols, rank):
    """A rows x cols matrix over t of rank at most ``rank``: L R for random
    L (rows x rank) and R (rank x cols) drawn from small tower elements."""
    if rank == 0:
        return [[t.zero()] * cols for _ in range(rows)]

    def element():
        return t.element([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(t.dim)])

    L = [[element() for _ in range(rank)] for _ in range(rows)]
    R = [[element() for _ in range(cols)] for _ in range(rank)]
    return linalg.mat_mul(L, R)


def _tower_cases(t, rng):
    """(matrix, oracle rank) pairs: full and deficient rank, zero rows and
    columns, and pivots that need row swaps."""
    for rows, cols in ((1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 3), (4, 2), (3, 4), (4, 4)):
        for rank in range(min(rows, cols) + 1):
            M = _product_matrix(t, rng, rows, cols, rank)
            yield M, rank_by_minors(M, t)
            M = _with_zero_lines(rng, [list(row) for row in M], t.zero())
            yield M, rank_by_minors(M, t)


@pytest.mark.parametrize("t", all_towers(), ids=lambda t: t.case)
def test_rank_and_pivots_over_towers_match_minors_and_gauss_jordan(t):
    rng = random.Random(101)
    ranks = set()
    for M, rank in _tower_cases(t, rng):
        ranks.add((len(M), len(M[0]), rank))
        basis = echelon(M)
        assert linalg.row_rank(M) == rank == len(basis)
        assert linalg.pivot_columns(M) == [next(j for j, x in enumerate(row) if x)
                                           for row in basis]
    assert any(0 < r < min(m, w) for m, w, r in ranks)  # deficient
    assert any(r == min(m, w) >= 3 for m, w, r in ranks)  # full
    assert linalg.row_rank([]) == 0 and linalg.row_rank([[t.zero()]]) == 0


def _relations_rank(M):
    """The rank of M, after checking ``column_relations(M)`` against the
    Gauss-Jordan echelon (X is the reduced echelon form, whose leading
    entries sit at the pivots) and against ``solve_left`` on the columns
    (X^T expresses every column in the pivot columns)."""
    pivots, X = linalg.column_relations(M)
    basis = echelon(M)
    assert pivots == [next(j for j, x in enumerate(row) if x) for row in basis]
    assert X == [list(row) for row in basis]
    if pivots:
        cols = linalg.transpose(M)
        assert solve_left([cols[p] for p in pivots], cols) == linalg.transpose(X)
    return len(pivots)


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 2), (4, 4), (2, 5), (5, 3)])
def test_column_relations_over_q_match_echelon_and_solve_left(rows, cols):
    rng = random.Random(89 + rows * cols)
    for _ in range(10):
        M = _rational_matrix(rng, rows, cols)
        if rng.random() < 0.5:
            M = _with_zero_lines(rng, M, Fraction(0))
        if rows > 2 and rng.random() < 0.5:  # a row that depends on two others
            a, b, c = rng.sample(range(rows), 3)
            M[a] = [_rational(rng) * x + y for x, y in zip(M[b], M[c])]
        _relations_rank(M)
    assert _relations_rank([[Fraction(0)] * cols for _ in range(rows)]) == 0
    # full rank, which is full column rank when rows >= cols
    full = [[Fraction(i + 1) ** j for j in range(cols)] for i in range(rows)]
    assert _relations_rank(full) == min(rows, cols)
    assert linalg.column_relations([]) == ([], [])
    # deficient, with integer entries: the zero column and the dependent
    # one get relations too
    assert linalg.column_relations([[0, 1, 2], [0, 2, 4]]) == (
        [1], [[Fraction(0), Fraction(1), Fraction(2)]])


@pytest.mark.parametrize("t", all_towers(), ids=lambda t: t.case)
def test_column_relations_over_towers_match_echelon_and_solve_left(t):
    rng = random.Random(103)
    ranks = set()
    for M, rank in _tower_cases(t, rng):
        assert _relations_rank(M) == rank
        ranks.add((len(M), len(M[0]), rank))
    assert any(0 < r < min(m, w) for m, w, r in ranks)  # deficient
    assert any(r == w < m for m, w, r in ranks)  # full column rank
    assert any(r == 0 for m, w, r in ranks)  # zero
    assert linalg.column_relations([]) == ([], [])
    pivots, X = linalg.column_relations([[t.zero(), t.one()]])
    assert pivots == [1] and X == [[t.zero(), t.one()]]


@pytest.mark.parametrize("t", all_towers(), ids=lambda t: t.case)
def test_det_and_inverse_over_towers_match_cofactors_and_gauss_jordan(t):
    rng = random.Random(103)
    one = t.one()
    for n in (1, 2, 3, 4, 5):
        for rank in (n, n, n - 1):
            A = _product_matrix(t, rng, n, n, rank)
            if n > 1 and rng.random() < 0.5:  # a zero leading entry forces a swap
                A[0][0] = t.zero()
            det = linalg.mat_det(A, one)
            assert det == _det_cofactor(A, t)
            if not det:
                with pytest.raises(SingularMatrix):
                    linalg.mat_inverse(A, one)
                continue
            inverse = [list(row[n:]) for row in echelon(
                [a + e for a, e in zip(A, linalg.identity_matrix(n, one))])]
            assert linalg.mat_inverse(A, one) == inverse
    assert linalg.mat_det([], one) == one and linalg.mat_inverse([], one) == []
    x = t.element([Fraction(k + 2, 3) for k in range(t.dim)])
    assert linalg.mat_det([[x]], one) == x
    assert linalg.mat_inverse([[x]], one) == [[x.inv()]]
    assert linalg.mat_det([[x, x], [t.zero(), t.zero()]], one) == t.zero()


@pytest.mark.parametrize("t", all_towers(), ids=lambda t: t.case)
def test_solve_columns_over_towers_matches_gauss_jordan(t):
    rng = random.Random(107)
    for m, k, l in ((1, 1, 1), (2, 1, 2), (3, 2, 1), (4, 2, 3), (4, 4, 2)):
        A = _product_matrix(t, rng, m, k, k)
        if rank_by_minors(A, t) < k:
            continue
        X = _product_matrix(t, rng, k, l, min(k, l))
        B = linalg.mat_mul(A, X)
        assert linalg.solve_columns(A, B) == X
        if m > k:  # a right-hand side outside the column span
            B_out = [list(row) for row in B]
            B_out[m - 1][0] = B_out[m - 1][0] + 1
            basis = echelon([a + b for a, b in zip(A, B_out)])
            assert len(basis) > k  # the oracle agrees it is inconsistent
            assert linalg.solve_columns(A, B_out) is None
        dependent = [row + [row[0] + row[-1]] for row in A]
        with pytest.raises(SingularMatrix):
            linalg.solve_columns(dependent, B)
    assert linalg.solve_columns([], []) == []
    zero = t.zero()
    assert linalg.solve_columns([[], []], [[zero], [zero]]) == []
    assert linalg.solve_columns([[], []], [[zero], [t.one()]]) is None


def _generated_subalgebra_by_gauss_jordan(tower, elements):
    """The unital subalgebra closed up step by step, each span reduced by
    the Gauss-Jordan ``echelon``."""
    basis = echelon([tower.one().coeffs] + [x.coeffs for x in elements])
    while True:
        rows = list(basis) + [(tower.element(a) * tower.element(b)).coeffs
                              for a in basis for b in basis]
        grown = echelon(rows)
        if len(grown) == len(basis):
            return grown
        basis = grown


@pytest.mark.parametrize("t", _oracle_towers(), ids=lambda t: t.case)
def test_generated_subalgebra_matches_gauss_jordan(t):
    rng = random.Random(109)
    pool = _oracle_elements(t, rng, 4)
    cases = [[], [t.rational(Fraction(5, 7))]] + [[g] for g in pool[4:4 + t.dim]]
    cases += [rng.sample(pool, 2) for _ in range(4)]
    cases.append([pool[4 + 1] + pool[4 + t.dim - 1]])
    dims = set()
    for elements in cases:
        got = linalg.generated_subalgebra(t, elements)
        assert got == _generated_subalgebra_by_gauss_jordan(t, elements)
        assert all(type(x) is Fraction for row in got for x in row)
        dims.add(len(got))
    assert 1 in dims and t.dim in dims


# ---------------------------------------------------------- ranks modulo a prime


def _rational_product_matrix(rng, rows, cols, rank):
    """A rows x cols rational matrix of rank at most ``rank``: L R for
    random L (rows x rank) and R (rank x cols), a quarter of their entries
    large."""
    if rank == 0:
        return [[Fraction(0)] * cols for _ in range(rows)]

    def factor(m, k):
        return [[Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))
                 if rng.random() < 0.25 else Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(k)] for _ in range(m)]

    return linalg.mat_mul(factor(rows, rank), factor(rank, cols))


RANK_SHAPES = [(1, 1), (3, 3), (4, 4), (2, 5), (5, 2), (3, 6), (6, 3)]


def _residue_rank_cases(rng, product):
    """(matrix, exact rank) over seeded shapes and ranks, with the exact
    rank from the forward pass; every kind of shape is met at full and
    at short rank."""
    kinds = set()
    for rows, cols in RANK_SHAPES:
        for rank in sorted({0, 1, min(rows, cols) - 1, min(rows, cols)}):
            M = product(rng, rows, cols, rank)
            exact = len(linalg.pivot_columns(M))
            shape = "wide" if cols > rows else "tall" if rows > cols else "square"
            kinds.add((shape, exact == min(rows, cols)))
            yield M, exact
    assert kinds == {(s, f) for s in ("wide", "tall", "square") for f in (True, False)}


def test_residue_rank_over_q_matches_exact_elimination():
    rng = random.Random(113)
    for M, exact in _residue_rank_cases(rng, _rational_product_matrix):
        assert linalg._residue_rank(M) == exact
        assert linalg.row_rank(M) == exact


@pytest.mark.parametrize("t", _oracle_towers(), ids=lambda t: t.case)
def test_residue_rank_over_towers_matches_exact_elimination(t):
    rng = random.Random(127)
    product = functools.partial(_product_matrix, t)
    for M, exact in _residue_rank_cases(rng, product):
        assert linalg._residue_rank(M) == exact
        assert linalg.row_rank(M) == exact


def _image(t, x):
    """x under the tower's residue map (its denominator prime to ell)."""
    ell, images = linalg.residue_map(t)
    return sum(a * v for a, v in zip(x.num, images)) * pow(x.den, -1, ell) % ell


@pytest.mark.parametrize("t", _oracle_towers(), ids=lambda t: t.case)
def test_residue_map_exists_and_is_a_ring_map(t):
    # _oracle_towers() starts with the four split-corpus fields
    found = linalg.residue_map(t)
    assert found is not None and linalg.residue_map(t) is found  # kept on the tower
    ell, images = found
    assert ell in linalg.RESIDUE_PRIMES and len(images) == t.dim and images[0] == 1
    rng = random.Random(131)
    els = _oracle_elements(t, rng, 12)
    for _ in range(200):
        x, y = rng.choice(els), rng.choice(els)
        assert _image(t, x * y) == _image(t, x) * _image(t, y) % ell
        assert _image(t, x + y) == (_image(t, x) + _image(t, y)) % ell


@pytest.mark.parametrize("ell", [7, 11, 13, 17, 41, 97, 257])
def test_sqrt_mod_matches_the_squares(ell):
    squares = {x * x % ell for x in range(1, ell)}
    for a in range(ell):
        root = linalg._sqrt_mod(a, ell)
        assert (root is not None) == (a in squares)
        assert root is None or root * root % ell == a
    rng = random.Random(ell)
    for big in linalg.RESIDUE_PRIMES[:4]:
        x = rng.randrange(1, big)
        assert linalg._sqrt_mod(x * x % big, big) in (x, big - x)
        assert linalg._sqrt_mod(big - 1, big) ** 2 % big == big - 1  # -1, ell = 1 (4)


def _counting_forward(monkeypatch):
    calls = []
    real = linalg._forward

    def forward(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_forward", forward)
    return calls


@pytest.mark.parametrize("t", _oracle_towers(), ids=lambda t: t.case)
def test_full_rank_is_certified_without_elimination(t, monkeypatch):
    rng = random.Random(137)
    full = _product_matrix(t, rng, 4, 4, 4)
    short = _product_matrix(t, rng, 4, 5, 3)
    S = _rational_matrix(rng, 5, 3)
    ranks = [len(linalg.pivot_columns(M)) for M in (full, short, S)]
    assert ranks == [4, 3, 3]
    calls = _counting_forward(monkeypatch)
    assert linalg.row_rank(full) == 4 and linalg.row_rank(S) == 3 and calls == []
    # a short rank comes from the exact pass, and so does every rank of a
    # tower that has no map
    assert linalg.row_rank(short) == 3 and len(calls) == 1
    monkeypatch.setitem(t._kept, "residue_map", None)
    assert linalg._residue_rank(full) is None
    assert linalg.row_rank(full) == 4 and len(calls) == 2


def test_rank_singular_mod_ell_only_is_exact(monkeypatch):
    ell = linalg.RESIDUE_PRIMES[0]
    calls = _counting_forward(monkeypatch)
    M = [[ell, 0], [0, 1]]
    assert linalg._residue_rank(M) == 1
    assert linalg.row_rank(M) == 2 and len(calls) == 1
    for t in _oracle_towers():
        x = t.rational(linalg.residue_map(t)[0])
        assert linalg._residue_rank([[x]]) == 0
        assert linalg.row_rank([[x]]) == 1
