"""Shared helpers for the test suite: backward generation of valid
weak-CM period matrices from the standard forms, and small exact oracles
that are independent of the library code paths they check."""

from fractions import Fraction

from weakcm import linalg, tausplit, tower as tw
from weakcm.cmfield import CASE_A, CASE_B, CASE_C, DEG2

_ASSEMBLY_COORDS = {
    DEG2: (0, 1),
    CASE_A: (0, 1, 2, 3),
    CASE_B: (0, 1, 2, 3),
    CASE_C: (0, 1, 4, 6),  # 1, sqrt(d), xi+, sqrt(d)*xi+ in the closure basis
}


def random_rational_matrix(rng, rows, cols, span=3):
    return [
        [Fraction(rng.randint(-span, span)) for _ in range(cols)]
        for _ in range(rows)
    ]


def random_invertible_rational(rng, size, span=3):
    while True:
        M = random_rational_matrix(rng, size, size, span)
        if linalg.mat_det(M, Fraction(1)):
            return M


def random_period_matrix(field, n, rng, p_split=None):
    """Build a valid weak-CM period matrix of the given shape.

    Starts from the standard coordinate matrix of the target splitting and
    applies a random rational base change on the u side; renormalizing the
    coframe block to the identity yields tau.  Entries provably stay in the
    distinguished embedding of the CM field; this is asserted exactly.
    """
    if field.case == CASE_A and p_split is None:
        p_split = n // 2 or 1
    std = tausplit.standard_form(field, n, p_split)
    t = field.tower
    while True:
        T = random_invertible_rational(rng, 2 * n)
        M = [[_dot(row, T, j, t) for j in range(2 * n)] for row in std]
        A = [row[:n] for row in M]
        B = [row[n:] for row in M]
        if not linalg.mat_det(A, t.one()):
            continue
        A_inv = linalg.mat_inverse(A, t.one())
        tau = linalg.mat_mul(A_inv, B)
        coords = _ASSEMBLY_COORDS[field.case]
        Bs = []
        ok = True
        for k in coords:
            Bs.append([[tau[i][j].coeffs[k] for j in range(n)] for i in range(n)])
        for i in range(n):
            for j in range(n):
                if any(tau[i][j].coeffs[k] for k in range(t.dim) if k not in coords):
                    ok = False
        if not ok:
            raise AssertionError("generated tau left the distinguished embedding")
        pm = tausplit.period_matrix(field, *Bs)
        try:
            tausplit.validate_weak_cm(pm)
        except Exception:
            continue  # degenerate draw (e.g. entries in a subfield); retry
        return pm


def _dot(row, T, j, t):
    acc = t.zero()
    for k, x in enumerate(row):
        c = T[k][j]
        if c:
            acc = acc + x * c
    return acc


def rank_by_minors(rows, t):
    """Rank via explicit minor determinants; independent of the elimination
    code path used by the library."""
    import itertools

    rows = [list(r) for r in rows]
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])
    for size in range(min(m, n), 0, -1):
        for rsel in itertools.combinations(range(m), size):
            for csel in itertools.combinations(range(n), size):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if _det_cofactor(sub, t):
                    return size
    return 0


def _det_cofactor(M, t):
    n = len(M)
    if n == 1:
        return M[0][0]
    acc = t.zero()
    sign = 1
    for j in range(n):
        if M[0][j]:
            minor = [[M[i][k] for k in range(n) if k != j] for i in range(1, n)]
            term = M[0][j] * _det_cofactor(minor, t)
            acc = acc + (term if sign > 0 else -term)
        sign = -sign
    return acc


def echelon(rows):
    """Reduced row echelon basis by Gauss-Jordan elimination with the field
    operations of the entries (rationals or tower elements); the oracle for
    ``linalg``'s fraction-free elimination."""
    M = [list(r) for r in rows]
    ncols = len(M[0]) if M else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(M)):
            if M[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        piv = M[rank][col]
        M[rank] = [x / piv for x in M[rank]]
        for r in range(len(M)):
            if r != rank and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[rank])]
        rank += 1
    return [tuple(r) for r in M[:rank]]


def coframe_by_products(t, tau, C, renaming):
    """C . Pi . (1 | tau) as two tower products, with Pi the 0/1 renaming
    matrix and (1 | tau) the identity block beside tau; the oracle for
    ``tausplit._coframe``."""
    n = len(tau)
    one, zero = t.one(), t.zero()
    Pi = [[one if j == renaming[i] else zero for j in range(n)] for i in range(n)]
    coords = [[one if j == i else zero for j in range(n)] + list(tau[i])
              for i in range(n)]
    return linalg.mat_mul(linalg.mat_mul(C, Pi), coords)


def subspace_coordinates_by_solve(basis_elements, x):
    """Coordinates of x in the Q-span of the elements by one rational
    ``linalg.solve_columns`` on their ``coeffs``, or None; the oracle for
    the tower's integer ``CoordinateMap``."""
    A = [[b.coeffs[i] for b in basis_elements] for i in range(x.tower.dim)]
    sol = linalg.solve_columns(A, [[c] for c in x.coeffs])
    if sol is None:
        return None
    return [row[0] for row in sol]


def factor_integer(n):
    """Trial-division factorization for small test integers."""
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def square_class_oracle(a, d):
    """Prime-factorization square-class test, independent of the library's
    isqrt-based implementation."""
    x = Fraction(a) / Fraction(d)
    if x <= 0:
        return False
    merged = factor_integer(x.numerator)
    for p, e in factor_integer(x.denominator).items():
        merged[p] = merged.get(p, 0) + e
    return all(e % 2 == 0 for e in merged.values())
