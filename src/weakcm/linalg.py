"""Exact dense linear algebra over Q and over the towers.

Entries are ``fractions.Fraction`` (or ``int``) or tower elements; no
floating point anywhere.  Pivoting is deterministic: columns left to right,
first row with a nonzero entry.

Over Q the work is done in integers.  ``mat_mul`` computes each entry as
one dot product of integer rows over a common denominator; ``mat_det``,
``mat_inverse`` and ``solve_rational`` scale each row to integers and call
``bareiss``, the one fraction-free elimination over Z, which
``FieldElement.inv`` uses too; ``row_rank`` scales each row to integers
before its elimination.  Over a tower, ``mat_mul`` hands each entry to the
tower's fused dot product (``TowerSpec.mat_mul``), and ``mat_det``,
``mat_inverse`` and ``row_rank`` eliminate with the field operations of the
entries, as ``solve_columns`` does over either field.
"""

import math
import operator
from fractions import Fraction

from .errors import SingularMatrix


def _is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def identity_matrix(n, one):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _integer_row(row):
    """(den, ints): a rational row as integers over the lcm of its
    denominators."""
    den = math.lcm(*(x.denominator for x in row))
    return den, [x.numerator * (den // x.denominator) for x in row]


def mat_mul(A, B):
    """A B; each entry is one fused dot product (see the module notes)."""
    if not A or not B:
        return []
    if not B[0]:
        return [[] for _ in A]
    a, b = A[0][0], B[0][0]
    if not (_is_rational(a) and _is_rational(b)):
        tower = (b if _is_rational(a) else a).tower
        return tower.mat_mul(A, B)
    cols = [_integer_row(col) for col in zip(*B)]
    out = []
    for row in A:
        da, ra = _integer_row(row)
        out.append([Fraction(sum(map(operator.mul, ra, cb)), da * db)
                    for db, cb in cols])
    return out


def bareiss(R):
    """Solve A X = det(A) B over Z by fraction-free elimination.

    R is the augmented integer matrix (A | B): n rows of n + m integers
    (m may be 0), A square.  R is overwritten.  Returns ``(det, X)`` with
    ``det = det(A)`` and the n x m integer matrix ``X = det * A^-1 B``.
    Bareiss' elimination (Math. Comp. 22, 1968) keeps every entry an
    integer minor of R, so each division is exact; back substitution
    scaled by det is exact by Cramer's rule.  Raises SingularMatrix when
    det(A) = 0.
    """
    n = len(R)
    w = len(R[0]) if n else 0
    prev, sign = 1, 1
    for col in range(n):
        for r in range(col, n):
            if R[r][col]:
                break
        else:
            raise SingularMatrix("matrix is singular")
        if r != col:
            R[col], R[r] = R[r], R[col]
            sign = -sign
        top = R[col]
        piv = top[col]
        for r in range(col + 1, n):
            row = R[r]
            f = row[col]
            R[r] = [0] * (col + 1) + [
                (piv * row[j] - f * top[j]) // prev for j in range(col + 1, w)
            ]
        prev = piv
    det = sign * prev
    X = [[0] * (w - n) for _ in range(n)]
    for c in range(n, w):
        for i in range(n - 1, -1, -1):
            row = R[i]
            acc = det * row[c]
            for j in range(i + 1, n):
                if row[j]:
                    acc -= row[j] * X[j][c - n]
            X[i][c - n] = acc // row[i]
    return det, X


def solve_rational(A, B):
    """X with A X = B for a square invertible rational A; B is n x m.

    Each row of (A | B) is scaled to integers, which leaves X unchanged,
    and the integer system goes through ``bareiss``.  Raises
    SingularMatrix when det(A) = 0.
    """
    det, X = bareiss([_integer_row(list(a) + list(b))[1] for a, b in zip(A, B)])
    return [[Fraction(x, det) for x in row] for row in X]


def mat_inverse(A, one):
    """Inverse; raises SingularMatrix when det = 0.

    Over Q this is ``solve_rational(A, I)``; over a tower, Gauss-Jordan
    elimination with the tower's field operations.
    """
    n = len(A)
    if _is_rational(one):
        return solve_rational(A, identity_matrix(n, 1))
    aug = [list(A[i]) + list(identity_matrix(n, one)[i]) for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col]:
                pivot = r
                break
        if pivot is None:
            raise SingularMatrix("matrix is singular")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = one / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def mat_det(A, one):
    """Determinant; over Q by ``bareiss`` on the integer-scaled rows."""
    n = len(A)
    if n == 0:
        return one
    if _is_rational(one):
        dens, rows = zip(*(_integer_row(row) for row in A))
        try:
            det, _ = bareiss(list(rows))
        except SingularMatrix:
            return Fraction(0)
        return Fraction(det, math.prod(dens))
    M = [list(row) for row in A]
    det = one
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if M[r][col]:
                pivot = r
                break
        if pivot is None:
            return one - one
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = (one - one) - det
        det = det * M[col][col]
        inv_p = one / M[col][col]
        for r in range(col + 1, n):
            if M[r][col]:
                f = M[r][col] * inv_p
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return det


def row_rank(rows):
    """Rank of the row span; division-free cross-multiplication elimination
    (matters over towers, where an inverse is itself a linear solve).  Over
    Q each row is first scaled to integers, which leaves the rank unchanged,
    so the elimination runs in integers."""
    M = [list(r) for r in rows]
    if not M:
        return 0
    if all(_is_rational(x) for row in M for x in row):
        M = [_integer_row(row)[1] for row in M]
    ncols = len(M[0])
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
        for r in range(rank + 1, len(M)):
            if M[r][col]:
                f = M[r][col]
                M[r] = [x * piv - f * y for x, y in zip(M[r], M[rank])]
        rank += 1
        if rank == len(M):
            break
    return rank


def solve_columns(A, B):
    """Solve A X = B for A with full column rank (m x k, k <= m).

    Returns X (k x l) or None when the system is inconsistent.  Raises
    SingularMatrix when the columns of A are dependent.
    """
    m = len(A)
    k = len(A[0]) if A else 0
    l = len(B[0]) if B else 0
    aug = [list(A[i]) + list(B[i]) for i in range(m)]
    pivots = []
    row = 0
    for col in range(k):
        pivot = None
        for r in range(row, m):
            if aug[r][col]:
                pivot = r
                break
        if pivot is None:
            raise SingularMatrix("columns are linearly dependent")
        aug[row], aug[pivot] = aug[pivot], aug[row]
        piv = aug[row][col]
        aug[row] = [x / piv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    # consistency: rows below the pivot block must have vanished entirely
    for r in range(row, m):
        if any(aug[r]):
            return None
    X = [aug[i][k:] for i in range(k)]
    return X


def solve_left(A, B):
    """Solve X A = B given the rows of A span the rows of B.

    A is r x n with full row rank; returns X (rows of B expressed in rows
    of A) or None when some row of B is outside the row span.
    """
    X_t = solve_columns(transpose(A), transpose(B))
    if X_t is None:
        return None
    return transpose(X_t)
