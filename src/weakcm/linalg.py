"""Exact dense linear algebra over Q and over the towers.

Entries are ``fractions.Fraction`` (or ``int``) or tower elements; no
floating point anywhere.  ``mat_mul`` computes each entry as one fused dot
product: integer rows over a common denominator, the tower's own
``TowerSpec.mat_mul``, or, for a tower matrix times a rational one,
``TowerSpec.mat_mul_rational`` (integer combinations of numerator vectors,
no structure table).

Every rank, determinant, solve, inverse and echelon form comes from one
fraction-free forward pass (``_forward``) and one back substitution.
Pivoting is deterministic: columns left to right, first row with a nonzero
entry.  Rational rows are scaled to integers first, and each update is
divided exactly by the previous pivot (Bareiss, Math. Comp. 22, 1968), so
entries stay integer minors.  Over a tower the pass does not divide: an
inverse is itself a linear solve, and dividing by one measured slower than
the coefficient growth it saves.  It still multiplies every row below a
pivot by that pivot, so a determinant costs one inverse at the end; the
nonzero terms of the pivot and its row are worked out once per pivot
(``TowerSpec.pivot_update``).
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
    """A B; each entry is one fused dot product.

    Over Q, integer rows over a common denominator; a tower matrix times an
    all-rational one goes to ``TowerSpec.mat_mul_rational``, which needs no
    structure table; any other product with tower entries goes to
    ``TowerSpec.mat_mul``.
    """
    if not A or not B:
        return []
    if not B[0]:
        return [[] for _ in A]
    a, b = A[0][0], B[0][0]
    if not _is_rational(a):
        if _is_rational(b) and all(_is_rational(x) for row in B for x in row):
            return a.tower.mat_mul_rational(A, [_integer_row(col) for col in zip(*B)])
        return a.tower.mat_mul(A, B)
    if not _is_rational(b):
        return b.tower.mat_mul(A, B)
    cols = [_integer_row(col) for col in zip(*B)]
    out = []
    for row in A:
        da, ra = _integer_row(row)
        out.append([Fraction(sum(map(operator.mul, ra, cb)), da * db)
                    for db, cb in cols])
    return out


def _working_rows(rows):
    """(a fresh copy of the rows to eliminate, their tower): rational rows
    are scaled to integers, with tower None, which changes neither the row
    space nor the solutions of a system."""
    tower = next((x.tower for row in rows for x in row if not _is_rational(x)), None)
    if tower is None:
        return [_integer_row(row)[1] for row in rows], None
    return [list(row) for row in rows], tower


def _forward(M, tower):
    """Fraction-free forward elimination of the rows M, in place.

    M is m x w, of integers (``tower`` None) or of elements of ``tower``.
    Columns without a pivot are skipped, and the pass stops once every row
    holds a pivot.  Returns ``(pivots, sign)``: the pivot column of each of
    the first ``len(pivots)`` rows (so the rank), in increasing order, and
    the sign of the row swaps; the rows below are zero.  Each row below a
    pivot becomes ``piv * row - f * top``, even when f is 0.  Over Z that
    is divided by the previous pivot: Bareiss' identity makes the division
    exact, and after stage c every entry is a (c+1)-minor of M.  Over a
    tower nothing is divided, so stage c multiplies all remaining rows by
    one common factor (see ``mat_det``); each update is one fused
    ``TowerSpec.mat_mul``.
    """
    m = len(M)
    w = len(M[0]) if m else 0
    pivots = []
    sign = prev = 1
    r = 0
    for col in range(w):
        for i in range(r, m):
            if M[i][col]:
                break
        else:
            continue
        if i != r:
            M[r], M[i] = M[i], M[r]
            sign = -sign
        top = M[r]
        piv = top[col]
        zero = piv - piv
        tail = top[col + 1:]
        update = None if tower is None or r + 1 == m else tower.pivot_update(piv, tail)
        for row in M[r + 1:]:
            f = row[col]
            row[col] = zero
            if update is None:
                row[col + 1:] = [(piv * x - f * y) // prev
                                 for x, y in zip(row[col + 1:], tail)]
            else:
                row[col + 1:] = update(f, row[col + 1:])
        prev = piv
        pivots.append(col)
        r += 1
        if r == m:
            break
    return pivots, sign


def _back_substitute(U, pivots, cols, scale=None):
    """Solve the pivot block of the echelon form U against other columns.

    With r = len(pivots) and P the upper-triangular r x r block of U's
    first r rows at the pivot columns, returns X (r x len(cols)) with
    P X = scale * U[:r, cols].  Over Z, ``scale`` is an integer multiple of
    det P (such as the last pivot of ``_forward``), and every division is
    exact by Cramer's rule.  Over a tower (``scale`` None), each pivot is
    inverted once and X = P^-1 U[:r, cols].
    """
    r = len(pivots)
    diag = [U[i][p] for i, p in enumerate(pivots)]
    if scale is None:
        diag = [1 / d for d in diag]
    X = [[None] * len(cols) for _ in range(r)]
    for q, c in enumerate(cols):
        for i in range(r - 1, -1, -1):
            row = U[i]
            acc = row[c] if scale is None else scale * row[c]
            for j in range(i + 1, r):
                a = row[pivots[j]]
                if a:
                    acc = acc - a * X[j][q]
            X[i][q] = acc * diag[i] if scale is None else acc // diag[i]
    return X


def bareiss(R):
    """Solve A X = det(A) B over Z by fraction-free elimination.

    R is the augmented integer matrix (A | B): n rows of n + m integers
    (m may be 0), A square.  R is overwritten.  Returns ``(det, X)`` with
    ``det = det(A)`` and the n x m integer matrix ``X = det * A^-1 B``, from
    the shared forward pass and back substitution.  Raises SingularMatrix
    when det(A) = 0.
    """
    n = len(R)
    pivots, sign = _forward(R, None)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    det = sign * R[n - 1][n - 1] if n else 1
    return det, _back_substitute(R, pivots, range(n, len(R[0]) if n else 0), det)


def mat_inverse(A, one):
    """Inverse, as ``solve_columns(A, I)``; raises SingularMatrix when
    det = 0."""
    return solve_columns(A, identity_matrix(len(A), one))


def mat_det(A, one):
    """Determinant, from the last pivot of the shared forward pass.

    Over Q that pivot is the determinant of the integer-scaled rows.  Over
    a tower, stage c of the pass multiplies every later row by its pivot
    U[c][c], so det = sign * U[n-1][n-1] / prod_{c <= n-3}
    U[c][c]^(n-2-c), which costs one inverse.
    """
    n = len(A)
    if n == 0:
        return one
    U, tower = _working_rows(A)
    pivots, sign = _forward(U, tower)
    if len(pivots) < n:
        return one - one
    det = U[n - 1][n - 1] if sign > 0 else -U[n - 1][n - 1]
    if tower is None:
        return Fraction(det, math.prod(_integer_row(row)[0] for row in A))
    if n < 3:
        return det
    return det / math.prod(U[c][c] ** (n - 2 - c) for c in range(n - 2))


def pivot_columns(rows):
    """Pivot columns of an echelon form of the rows, in increasing order:
    column j is one exactly when it is not in the span of columns 0..j-1,
    so they index the lexicographically first basis of the columns."""
    return _forward(*_working_rows(rows))[0]


def row_rank(rows):
    """Rank of the row span: the number of pivots of the forward pass."""
    return len(pivot_columns(rows))


def reduced_echelon(rows):
    """The reduced row echelon basis of the span of rational rows, as
    tuples of ``Fraction``s: pivot entries 1, zeros above and below each
    pivot.  It is unique, so any elimination order gives these rows."""
    U, _ = _working_rows(rows)
    pivots, _ = _forward(U, None)
    if not pivots:
        return []
    det = U[len(pivots) - 1][pivots[-1]]
    X = _back_substitute(U, pivots, range(len(U[0])), det)
    return [tuple(Fraction(x, det) for x in row) for row in X]


def solve_columns(A, B):
    """Solve A X = B for A with full column rank (m x k, k <= m).

    Returns X (k x l) or None when the system is inconsistent.  Raises
    SingularMatrix when the columns of A are dependent.  The forward pass
    runs over (A | B): the columns of A are independent when they are the
    first k pivots, and the system is consistent when B holds no pivot.
    """
    k = len(A[0]) if A else 0
    U, tower = _working_rows([list(a) + list(b) for a, b in zip(A, B)])
    pivots, _ = _forward(U, tower)
    if pivots[:k] != list(range(k)):
        raise SingularMatrix("columns are linearly dependent")
    if len(pivots) > k:
        return None
    cols = range(k, len(U[0]) if U else k)
    if tower is not None:
        return _back_substitute(U, pivots, cols)
    det = U[k - 1][k - 1] if k else 1
    return [[Fraction(x, det) for x in row]
            for row in _back_substitute(U, pivots, cols, det)]


def solve_left(A, B):
    """Solve X A = B given the rows of A span the rows of B.

    A is r x n with full row rank; returns X (rows of B expressed in rows
    of A) or None when some row of B is outside the row span.
    """
    X_t = solve_columns(transpose(A), transpose(B))
    if X_t is None:
        return None
    return transpose(X_t)
