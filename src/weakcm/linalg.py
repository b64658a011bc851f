"""Exact dense linear algebra over any exact field.

Entries may be ``fractions.Fraction`` or tower elements; anything with
``+ - * /``, ``bool`` (false exactly at zero) and ``==`` works.  Pivoting is
deterministic: columns left to right, first row with a nonzero entry.  No
floating point anywhere.
"""

from .errors import SingularMatrix


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def identity_matrix(n, one):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    if not A or not B:
        return []
    cols = len(B[0])
    inner = len(B)
    out = []
    for row in A:
        new = []
        for j in range(cols):
            acc = row[0] * B[0][j]
            for k in range(1, inner):
                acc = acc + row[k] * B[k][j]
            new.append(acc)
        out.append(new)
    return out


def mat_inverse(A, one):
    """Gauss-Jordan inverse; raises SingularMatrix when det = 0."""
    n = len(A)
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
    n = len(A)
    if n == 0:
        return one
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
    (matters over towers, where an inverse is itself a linear solve)."""
    M = [list(r) for r in rows]
    if not M:
        return 0
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
