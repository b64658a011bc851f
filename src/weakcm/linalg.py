"""Exact dense linear algebra over Q and over the towers.

Entries are ``fractions.Fraction`` (or ``int``) or tower elements; no
floating point anywhere.  ``mat_mul`` computes each entry as one fused dot
product: integer rows over a common denominator, or, over a tower, one
``TowerSpec.dot`` call, the tower's own product kernel
(``_tower_mat_mul``); a tower matrix times a rational one needs no table
(``_tower_mat_mul_rational``).

Every determinant, solve, inverse, echelon form and set of column
relations (``column_relations``: a basis of the columns and every column
in it) comes from one fraction-free forward pass (``_forward``) and one
back substitution, and so does every rank short of full.  A solve
(``solve_columns``, and so ``mat_inverse``) and a reduced echelon basis
(``generated_subalgebra``) are read off ``column_relations``.  Every pass
takes its rows from ``_working_rows``, which checks each tower entry with
``TowerSpec.own``.  ``row_rank``
first ranks the rows' image modulo a prime ell (``_residue_rank``: the
integer-scaled rows mod a fixed ell over Q, and over a tower its
``residue_map``, a ring map onto F_ell); when that rank is min(rows,
columns) it is the rank, since a minor that is nonzero mod ell is nonzero,
and nothing is eliminated exactly.
Pivoting is deterministic: columns left to right, first row with a nonzero
entry.  Rational rows are scaled to integers first, and each update is
divided exactly by the previous pivot (Bareiss, Math. Comp. 22, 1968), so
entries stay integer minors.  Over a tower the pass does not divide: an
inverse is itself a linear solve, and dividing by one measured slower than
the coefficient growth it saves.  It still multiplies every row below a
pivot by that pivot, so a determinant costs one inverse at the end; each
updated entry is one ``TowerSpec.dot`` call, with the terms of the pivot
and its row worked out once per pivot (``_pivot_update``).  Generated
subalgebras, coordinates in the Q-span of tower elements
(``CoordinateMap``) and residue maps live here too, the maps kept by
``TowerSpec.kept``; ``tower`` imports this module only to invert an
element.
"""

import itertools
import math
import operator
from fractions import Fraction

from .errors import SingularMatrix
from .tower import _normalised


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
    all-rational one goes to ``_tower_mat_mul_rational``, which needs no
    structure table; any other product with tower entries goes to
    ``_tower_mat_mul``.
    """
    if not A or not B:
        return []
    if not B[0]:
        return [[] for _ in A]
    a, b = A[0][0], B[0][0]
    if not _is_rational(a):
        if _is_rational(b) and all(_is_rational(x) for row in B for x in row):
            return _tower_mat_mul_rational(a.tower, A, [_integer_row(col) for col in zip(*B)])
        return _tower_mat_mul(a.tower, A, B)
    if not _is_rational(b):
        return _tower_mat_mul(b.tower, A, B)
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
    space nor the solutions of a system.  Over a tower every entry goes
    through ``TowerSpec.own``, so an entry of another tower raises
    TowerMismatch before anything is eliminated."""
    tower = next((x.tower for row in rows for x in row if not _is_rational(x)), None)
    if tower is None:
        return [_integer_row(row)[1] for row in rows], None
    own = tower.own
    return [[own(x) for x in row] for row in rows], tower


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
    one common factor (see ``mat_det``), and the updated rows come from
    ``_pivot_update``.
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
        update = None if tower is None or r + 1 == m else _pivot_update(tower, piv, tail)
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

    The library decides nonsingularity with ``row_rank`` and never calls
    this; it stays as the tests' determinant oracle, and the benchmark's
    tracer wraps it by name.
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
    """Rank of the row span.

    Full rank, min(rows, columns), is read off the rank of the rows' image
    modulo a prime (``_residue_rank``): a minor that is nonzero there is
    nonzero over Q or the tower.  Any other rank is the number of pivots of
    the exact forward pass.
    """
    full = min(len(rows), len(rows[0])) if rows else 0
    if full and _residue_rank(rows) == full:
        return full
    return len(pivot_columns(rows))


def column_relations(rows):
    """(pivots, X): the pivot columns of the forward pass, which index the
    lexicographically first basis of the columns, and X (rank x width) with
    column q = sum_i X[i][q] * column pivots[i].

    X holds e_i at column pivots[i]; one back substitution gives the other
    columns.  Entries are ``Fraction``s over Q, where X is the reduced row
    echelon form, and tower elements otherwise.
    """
    U, tower = _working_rows(rows)
    pivots, _ = _forward(U, tower)
    r = len(pivots)
    w = len(U[0]) if U else 0
    free = [c for c in range(w) if c not in pivots]
    if tower is None:
        one, zero = Fraction(1), Fraction(0)
        det = U[r - 1][pivots[-1]] if r else 1
        solved = [[Fraction(x, det) for x in row]
                  for row in _back_substitute(U, pivots, free, det)]
    else:
        one, zero = tower.one(), tower.zero()
        solved = _back_substitute(U, pivots, free)
    X = []
    for i, p in enumerate(pivots):
        row = [zero] * w
        row[p] = one
        for c, x in zip(free, solved[i]):
            row[c] = x
        X.append(row)
    return pivots, X


def solve_columns(A, B):
    """Solve A X = B for A with full column rank (m x k, k <= m).

    Returns X (k x l) or None when the system is inconsistent.  Raises
    SingularMatrix when the columns of A are dependent.  X is read off
    ``column_relations`` of (A | B): the columns of A are independent when
    they are the first k pivots, the system is consistent when B holds no
    pivot, and then X is the last l columns of the relations.
    """
    k = len(A[0]) if A else 0
    pivots, X = column_relations([list(a) + list(b) for a, b in zip(A, B)])
    if pivots[:k] != list(range(k)):
        raise SingularMatrix("columns are linearly dependent")
    if len(pivots) > k:
        return None
    return [row[k:] for row in X]


# --------------------------------------------------------------------------
# ranks modulo a prime

# Primes ell = 1 (mod 4) below 2^30, largest first: -1 is a square modulo
# each, and a residue fits one 30-bit digit.  A tower of degree D over Q
# maps onto F_ell for about one prime in D.
RESIDUE_PRIMES = (
    1073741789, 1073741741, 1073741717, 1073741689, 1073741621, 1073741561,
    1073741477, 1073741441, 1073741381, 1073741329, 1073741309, 1073741237,
    1073741213, 1073741197, 1073741189, 1073741173, 1073741101, 1073741077,
    1073740933, 1073740909, 1073740853, 1073740793, 1073740781, 1073740697,
    1073740693, 1073740649, 1073740609, 1073740541, 1073740537, 1073740529,
    1073740517, 1073740501, 1073740489, 1073740477, 1073740249, 1073740201,
    1073740189, 1073740177, 1073740133, 1073740061, 1073740049, 1073740013,
    1073739949, 1073739937, 1073739917, 1073739893, 1073739881, 1073739853,
    1073739817, 1073739749, 1073739721, 1073739649, 1073739617, 1073739577,
    1073739493, 1073739473, 1073739449, 1073739437, 1073739421, 1073739361,
    1073739353, 1073739313, 1073739169, 1073739101,
)


def _residue_rank(rows):
    """The rank of the rows' image modulo a prime ell, each row first
    scaled to integer numerators; None when there is no image.

    Over Q, ell is ``RESIDUE_PRIMES[0]``.  Over a tower, ell and the image
    come from its ``residue_map``, and a tower without one gives None.  The
    rows and their tower come from ``_working_rows``, so entries from two
    towers raise TowerMismatch.
    """
    rows, tower = _working_rows(rows)
    if tower is None:
        ell = RESIDUE_PRIMES[0]
        return _rank_mod([[a % ell for a in row] for row in rows], ell)
    found = residue_map(tower)
    if found is None:
        return None
    ell, images = found
    M = []
    for row in rows:
        den = math.lcm(*(x.den for x in row))
        M.append([sum(map(operator.mul, x.num, images)) * (den // x.den) % ell
                  for x in row])
    return _rank_mod(M, ell)


def _rank_mod(M, ell):
    """The rank of the rows M of residues mod the prime ell, by Gaussian
    elimination in place."""
    m = len(M)
    r = 0
    for col in range(len(M[0])):
        for i in range(r, m):
            if M[i][col]:
                break
        else:
            continue
        M[r], M[i] = M[i], M[r]
        top = M[r][col:]
        inv = pow(top[0], -1, ell)
        for row in M[r + 1:]:
            f = row[col] * inv % ell
            if f:
                row[col:] = [(x - f * y) % ell for x, y in zip(row[col:], top)]
        r += 1
        if r == m:
            break
    return r


def _sqrt_mod(a, ell):
    """A square root of a modulo the odd prime ell, or None when a is 0 or
    not a square (Tonelli-Shanks)."""
    if not a or pow(a, (ell - 1) // 2, ell) != 1:
        return None
    q, s = ell - 1, 0
    while not q % 2:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (ell - 1) // 2, ell) == 1:
        z += 1
    c, t, root = pow(z, q, ell), pow(a, q, ell), pow(a, (q + 1) // 2, ell)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % ell, i + 1
        b = pow(c, 1 << (s - i - 1), ell)
        s, c = i, b * b % ell
        t, root = t * c % ell, root * b % ell
    return root


def residue_map(tower):
    """``(ell, images)``: a ring map onto F_ell from the elements of the
    tower with denominators prime to ell, as the image of each basis
    monomial, for the first ell in ``RESIDUE_PRIMES`` that gives one; None
    when none does.  Built on first use and kept by ``TowerSpec.kept``,
    None included.

    Each square rule sends its radical to a root mod ell of its square,
    read from ``_int_table``; squares come first in the rule table, so a
    square holds only radicals mapped before it.  Every choice of signs is
    tried, and one is accepted only when ell does not divide ``_int_den``
    and the images satisfy every entry of ``_int_table``: the map is then
    multiplicative on all basis pairs.
    """
    return tower.kept("residue_map", lambda: next(
        filter(None, (_residue_images(tower, ell) for ell in RESIDUE_PRIMES)), None))


def _residue_images(tower, ell):
    """``(ell, images)`` of ``residue_map`` for the prime ell, or None."""
    den = tower._int_den % ell
    if not den:
        return None
    table, monomials = tower._int_table, tower._monomials
    roots = {}
    for (a, b), _ in tower._rules:
        if a == b:
            i = tower._index[(a,)]
            square = sum(c * math.prod(roots[r] for r in monomials[k])
                         for k, c in table[i][i])
            roots[a] = _sqrt_mod(square * pow(den, -1, ell) % ell, ell)
            if roots[a] is None:
                return None
    for signs in itertools.product((1, -1), repeat=len(roots)):
        signed = {r: s * v for (r, v), s in zip(roots.items(), signs)}
        images = [math.prod(signed[r] for r in m) % ell for m in monomials]
        if all((images[i] * images[j] * den
                - sum(c * images[k] for k, c in cell)) % ell == 0
               for i, row in enumerate(table) for j, cell in enumerate(row)):
            return ell, tuple(images)
    return None


# --------------------------------------------------------------------------
# the tower matrix layer, on the integer numerators of tower elements


def _tower_mat_mul(t, A, B):
    """A B for matrices of elements of the tower t (rationals are coerced).

    Each entry is one ``TowerSpec.dot`` call on the nonzero products of its
    row and column.  Zero factors are skipped, so identity and permutation
    factors cost one table lookup per nonzero entry.
    """
    cols = [[t.terms(x) for x in col] for col in zip(*B)]
    out = []
    for row in A:
        left = [(k, term) for k, term in enumerate([t.terms(x) for x in row]) if term]
        out.append([
            t.dot([(da * col[k][0], ta, col[k][1])
                   for k, (da, ta) in left if col[k] is not None])
            for col in cols
        ])
    return out


def _tower_mat_mul_rational(t, A, cols):
    """A B for a matrix A of elements of the tower t and a rational matrix
    B, given by its columns as ``(den, integer numerators)`` pairs.

    Each entry is an integer combination of the numerator vectors of a
    row of A, which are brought to one denominator per row, with the
    integer column of B: ``dim`` fused dot products and one reduction,
    no structure-table lookups.
    """
    out = []
    for row in A:
        row = [t.own(x) for x in row]
        den = math.lcm(*(x.den for x in row))
        # coordinate m of every entry of the row, over den
        coords = list(zip(*([a * (den // x.den) for a in x.num] for x in row)))
        out.append([
            _normalised(t, [sum(map(operator.mul, c, cb)) for c in coords], den * db)
            for db, cb in cols
        ])
    return out


def _pivot_update(t, piv, top):
    """The row update below a pivot of a fraction-free elimination over the
    tower t.

    Returns a function of (f, row) that gives ``[piv * y - f * z for y,
    z in zip(row, top)]``, each entry one ``TowerSpec.dot`` call on the
    nonzero ones of its two products.  The terms of ``piv`` (nonzero) and
    of ``top`` are worked out here, once per pivot, not once per row below
    it.
    """
    dp, tp = t.terms(piv)
    tops = [t.terms(z) for z in top]

    def update(f, row):
        ft = t.terms(f)
        if ft is not None:
            df, nf = ft[0], [(i, -a) for i, a in ft[1]]
        out = []
        for y, zt in zip(row, tops):
            yt = t.terms(y)
            prods = [] if yt is None else [(dp * yt[0], tp, yt[1])]
            if ft is not None and zt is not None:
                prods.append((df * zt[0], nf, zt[1]))
            out.append(t.dot(prods))
        return out

    return update


def generated_subalgebra(tower, elements) -> list:
    """Reduced echelon basis of the unital Q-subalgebra generated by the
    elements, as tuples of ``Fraction``s: the X of ``column_relations`` of
    their coefficient rows.

    The span is closed under multiplication step by step; in a field this
    is the subfield generated by the elements.  The reduced echelon basis
    of a span is unique, so the result does not depend on the elimination.
    """
    basis = column_relations([tower.one().coeffs] + [x.coeffs for x in elements])[1]
    while True:
        span = [tower.element(a) for a in basis]
        grown = column_relations(basis + [(a * b).coeffs for a in span for b in span])[1]
        if len(grown) == len(basis):
            return [tuple(row) for row in grown]
        basis = grown


class CoordinateMap:
    """Coordinates in the Q-span of independent tower elements, in integers.

    With the elements b_1..b_k brought to one denominator E, let N be the
    dim x k integer matrix of their numerators (b_j = N[:, j] / E), R its
    pivot rows (the first k rows of rank k, from ``pivot_columns``) and N_R
    that invertible block.  ``bareiss`` gives D = det N_R and the integer
    matrix D * N_R^-1; ``inverse`` is that matrix times E, over ``den`` =
    |D|.  For x = X / x.den, the numerators a = inverse . X_R give the
    coordinates a / (den * x.den), and x lies in the span exactly when
    N[m] . a == E * den * X[m] on every row m outside R (on R it holds by
    construction).  Raises SingularMatrix when the elements are dependent.
    """

    __slots__ = ("rows", "inverse", "den", "checks", "scale")

    def __init__(self, basis_elements):
        k = len(basis_elements)
        E = math.lcm(*(b.den for b in basis_elements))
        N = list(zip(*([a * (E // b.den) for a in b.num] for b in basis_elements)))
        rows = pivot_columns(transpose(N))
        if len(rows) < k:
            raise SingularMatrix("columns are linearly dependent")
        det, X = bareiss(
            [list(N[r]) + [int(i == j) for j in range(k)] for i, r in enumerate(rows)]
        )
        sign = 1 if det > 0 else -1
        self.rows = tuple(rows)
        self.inverse = tuple(tuple(sign * E * v for v in row) for row in X)
        self.den = abs(det)
        self.checks = tuple((m, N[m]) for m in range(len(N)) if m not in rows)
        self.scale = E * self.den

    def numerators(self, x):
        """The integers a with x = sum_j a_j / (den * x.den) * b_j, or None
        when x is not in the span."""
        num = x.num
        xr = [num[r] for r in self.rows]
        a = [sum(map(operator.mul, row, xr)) for row in self.inverse]
        scale = self.scale
        for m, row in self.checks:
            if sum(map(operator.mul, row, a)) != scale * num[m]:
                return None
        return a

    def coordinates(self, x):
        """The coordinates of x as ``Fraction``s, or None when x is not in
        the span."""
        a = self.numerators(x)
        if a is None:
            return None
        den = self.den * x.den
        return [Fraction(v, den) for v in a]


def coordinate_map(basis_elements) -> CoordinateMap:
    """The ``CoordinateMap`` of the given independent elements of one
    tower, built on first use and kept by ``TowerSpec.kept``, keyed by
    their numerators."""
    key = ("coordinate_map",) + tuple((b.num, b.den) for b in basis_elements)
    return basis_elements[0].tower.kept(key, lambda: CoordinateMap(basis_elements))


def subspace_coordinates(basis_elements, x):
    """Coordinates of x in the Q-span of the given independent elements, as
    ``Fraction``s, or None when x is outside it (or no element is given).

    They are read from the tower's ``CoordinateMap`` of the elements, built
    once per basis; a dependent basis raises SingularMatrix.
    """
    if not basis_elements:
        return None
    return coordinate_map(basis_elements).coordinates(x)
