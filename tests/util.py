"""Shared helpers for the test suite: backward generation of valid
weak-CM period matrices from the standard forms, and small exact oracles
that are independent of the library code paths they check."""

import itertools
from fractions import Fraction

from weakcm import linalg, tausplit
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


# ---------------------------------------------------------------- tower oracles


def min_poly_degree(x):
    """Degree of x over Q: the rank of 1, x, ..., x^(dim-1).

    The powers up to x^(d-1) are independent and every later power lies in
    their span, so the rank of the first dim powers is d.
    """
    powers = [x.tower.one()]
    for _ in range(x.tower.dim - 1):
        powers.append(powers[-1] * x)
    return linalg.row_rank([p.coeffs for p in powers])


def rational_value(x):
    """The rational number a rational tower element stands for."""
    assert x.is_rational()
    return x.coeffs[0]


def is_identity(g):
    """Whether a Galois element fixes every tower generator."""
    return all(img == g.tower.gen_index(i) for i, img in enumerate(g.images))


def same_structure(a, b):
    """Whether two CM Hodge structures have the same weight, slots, labels,
    pairing and group."""
    return (a.weight, a.slots, a.labels, a.rho, a.group) == (
        b.weight, b.slots, b.labels, b.rho, b.group)


# ---------------------------------------------------------------- Dodson oracles


def im_inv(a):
    """Inverse of an Im(N,2) element from the group law: (bits, perm)^-1 =
    (perm^-1 . bits, perm^-1)."""
    from weakcm.dodson import ImN2Element, perm_inv

    return ImN2Element(tuple(a.bits[a.perm[i]] for i in range(len(a.bits))),
                       perm_inv(a.perm))


def is_subgroup(U, idxs):
    """Whether universe indices form a subgroup: the identity, and every
    product over the Im(N,2) tables; O(|G|^2) lookups."""
    s = set(idxs)
    return U.identity_idx in s and all(U.mul[a][b] in s for a in s for b in s)


def conjugacy_orbit_bfs(U, stab_idx, H):
    """Orbit of the index set H under conjugation by ``stab_idx``, found
    breadth first: every orbit member is conjugated by every element, so it
    does not rely on ``stab_idx`` being a group."""
    orbit = {H}
    frontier = [H]
    while frontier:
        new = []
        for K in frontier:
            for s in stab_idx:
                C = U.conjugate(s, K)
                if C not in orbit:
                    orbit.add(C)
                    new.append(C)
        frontier = new
    return orbit


def classify_by_bfs(N, partition, bound=4):
    """(representative, orbit size, tag) per S~-class: one breadth-first
    orbit per admissible subgroup, each class named by the minimal
    ``subgroup_key`` in its orbit, sorted by it; the oracle for
    ``dodson.classify_conjugacy``."""
    from weakcm import dodson

    U = dodson.universe(N)
    stab_idx = [U.index[g] for g in partition.stabilizer()]
    by_class = {}
    for G in dodson.enumerate_admissible(N, bound=bound):
        orbit = conjugacy_orbit_bfs(U, stab_idx, frozenset(U.index[g] for g in G))
        members = [tuple(sorted((U.elements[i] for i in K), key=dodson.element_key))
                   for K in orbit]
        rep = min(members, key=dodson.subgroup_key)
        by_class.setdefault(dodson.subgroup_key(rep), (rep, len(orbit)))
    return [(rep, size, dodson.triple_from_group(rep).tag())
            for _, (rep, size) in sorted(by_class.items())]


def burnside_class_count(N, partition, bound=4):
    """Number of S~-classes of admissible subgroups by Burnside's lemma,
    (1/|S~|) sum over s in S~ of #{H : s H s^-1 = H}, with no orbit and no
    canonical choice; each fixed point is tested element by element."""
    from weakcm import dodson

    U = dodson.universe(N)
    mul, inv = U.mul, U.inv
    stab = [U.index[g] for g in partition.stabilizer()]
    subgroups = [frozenset(U.index[g] for g in G)
                 for G in dodson.enumerate_admissible(N, bound=bound)]
    fixed = 0
    for s in stab:
        row, si = mul[s], inv[s]
        fixed += sum(all(mul[row[h]][si] in H for h in H) for H in subgroups)
    assert fixed % len(stab) == 0
    return fixed // len(stab)


class CayleyTable:
    """Finite group as an index table, built from an element product; the
    oracle for ``dodson._group_invariants``."""

    def __init__(self, elements, mul_fn):
        self.elements = list(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.mul = [[self.index[mul_fn(a, b)] for b in self.elements]
                    for a in self.elements]
        n = len(self.elements)
        self.identity = next(e for e in range(n)
                             if all(self.mul[e][x] == x == self.mul[x][e]
                                    for x in range(n)))
        self.inv = [row.index(self.identity) for row in self.mul]

    def element_order(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.mul[x][a]
            k += 1
        return k

    def commutator_subgroup(self):
        inv = self.inv
        els = {self.mul[self.mul[a][b]][self.mul[inv[a]][inv[b]]]
               for a in range(len(self.elements)) for b in range(len(self.elements))}
        els.add(self.identity)
        frontier = list(els)
        while frontier:
            new = []
            for a in list(els):
                for b in frontier:
                    c = self.mul[a][b]
                    if c not in els:
                        els.add(c)
                        new.append(c)
            frontier = new
        return els

    def invariants(self):
        """(order, element-order histogram, |G^ab|): iso invariants."""
        hist = {}
        for a in range(len(self.elements)):
            k = self.element_order(a)
            hist[k] = hist.get(k, 0) + 1
        n = len(self.elements)
        return n, tuple(sorted(hist.items())), n // len(self.commutator_subgroup())


def _cyclic_product(*orders):
    elems = list(itertools.product(*(range(k) for k in orders)))

    def mul(a, b):
        return tuple((x + y) % k for x, y, k in zip(a, b, orders))

    return CayleyTable(elems, mul)


def _perm_product(perms, cyclic_order):
    from weakcm.dodson import perm_mul

    elems = [(c, p) for c in range(cyclic_order) for p in perms]

    def mul(a, b):
        return ((a[0] + b[0]) % cyclic_order, perm_mul(a[1], b[1]))

    return CayleyTable(elems, mul)


def _perm_sign(p):
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def model_group(name):
    """The reference groups of ``dodson.LEVEL_GROUP_MODELS`` as Cayley
    tables; the oracle for ``dodson._MODEL_INVARIANTS``."""
    from weakcm.dodson import im_mul, universe

    if name == "Z2^3":
        return _cyclic_product(2, 2, 2)
    if name == "Z2xZ4":
        return _cyclic_product(2, 4)
    if name == "Z2xD4":
        # D4 realized as Im(2,2)
        d4 = universe(2).elements
        return CayleyTable([(c, g) for c in range(2) for g in d4],
                           lambda a, b: ((a[0] + b[0]) % 2, im_mul(a[1], b[1])))
    if name == "Z2xA4":
        a4 = [p for p in itertools.permutations(range(4)) if _perm_sign(p) == 1]
        return _perm_product(a4, 2)
    if name == "Z2xS4":
        return _perm_product(list(itertools.permutations(range(4))), 2)
    raise KeyError(name)
