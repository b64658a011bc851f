"""Shared helpers for the test suite: backward generation of valid
weak-CM period matrices from the standard forms, and small exact oracles
that are independent of the library code paths they check."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from weakcm import linalg, tausplit
from weakcm.errors import FactorizationInconclusive, InputError, InvalidCMType
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


def solve_left(A, B):
    """Solve X A = B, given the rows of A are independent, through
    ``linalg.solve_columns`` on the transposes; None when some row of B is
    outside the row span of A.  The oracle for ``linalg.column_relations``
    and for the c1/c2/M relations of a certificate."""
    X_t = linalg.solve_columns(linalg.transpose(A), linalg.transpose(B))
    if X_t is None:
        return None
    return linalg.transpose(X_t)


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
    ``linalg``'s integer ``CoordinateMap``."""
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


def fraction_params(t):
    """A tower's parameters as ``Fraction``s; the tower keeps integer
    pairs ``(num, den)``."""
    return {k: Fraction(*v) for k, v in t.params.items()}


def fraction_mul_table(t):
    """A tower's structure constants ``mul_table`` as ``Fraction``s."""
    return tuple(tuple(tuple(Fraction(*c) for c in cell) for cell in row)
                 for row in t.mul_table)


# the Fraction versions of the tower's number-theory helpers, which now take
# and give integer pairs: the oracles they are pinned against


def is_rational_square_by_fraction(x):
    x = Fraction(x)
    if x < 0:
        return False
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    return rn * rn == x.numerator and rd * rd == x.denominator


def rational_sqrt_by_fraction(x):
    """The positive root of a rational square, None for a non-square."""
    x = Fraction(x)
    if not is_rational_square_by_fraction(x):
        return None
    return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))


def square_class_by_fraction(a, d):
    a, d = Fraction(a), Fraction(d)
    if d == 0:
        return None
    return a != 0 and is_rational_square_by_fraction(a / d)


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
    return len(linalg.pivot_columns([p.coeffs for p in powers]))


def rational_value(x):
    """The rational number a rational tower element stands for."""
    assert not any(x.num[1:])
    return x.coeffs[0]


def is_identity(g):
    """Whether a Galois element fixes every tower generator."""
    return all(img == g.tower.gen_index(i) for i, img in enumerate(g.images))


def is_multiplicative(g):
    """g(b_i b_j) == g(b_i) g(b_j) on every pair of basis monomials, which
    suffices by bilinearity: the oracle of the towers' rule-table check."""
    t = g.tower
    for i in range(t.dim):
        bi = t.gen_index(i)
        for j in range(i, t.dim):
            bj = t.gen_index(j)
            if g(bi * bj) != g(bi) * g(bj):
                return False
    return True


def apply_galois(g, M):
    """g applied to each entry of the matrix M."""
    return [[g(x) for x in row] for row in M]


def mat_sub(A, B):
    """A - B, entrywise."""
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def same_structure(a, b):
    """Whether two CM Hodge structures have the same weight, slots, labels,
    pairing and group."""
    return (a.weight, a.slots, a.labels, a.rho, a.group) == (
        b.weight, b.slots, b.labels, b.rho, b.group)


def k3t2_counts_by_pairs(ts, e, character=None):
    """(tau_orbit_size, star1, star2, coset_types) of K3-type data ts times
    the elliptic pair e, from the factor pairs (g, h) alone: the direct
    product, or the graph of ``character`` (h1-index -> e.group index).
    Each pair sends the top slot to (g(top), h(e_top)); the distinct images
    are the cosets of the top form's stabilizer, typed by the label sum."""
    if character is None:
        pairs = [(g, h) for g in ts.group for h in e.group]
    else:
        pairs = [(g, e.group[character[i]]) for i, g in enumerate(ts.group)]
    (top,) = [s for s in ts.slots if ts.labels[s] == (2, 0)]
    (e_top,) = [t for t in e.slots if e.labels[t] == (1, 0)]
    moves = [(dict(zip(ts.slots, g))[top], dict(zip(e.slots, h))[e_top])
             for g, h in pairs]
    images = set(moves)
    star1 = sum(1 for s, t in moves if s == top and t == e.rho[e_top])
    star2 = sum(1 for s, t in moves if ts.labels[s] == (1, 1) and t == e_top)
    coset_types = {}
    for s, t in images:
        label = tuple(a + b for a, b in zip(ts.labels[s], e.labels[t]))
        coset_types[label] = coset_types.get(label, 0) + 1
    return len({t for _, t in images}), star1, star2, coset_types


def is_square_free_by_loop(n, bound):
    """Square-free test by trial division, a prime dividing n once divided
    out once; the oracle for ``tower.is_square_free``."""
    n = abs(int(n))
    if n == 0:
        return False
    if n <= 3:
        return True
    p = 2
    while p * p <= n and p <= bound:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1 if p == 2 else 2
    if n == 1 or n <= bound:
        return True
    root = math.isqrt(n)
    if root * root == n:
        return False
    if n <= bound * bound:
        return True
    raise FactorizationInconclusive(
        f"cannot certify square-freeness of remainder {n}; raise WEAKCM_FACTOR_BOUND"
    )


def squarefree_part_by_loop(x, bound):
    """Square-free part by trial division, each prime divided out fully;
    the oracle for ``tower.squarefree_part``."""
    x = Fraction(x)
    if x == 0:
        return 0
    n = x.numerator * x.denominator
    sign = 1 if n > 0 else -1
    n = abs(n)
    s = 1
    p = 2
    while p * p <= n and p <= bound:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                s *= p
        p += 1 if p == 2 else 2
    root = math.isqrt(n)
    if root * root == n:
        return sign * s
    if n <= bound * bound:
        return sign * s * n
    raise FactorizationInconclusive(
        f"cannot extract square-free part of remainder {n}; raise WEAKCM_FACTOR_BOUND"
    )


# ---------------------------------------------------------------- cmfield oracles


def random_field_params(rng, case):
    """Parameters of a random CM field of the given case (deg2, A, B, C),
    checked by ``cmfield.classify``."""
    from weakcm import cmfield

    def neg():
        return -Fraction(rng.randint(1, 12), rng.choice((1, 2, 3)))

    while True:
        if case == DEG2:
            params = {"p": neg()}
        elif case == CASE_A:
            params = {"p1": neg(), "p2": neg()}
        elif case == CASE_B:
            # p^2 = d (q^2 + e^2) with (q, e) = k (a, b) and d = a^2 + b^2
            d, (a, b) = rng.choice(((2, (1, 1)), (5, (1, 2)), (10, (1, 3)),
                                    (13, (2, 3)), (17, (1, 4)), (29, (2, 5))))
            k = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
            params = {"d": d, "p": -d * k, "q": rng.choice((a, b)) * k * rng.choice((1, -1))}
        else:
            params = {"d": rng.randint(2, 30), "p": -Fraction(rng.randint(1, 9)),
                      "q": Fraction(rng.randint(1, 3) * rng.choice((1, -1)))}
        try:
            if cmfield.classify(params).case == case:
                return params
        except InputError:
            continue


def galois_action_by_cosets(field):
    """(action, pairing) of the closure's automorphisms on the embeddings
    of K', each embedding found as the coset g H of the pointwise
    stabiliser H of phi'(K'), by composing automorphisms; the oracle for
    ``cmfield.galois_group``."""
    t = field.tower
    elements = t.galois_elements()
    field_basis = field.field_basis_elements()
    H = [g for g in elements if all(g(x) == x for x in field_basis)]
    assert len(elements) == field.degree * len(H)
    index_of = {g: i for i, g in enumerate(elements)}

    def coset(g):
        return frozenset(index_of[g.compose(h)] for h in H)

    if field.case == DEG2:
        reps = [elements[0], t.generators["rho"]]
    elif field.case == CASE_A:
        s1, s2 = t.generators["s1"], t.generators["s2"]
        reps = [elements[0], s1, s2, s1.compose(s2)]
    else:
        s0 = t.generators["s0"]
        reps = [elements[0], s0, s0.compose(s0), s0.compose(s0).compose(s0)]
    cosets = [coset(r) for r in reps]
    assert len(set(cosets)) == len(cosets)
    coset_index = {c: i for i, c in enumerate(cosets)}
    action = tuple(tuple(coset_index[coset(g.compose(r))] for r in reps)
                   for g in elements)
    conj_index = next(i for i, g in enumerate(elements) if g == t.conjugation)
    return action, action[conj_index]


# ---------------------------------------------------------------- Dodson oracles


def element_key(g):
    """Total order on Im(N,2) elements written out by hand: bits as a binary
    integer (bits[0] the high bit), then the one-line permutation; the
    oracle for the ``ImN2Element`` tuple order that the library sorts by."""
    bits_int = 0
    for b in g.bits:
        bits_int = (bits_int << 1) | b
    return (bits_int, g.perm)


def subgroup_key(elements):
    """The ``element_key`` order extended to element sets, as sorted keys."""
    return tuple(sorted(element_key(g) for g in elements))


def group_from_triple_by_tuples(t):
    """``(condition, elements)`` of the triple (G0, V, s) by tuple
    arithmetic: the name of the first violated triple condition, the six
    subgroup conditions before transitivity and rho, or None and the
    subgroup's elements in ``element_key`` order; the oracle for
    ``dodson_core.group_from_triple``."""
    from weakcm.dodson_core import ImN2Element, _is_transitive, perm_apply_bits, perm_mul

    def xor(a, b):
        return tuple(x ^ y for x, y in zip(a, b))

    N = t.N
    ident = tuple(range(N))
    g0, v, s = set(t.g0), set(t.v), dict(t.s)
    zero = (0,) * N

    def first_violation():
        if ident not in g0 or any(perm_mul(a, b) not in g0 for a in g0 for b in g0):
            return "g0-subgroup"
        if zero not in v or any(xor(a, b) not in v for a in v for b in v):
            return "v-subgroup"
        if any(perm_apply_bits(p, w) not in v for p in g0 for w in v):
            return "v-stability"
        if set(s) != g0:
            return "cocycle-domain"
        if s[ident] not in v:
            return "cocycle-normalized"
        if any(xor(s[perm_mul(g, h)], xor(s[g], perm_apply_bits(g, s[h]))) not in v
               for g in g0 for h in g0):
            return "cocycle"
        if not _is_transitive(t.g0, N):
            return "transitivity"
        if (1,) * N not in v:
            return "contains-rho"
        return None

    condition = first_violation()
    if condition is not None:
        return condition, None
    elements = [ImN2Element(xor(s[g], w), g) for g in g0 for w in v]
    return None, tuple(sorted(elements, key=element_key))




def im_mul(a, b):
    """Product of Im(N,2) elements from the group law: (ba, pa)(bb, pb) =
    (ba ^ pa.bb, pa pb)."""
    from weakcm.dodson_core import ImN2Element, perm_apply_bits, perm_mul

    bits = tuple(x ^ y for x, y in zip(a.bits, perm_apply_bits(a.perm, b.bits)))
    return ImN2Element(bits, perm_mul(a.perm, b.perm))


def missing_product_by_loop(elements):
    """None when the Im(N,2) elements are closed under ``im_mul`` (a finite
    closed set is a group), else the first missing product 'a * b = ab is
    missing' in ``ImN2Element`` order, from all |G|^2 products; the oracle
    for ``dodson_core.missing_product``."""
    present = set(elements)
    ordered = sorted(present)
    for a in ordered:
        for b in ordered:
            ab = im_mul(a, b)
            if ab not in present:
                a_s, b_s, ab_s = (f"(bits {list(g.bits)}, perm {list(g.perm)})"
                                  for g in (a, b, ab))
                return f"{a_s} * {b_s} = {ab_s} is missing"
    return None


def im_inv(a):
    """Inverse of an Im(N,2) element from the group law: (bits, perm)^-1 =
    (perm^-1 . bits, perm^-1)."""
    from weakcm.dodson_core import ImN2Element, perm_inv

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


def stabilizer_by_universe(U, partition):
    """The indices of S~ among all of ``U.elements``: the elements that map
    every block of the partition into itself; the oracle for
    ``HodgePartition.stabilizer``."""
    from weakcm import dodson_core

    return [i for i, g in enumerate(U.elements)
            if all(dodson_core.act_slot(g, s) in slots
                   for _, slots in partition.blocks for s in slots)]


def classify_by_bfs(N, partition, bound=4):
    """(representative, orbit size, tag) per S~-class: one breadth-first
    orbit per admissible subgroup, each class named by the minimal
    ``subgroup_key`` in its orbit, sorted by it; the oracle for
    ``dodson_classes.classify_conjugacy``."""
    from weakcm import dodson, dodson_classes, dodson_core

    U = dodson.universe(N)
    stab_idx = stabilizer_by_universe(U, partition)
    by_class = {}
    for G in dodson_classes.enumerate_admissible(N, bound=bound):
        orbit = conjugacy_orbit_bfs(U, stab_idx, frozenset(U.index[g] for g in G))
        members = [tuple(sorted((U.elements[i] for i in K), key=element_key))
                   for K in orbit]
        rep = min(members, key=subgroup_key)
        by_class.setdefault(subgroup_key(rep), (rep, len(orbit)))
    return [(rep, size, dodson_core.triple_from_group(rep).tag())
            for _, (rep, size) in sorted(by_class.items())]


def burnside_class_count(N, partition, bound=4):
    """Number of S~-classes of admissible subgroups by Burnside's lemma,
    (1/|S~|) sum over s in S~ of #{H : s H s^-1 = H}, with no orbit and no
    canonical choice; each fixed point is tested element by element."""
    from weakcm import dodson, dodson_classes

    U = dodson.universe(N)
    mul, inv = U.mul, U.inv
    stab = stabilizer_by_universe(U, partition)
    subgroups = [frozenset(U.index[g] for g in G)
                 for G in dodson_classes.enumerate_admissible(N, bound=bound)]
    fixed = 0
    for s in stab:
        row, si = mul[s], inv[s]
        fixed += sum(all(mul[row[h]][si] in H for h in H) for H in subgroups)
    assert fixed % len(stab) == 0
    return fixed // len(stab)


def reflex_by_cosets(ct, n):
    """The level-n data of a weight-1 CM type by a coset search on the
    ``universe(N)`` tables: the stabiliser of Phi, every left coset
    multiplied out through ``U.mul``, rho and the action on cosets by
    multiplying a representative; the group named by
    ``identify_group_by_universe``; the class tag by
    ``class_tag_by_table``.  The oracle for ``dodson_reflex.reflex_from_dodson``."""
    from weakcm import dodson, dodson_core, dodson_reflex

    if n != ct.N:
        raise InvalidCMType(
            f"n = {n} does not match the {ct.N} pairs carried by the type"
        )
    U = dodson.universe(ct.N)
    phi = frozenset(ct.phi)
    idx = {g: U.index[g] for g in ct.group}

    def act_phi(g, subset):
        return frozenset(dodson_core.act_slot(g, s) for s in subset)

    stab_idx = {idx[g] for g in ct.group if act_phi(g, phi) == phi}
    cosets = {}
    coset_of = {}
    for g in ct.group:
        members = frozenset(U.mul[idx[g]][h] for h in stab_idx)
        if members not in cosets:
            cosets[members] = act_phi(g, phi)
        coset_of[idx[g]] = members
    hodge = {}
    labels = {}
    for members, image in cosets.items():
        p = len(image & phi)
        hodge[(p, n - p)] = hodge.get((p, n - p), 0) + 1
        labels[members] = (p, n - p)
    rho_map = {members: coset_of[U.mul[U.rho_idx][next(iter(members))]]
               for members in cosets}
    actions = [{members: coset_of[U.mul[idx[g]][next(iter(members))]]
                for members in cosets} for g in ct.group]
    items = sorted(cosets, key=dodson_reflex._sort_key)
    induced, pair_labels = dodson_reflex.induced_pair_group(items, rho_map, actions, labels)
    triple = dodson_core.triple_from_group(induced)
    report = dodson_reflex.ReflexReport(
        n=n,
        degree=len(cosets),
        n_prime=len(cosets) // 2,
        hodge_numbers=dict(sorted(hodge.items(), key=lambda kv: (-kv[0][0],))),
        group=induced,
        triple=triple,
        tag=triple.tag(),
        bound_ok=len(cosets) <= 2 ** n,
        pair_labels=pair_labels,
        group_name=identify_group_by_universe(induced),
    )
    return report._replace(class_tag=class_tag_by_table(report))


@lru_cache(maxsize=None)
def class_table(N, partition):
    """``classify_by_bfs`` kept per partition, for ``class_tag_by_table``."""
    return tuple(classify_by_bfs(N, partition))


def find_class(elements, classes, partition):
    """Index in ``classes`` (as ``classify_by_bfs`` lists them) of the
    S~-class of the subgroup: the class whose representative lies in the
    subgroup's breadth-first orbit on the ``universe(N)`` tables."""
    from weakcm import dodson

    U = dodson.universe(partition.N)
    orbit = conjugacy_orbit_bfs(U, stabilizer_by_universe(U, partition),
                                frozenset(U.index[g] for g in elements))
    for i, (rep, _, _) in enumerate(classes):
        if frozenset(U.index[g] for g in rep) in orbit:
            return i
    raise AssertionError("subgroup is not in any enumerated class")


def class_tag_by_table(report):
    """The class tag of the induced data of a reflex report: for n' = 3,
    the tag of its class in the class table of the partition its pair
    labels define, found by ``find_class``; the oracle for
    ``dodson_reflex._class_tag``."""
    from weakcm import dodson_core

    if report.n_prime == 1:
        return "Deg2"
    if report.n_prime == 2:
        return dodson_core.quartic_case_alias(report.triple)
    if report.n_prime != 3:
        return report.tag
    labelled = [((i, b), (q, p) if b else (p, q))
                for i, (p, q) in report.pair_labels.items() for b in (0, 1)]
    part = dodson_core.partition_from_labels(3, report.n, labelled)
    classes = class_table(3, part)
    return classes[find_class(report.group, classes, part)][2]


def identify_group_by_universe(elements):
    """The name ``dodson_reflex.identify_group`` gives, with the invariants read
    off the ``universe(N)`` tables restricted to the subgroup; its oracle."""
    from weakcm import dodson, dodson_reflex

    U = dodson.universe(elements[0].N)
    invariants = dodson_reflex._group_invariants(U.mul, U.inv, [U.index[g] for g in elements])
    return dodson_reflex._GROUP_NAMES.get(invariants, f"order-{invariants[0]}")


class CayleyTable:
    """Finite group as an index table, built from an element product; the
    oracle for ``dodson_reflex._group_invariants``."""

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
    from weakcm.dodson_core import perm_mul

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
    """The reference groups of ``dodson_reflex.LEVEL_GROUP_MODELS`` as Cayley
    tables; the oracle for ``dodson_reflex._MODEL_INVARIANTS``."""
    from weakcm.dodson import universe

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
