"""Pair-preserving permutation groups and their triple coordinates.

The group Im(N,2) of permutations of 2N signed slots {phi_1, phibar_1, ...,
phi_N, phibar_N} that preserve the N conjugate pairs is (Z2)^N x| S_N.  An
element is (bits, perm): perm moves the pairs, bits records which target
pairs get flipped.  Slot action: (bits, perm) . (i, s) = (perm[i],
s ^ bits[perm[i]]).

A subgroup G is admissible when its projection to S_N is transitive and it
contains the all-flip central element rho.  Such subgroups are coordinatized
by triples (G0, V, s): the permutation image, the bit subgroup G cap (Z2)^N,
and the one-cocycle g -> (bit coset over g).  ``enumerate_admissible`` lists
them from the triples: transitive G0 <= S_N, G0-stable V containing rho, and
the cocycles G0 -> (Z2)^N / V found by propagating generator values over G0.
Classification of admissible subgroups is modulo conjugation by the
stabilizer of a Hodge-type partition of the slots.

Every library computation works on the S_N tables (``_sn_tables``): the
triple checks, the subgroup test of element lists, the enumeration, the
stabilizers, the conjugacy orbits, the reflex data and the group names.
The |Im(N,2)|^2 table ``universe(N)`` (``_Universe``) is built only by the
brute-force lattice walk ``_enumerate_admissible_walk`` and by the test
oracles.  All three stay in this module because ``perfbench/spans.py``
wraps them here by name.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    BoundExceeded,
    InvalidCMType,
    InvalidPairCount,
    InvalidPartition,
    InvalidTriple,
    NotAdmissible,
)

Slot = tuple  # (pair index, bar flag)


class ImN2Element(NamedTuple):
    bits: tuple
    perm: tuple

    @property
    def N(self):
        return len(self.bits)


def perm_mul(a, b):
    """(a b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_inv(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def perm_apply_bits(perm, bits):
    """(perm . bits)_i = bits_{perm^-1(i)}."""
    inv = perm_inv(perm)
    return tuple(bits[inv[i]] for i in range(len(bits)))


def im_identity(N) -> ImN2Element:
    return ImN2Element((0,) * N, tuple(range(N)))


def im_rho(N) -> ImN2Element:
    return ImN2Element((1,) * N, tuple(range(N)))


def act_slot(g: ImN2Element, slot: Slot) -> Slot:
    i, s = slot
    j = g.perm[i]
    return (j, s ^ g.bits[j])


# --------------------------------------------------------------------------
# the ambient group as index tables, tabulated from (Z2)^N x| S_N

UNIVERSE_BOUND = 5  # Dodson computations are bounded to N <= 5: |Im(5,2)| = 3840


@lru_cache(maxsize=None)
def _sn_index(N: int):
    """``(bit_idx, perm_idx)``: each bit vector's and permutation's index in
    ``_sn_tables``, the dicts in that order."""
    return ({b: i for i, b in enumerate(itertools.product((0, 1), repeat=N))},
            {p: i for i, p in enumerate(itertools.permutations(range(N)))})


@lru_cache(maxsize=None)
def _sn_tables(N: int):
    """S_N and its action on (Z2)^N as index tables.

    Returns ``(bitvecs, perms, pmul, act, pinv)``: the bit vectors in
    ``itertools.product`` order, so that index == ``bits_int`` (bits[0] is
    the high bit); the permutations in lexicographic order, so that index 0
    is the identity; ``pmul[p][q]`` the index of pq; ``act[p][b]`` the index
    of p.b; ``pinv[p]`` the index of p^-1.
    """
    bit_idx, perm_idx = _sn_index(N)
    bitvecs, perms = list(bit_idx), list(perm_idx)
    pmul = [[perm_idx[perm_mul(p, q)] for q in perms] for p in perms]
    act = [[bit_idx[perm_apply_bits(p, b)] for b in bitvecs] for p in perms]
    pinv = [perm_idx[perm_inv(p)] for p in perms]
    return bitvecs, perms, pmul, act, pinv


class _Universe:
    """Im(N,2) as integer index tables: ``elements``, ``index``, ``mul``,
    ``inv``, ``identity_idx`` and ``rho_idx``, for the walk and the oracles.

    Element (bits, perm) has index ``bits_int * N! + rank(perm)``, where
    ``bits_int`` reads bits[0] as the high bit and ``rank`` is the
    lexicographic rank among the permutations of range(N); this is the
    ``ImN2Element`` order (bits, then perm).  With F = N!, the product
    (ba, pa)(bb, pb) = (ba ^ pa.bb, pa pb) has index
    ``(ba ^ act[pa][bb]) * F + pmul[pa][pb]``, so the row of ``mul`` for
    (ba, pa) is the concatenation over bb of the F-entry block
    ``shifted[ba ^ act[pa][bb]][pa]``, where ``shifted[c][pa]`` is the S_N
    row ``pmul[pa]`` offset by ``c * F``.  Rows share the blocks' int
    objects, so the table costs only its list pointers.
    """

    def __init__(self, N: int):
        self.N = N
        bitvecs, perms, pmul, act, pinv = _sn_tables(N)
        B, F = len(bitvecs), len(perms)

        self.elements = [ImN2Element(b, p) for b in bitvecs for p in perms]
        self.index = {g: i for i, g in enumerate(self.elements)}
        shifted = [[[c * F + x for x in row] for row in pmul] for c in range(B)]
        self.mul = []
        for ba in range(B):
            for pa in range(F):
                row = []
                for c in act[pa]:
                    row += shifted[ba ^ c][pa]
                self.mul.append(row)
        self.inv = [act[pinv[pa]][ba] * F + pinv[pa]
                    for ba in range(B) for pa in range(F)]
        self.identity_idx = self.index[im_identity(N)]
        self.rho_idx = self.index[im_rho(N)]

    def closure(self, seed):
        """Subgroup generated by the seed indices (for the walk oracle)."""
        return self.closure_extend(frozenset({self.identity_idx}), seed)

    def closure_extend(self, closed, extra):
        """Closure of an already-closed subgroup plus extra elements.

        Worklist form: only products involving a new element are computed,
        so extending a large subgroup by one generator is cheap.
        """
        mul = self.mul
        els = set(closed)
        work = [g for g in extra if g not in els]
        for g in work:
            els.add(g)
        while work:
            w = work.pop()
            for x in list(els):
                for c in (mul[x][w], mul[w][x]):
                    if c not in els:
                        els.add(c)
                        work.append(c)
        return frozenset(els)

    def conjugate(self, g_idx, idxs):
        gi = self.inv[g_idx]
        return frozenset(self.mul[self.mul[g_idx][h]][gi] for h in idxs)


@lru_cache(maxsize=None)
def universe(N: int) -> _Universe:
    """The ``_Universe`` tables of Im(N,2), for the walk and the test oracles."""
    _check_universe_bound(N)
    return _Universe(N)


def _check_universe_bound(N: int):
    if N > UNIVERSE_BOUND:
        raise BoundExceeded(
            f"Im({N},2) has order {im_order(N)}; Dodson computations are "
            f"bounded to N <= {UNIVERSE_BOUND}"
        )


def im_order(N: int) -> int:
    import math

    return (2 ** N) * math.factorial(N)


# --------------------------------------------------------------------------
# triples


class DodsonTriple(NamedTuple):
    """Coordinates (G0, V, s) of an admissible subgroup of Im(N,2)."""

    N: int
    g0: tuple          # sorted one-line permutations
    v: tuple           # sorted bit vectors
    s: tuple           # pairs (perm, canonical coset representative bits)

    @property
    def v_rank(self) -> int:
        n = len(self.v)
        return n.bit_length() - 1  # |V| = 2^v

    def is_trivial_cocycle(self) -> bool:
        return all(bits in set(self.v) for _, bits in self.s)

    def tag(self) -> str:
        s_label = "triv." if self.is_trivial_cocycle() else "non-triv."
        return f"({perm_group_name(self.g0, self.N)},{self.v_rank},{s_label})"


def _is_transitive(perms, N) -> bool:
    reached = {0}
    frontier = [0]
    for i in frontier:
        for j in {p[i] for p in perms} - reached:
            reached.add(j)
            frontier.append(j)
    return len(reached) == N


def perm_group_name(perms, N: int) -> str:
    """Conventional name of a permutation group on N points (small N only)."""
    import math

    order = len(perms)
    if order == math.factorial(N):
        return f"S{N}"
    if N == 4 and order == 12:
        return "A4"
    orders = sorted(_perm_order(p) for p in perms)
    if order in orders:  # cyclic
        return f"Z{order}"
    if N == 4 and order == 4:
        return "V4"
    if N == 4 and order == 8:
        return "D4"
    return f"G{order}"


def _perm_order(p) -> int:
    q = p
    k = 1
    ident = tuple(range(len(p)))
    while q != ident:
        q = perm_mul(q, p)
        k += 1
    return k


# the message of condition "dodson-triple:<name>" for a triple or an element list
_CONDITIONS = {
    (InvalidTriple, "g0-subgroup"): "G0 is not a subgroup of S_N",
    (InvalidTriple, "v-subgroup"): "V is not a subgroup of (Z2)^N",
    (InvalidTriple, "v-stability"): "V is not stable under the G0 action",
    (InvalidTriple, "cocycle-domain"): "cocycle is not defined on exactly G0",
    (InvalidTriple, "cocycle-normalized"): "cocycle is not normalized: s(1) not in V",
    (InvalidTriple, "cocycle"): "s violates the one-cocycle identity",
    (InvalidTriple, "transitivity"): "G0 does not act transitively on the N pairs",
    (InvalidTriple, "contains-rho"): "V does not contain the diagonal rho",
    (NotAdmissible, "subgroup"): "element list is not a subgroup of Im(N,2)",
    (NotAdmissible, "transitivity"): "permutation image is not transitive",
    (NotAdmissible, "contains-rho"): "bit subgroup does not contain the diagonal rho",
}


def _violation(error, name):
    """The ``error`` for the named condition, with its message."""
    exc = error(_CONDITIONS[error, name])
    exc.condition = f"dodson-triple:{name}"
    return exc


def _triple_violation(N, g0, v, s):
    """The first subgroup condition the triple (G0, V, s) violates, or None,
    on ``_sn_tables`` indices: ``g0`` and ``v`` sets, ``s`` a dict on G0;
    None stands for an entry outside S_N or (Z2)^N."""
    _, _, pmul, act, _ = _sn_tables(N)
    if None in g0 or 0 not in g0 or any(pmul[g][h] not in g0 for g in g0 for h in g0):
        return "g0-subgroup"
    span = {0}
    for x in v:
        if x not in span and x is not None and len(span) <= len(v):
            span |= {x ^ y for y in span}
    if span != v:
        return "v-subgroup"
    if any(act[g][w] not in v for g in g0 for w in v):
        return "v-stability"
    if s.keys() != g0:
        return "cocycle-domain"
    if s[0] not in v:
        return "cocycle-normalized"
    if None in s.values() or any(s[pmul[g][h]] ^ s[g] ^ act[g][s[h]] not in v
                                 for g in g0 for h in g0):
        return "cocycle"
    return None


def _lift(N, s, v):
    """The elements (s(x) + w, x), w in V, in ``ImN2Element`` order, for
    ``s`` a dict on ``_sn_tables`` indices."""
    F = len(_sn_tables(N)[1])
    return _elements(N, sorted((sx ^ w) * F + x for x, sx in s.items() for w in v))


def _elements(N, idxs):
    """The Im(N,2) elements with the given indices, in that order.  The
    index of (bits, perm) is bits_int * N! + perm rank (from ``_sn_index``),
    so increasing indices are in ``ImN2Element`` order (bits, then perm)."""
    bitvecs, perms, _, _, _ = _sn_tables(N)
    F = len(perms)
    return tuple(ImN2Element(bitvecs[i // F], perms[i % F]) for i in idxs)


def _indices(elements):
    """The indices of Im(N,2) elements, as ``_elements`` reads them."""
    bit_idx, perm_idx = _sn_index(elements[0].N)
    F = len(perm_idx)
    return [bit_idx[g.bits] * F + perm_idx[g.perm] for g in elements]


def triple_from_group(elements) -> DodsonTriple:
    """Extract the (G0, V, s) coordinates; raises NotAdmissible otherwise.

    N is capped by ``UNIVERSE_BOUND``, like every Im(N,2) computation.
    """
    elements = tuple(elements)
    if not elements:
        raise NotAdmissible("empty element list")
    N = elements[0].N
    _check_universe_bound(N)
    fibres = _fibres(elements)
    if not _fibres_form_subgroup(fibres, N):
        raise _violation(NotAdmissible, "subgroup")
    g0 = sorted(fibres)
    if not _is_transitive(g0, N):
        raise _violation(NotAdmissible, "transitivity")
    v = sorted(fibres[tuple(range(N))])
    if (1,) * N not in v:
        raise _violation(NotAdmissible, "contains-rho")
    s = sorted((p, min(fibre)) for p, fibre in fibres.items())
    return DodsonTriple(N=N, g0=tuple(g0), v=tuple(v), s=tuple(s))


def _fibres(elements):
    """The bit fibres ``{perm: set of bits}`` of Im(N,2) elements."""
    fibres = {}
    for g in elements:
        fibres.setdefault(g.perm, set()).add(g.bits)
    return fibres


def _fibres_form_subgroup(fibres, N) -> bool:
    """Whether the elements with bit fibres ``{perm: set of bits}`` form a
    subgroup of Im(N,2), in O(|G0|^2 + |G0| |V|) without the Im(N,2)
    tables: exactly when each fibre is a coset s(g) + V of the fibre V over
    the identity and the triple (G0, V, s) passes ``_triple_violation``.
    Called by ``triple_from_group`` and ``missing_product``."""
    bit_idx, perm_idx = _sn_index(N)
    fib = {perm_idx[p]: {bit_idx[b] for b in bits} for p, bits in fibres.items()}
    v = fib.get(0, set())
    s = {g: min(bits) for g, bits in fib.items()}
    if any(len(bits) != len(v) or any(s[g] ^ w not in bits for w in v)
           for g, bits in fib.items()):
        return False
    return _triple_violation(N, fib.keys(), v, s) is None


def missing_product(elements):
    """None when the Im(N,2) elements form a subgroup, as decided by
    ``_fibres_form_subgroup``; otherwise the witness 'a * b = ab is missing'
    for the first pair (a, b) of listed elements, in ``ImN2Element`` order,
    whose product is not listed, found on the S_N tables by the product
    formula of ``_subgroup_table``.  N is capped by ``UNIVERSE_BOUND``."""
    N = elements[0].N
    _check_universe_bound(N)
    if _fibres_form_subgroup(_fibres(elements), N):
        return None
    _, _, pmul, act, _ = _sn_tables(N)
    F = len(pmul)
    present = set(_indices(elements))
    G = [divmod(x, F) for x in sorted(present)]
    for ba, pa in G:
        for bb, pb in G:
            ab = (ba ^ act[pa][bb]) * F + pmul[pa][pb]
            if ab not in present:
                a_s, b_s, ab_s = (f"(bits {list(g.bits)}, perm {list(g.perm)})"
                                  for g in _elements(N, (ba * F + pa, bb * F + pb, ab)))
                return f"{a_s} * {b_s} = {ab_s} is missing"


def group_from_triple(t: DodsonTriple):
    """Reconstruct the subgroup; validates every triple condition by name,
    those of ``_triple_violation`` first.  N is capped by ``UNIVERSE_BOUND``."""
    N = t.N
    _check_universe_bound(N)
    bit_idx, perm_idx = _sn_index(N)
    g0 = {perm_idx.get(p) for p in t.g0}
    v = {bit_idx.get(b) for b in t.v}
    s = {perm_idx.get(p): bit_idx.get(b) for p, b in t.s}
    name = _triple_violation(N, g0, v, s)
    if name is None and not _is_transitive(t.g0, N):
        name = "transitivity"
    if name is None and len(bit_idx) - 1 not in v:
        name = "contains-rho"
    if name is not None:
        raise _violation(InvalidTriple, name)
    return _lift(N, s, v)


# --------------------------------------------------------------------------
# enumeration and classification

ENUMERATION_BOUND_DEFAULT = 4


@lru_cache(maxsize=None)
def _enumerate_admissible_cached(N: int):
    return tuple(_enumerate_admissible_triples(N))


def enumerate_admissible(N: int, bound: int = ENUMERATION_BOUND_DEFAULT):
    """All admissible subgroups of Im(N,2), each as its sorted element tuple
    (``ImN2Element`` order: bits, then perm), the list sorted.

    Built from the triples (G0, V, s), not by searching Im(N,2): see
    ``_enumerate_admissible_triples``.  N is capped by ``bound`` and, like
    every Im(N,2) table, by ``UNIVERSE_BOUND``; both are checked before any
    work, after ``InvalidPairCount`` for N < 1.  The lattice walk
    ``_enumerate_admissible_walk`` is the test oracle for this list.
    """
    if N < 1:
        raise InvalidPairCount(
            f"N = {N} is below 1: Im(N,2) needs at least one conjugate pair"
        )
    if N > bound:
        raise BoundExceeded(f"N = {N} exceeds the enumeration bound {bound}")
    _check_universe_bound(N)
    return list(_enumerate_admissible_cached(N))


def _enumerate_admissible_triples(N: int):
    """Every admissible subgroup once, from its coordinates (G0, V, s).

    G0 runs over the transitive subgroups of S_N, V over the G0-stable
    subspaces of (Z2)^N that contain rho, and s over the one-cocycles
    G0 -> (Z2)^N / V.  A cocycle is fixed by its values on a generating list
    of G0, so each choice of coset representatives on the generators is
    propagated over G0 (``_propagate_cocycle``) and dropped at its first
    inconsistency.  Distinct triples give distinct subgroups, so nothing is
    deduplicated.  Each subgroup is built by ``_lift`` as a sorted element
    tuple, and the tuples sort in the ``ImN2Element`` order (bits, then perm).
    """
    bitvecs, perms, pmul, act, _ = _sn_tables(N)
    subspaces = _rho_subspaces(N)
    found = []
    for g0, gens in _sn_subgroups(N).items():
        if not _is_transitive([perms[x] for x in g0], N):
            continue
        for v in subspaces:
            if any(act[g][w] not in v for g in gens for w in v):
                continue
            rep = [min(b ^ w for w in v) for b in range(len(bitvecs))]
            for values in itertools.product(sorted(set(rep)), repeat=len(gens)):
                s = _propagate_cocycle(pmul, act, rep, gens, values)
                if s is not None:
                    found.append(_lift(N, s, v))
    return sorted(found)


def _propagate_cocycle(pmul, act, rep, gens, values):
    """The map s: G0 -> coset representatives with s(gens[i]) = values[i]
    and s(g x) = s(g) + g.s(x) mod V, or None if there is none.

    Breadth-first over G0 = <gens> from s(1) = 0.  Every (x, generator) pair
    is checked, so on success the lifts {(s(x) + V, x)} are closed under
    left multiplication by the lifted generators; they then form a subgroup
    of (Z2)^N / V x| G0 and s is a one-cocycle on all of G0.
    """
    s = {0: 0}
    order = [0]
    for x in order:
        sx = s[x]
        for g, sg in zip(gens, values):
            y = pmul[g][x]
            sy = rep[sg ^ act[g][sx]]
            known = s.get(y)
            if known is None:
                s[y] = sy
                order.append(y)
            elif known != sy:
                return None
    return s


def _sn_subgroups(N: int):
    """Every subgroup of S_N, as a frozenset of permutation indices, mapped
    to a generating list of the fewest elements (``_subgroups``)."""
    return _subgroups(_sn_tables(N)[2])


def _subgroups(mul):
    """Every subgroup of the group with multiplication table ``mul`` and
    identity 0, as a frozenset of indices, mapped to a generating list of
    the fewest elements.

    Walks the subgroup lattice up from the trivial group, one layer per
    added generator: each subgroup H is extended by one candidate g per
    right coset Hg, since <H, g> = <H, hg>.  A closure multiplies out from
    the identity by the generators only, |K| * len(gens) table lookups.
    """
    trivial = frozenset({0})
    gens_of = {trivial: ()}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            gens = gens_of[H]
            tried = set(H)
            for g in range(len(mul)):
                if g in tried:
                    continue
                tried.update(mul[h][g] for h in H)
                K = _closure_by_generators(mul, gens + (g,))
                if K not in gens_of:
                    gens_of[K] = gens + (g,)
                    new.append(K)
        frontier = new
    return gens_of


def _closure_by_generators(mul, gens):
    """Subgroup generated by ``gens`` in a multiplication table whose
    identity is index 0 (the S_N tables, or a subgroup's own table),
    multiplied out from the identity by the generators only."""
    els = {0}
    order = [0]
    for x in order:
        for g in gens:
            y = mul[g][x]
            if y not in els:
                els.add(y)
                order.append(y)
    return frozenset(els)


def _rho_subspaces(N: int):
    """The subspaces of (Z2)^N containing rho, as frozensets of bits_int:
    the subgroups of its XOR table (``_subgroups``) that hold rho."""
    rho = (1 << N) - 1
    xor = [[g ^ x for x in range(rho + 1)] for g in range(rho + 1)]
    return sorted((v for v in _subgroups(xor) if rho in v), key=sorted)


def _enumerate_admissible_walk(N: int):
    """Brute-force lattice walk, the test oracle for ``enumerate_admissible``.

    Starts from the closure of {rho} and repeatedly extends by single
    generators, deduplicating by the element set; every admissible subgroup
    contains rho, so walking the interval above <rho> is exhaustive.  It
    takes minutes at N = 4, and no library path calls it.
    """
    U = universe(N)
    start = U.closure([U.rho_idx])
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for H in frontier:
            # one candidate generator per left coset: <H, g> = <H, hg>
            tried = set(H)
            for g in range(len(U.elements)):
                if g in tried:
                    continue
                for h in H:
                    tried.add(U.mul[h][g])
                K = U.closure_extend(H, [g])
                if K not in seen:
                    seen.add(K)
                    new.append(K)
        frontier = new
    out = []
    for H in seen:
        elements = tuple(sorted(U.elements[i] for i in H))
        perms = {g.perm for g in elements}
        if _is_transitive(sorted(perms), N):
            out.append(elements)
    out.sort()
    return out


class HodgePartition(NamedTuple):
    """Partition of the 2N signed slots into Hodge-type blocks."""

    N: int
    weight: int
    blocks: tuple  # ((p, q), frozenset of slots)

    def validate(self):
        all_slots = {(i, b) for i in range(self.N) for b in (0, 1)}
        covered = set()
        by_label = {}
        for (p, q), slots in self.blocks:
            if p + q != self.weight:
                raise InvalidPartition(f"label ({p},{q}) has the wrong weight")
            if covered & slots:
                raise InvalidPartition("blocks overlap")
            covered |= slots
            by_label[(p, q)] = slots
        if covered != all_slots:
            raise InvalidPartition("blocks do not cover the 2N slots")
        for (p, q), slots in self.blocks:
            mirrored = {(i, b ^ 1) for i, b in slots}
            if by_label.get((q, p)) != mirrored:
                raise InvalidPartition(
                    f"conjugation does not map block ({p},{q}) onto ({q},{p})"
                )
        return self

    def stabilizer(self):
        """Elements of Im(N,2) preserving every block (the group S~), in
        ``ImN2Element`` order; N is capped by ``UNIVERSE_BOUND``."""
        _check_universe_bound(self.N)
        return tuple(g for g in _elements(self.N, range(im_order(self.N)))
                     if all(act_slot(g, s) in slots for _, slots in self.blocks
                            for s in slots))


def partition_abl(N: int) -> HodgePartition:
    return HodgePartition(
        N, 1,
        (
            ((1, 0), frozenset((i, 0) for i in range(N))),
            ((0, 1), frozenset((i, 1) for i in range(N))),
        ),
    ).validate()


def partition_k3(N: int) -> HodgePartition:
    blocks = [((2, 0), frozenset({(0, 0)})), ((0, 2), frozenset({(0, 1)}))]
    middle = frozenset((i, b) for i in range(1, N) for b in (0, 1))
    if middle:
        blocks.append(((1, 1), middle))
    return HodgePartition(N, 2, tuple(blocks)).validate()


def partition_cy3(N: int) -> HodgePartition:
    blocks = [((3, 0), frozenset({(0, 0)})), ((0, 3), frozenset({(0, 1)}))]
    if N > 1:
        blocks.append(((2, 1), frozenset((i, 0) for i in range(1, N))))
        blocks.append(((1, 2), frozenset((i, 1) for i in range(1, N))))
    return HodgePartition(N, 3, tuple(blocks)).validate()


_PARTITION_PRESETS = {"abl": partition_abl, "k3": partition_k3, "cy3": partition_cy3}


def partition_preset(name: str, N: int) -> HodgePartition:
    try:
        return _PARTITION_PRESETS[name.lower()](N)
    except KeyError:
        raise InvalidPartition(f"unknown partition preset {name!r}") from None


def partition_from_labels(N: int, weight: int, labelled_slots) -> HodgePartition:
    """Build a partition from an iterable of (slot, (p, q))."""
    blocks: dict = {}
    for slot, label in labelled_slots:
        blocks.setdefault(tuple(label), set()).add(tuple(slot))
    return HodgePartition(
        N, weight,
        tuple(sorted(((lab, frozenset(slots)) for lab, slots in blocks.items()),
                     key=lambda kv: (-kv[0][0], kv[0][1]))),
    ).validate()


class SubgroupClass(NamedTuple):
    representative: tuple      # sorted ImN2Element list, minimal in its orbit
    triple: DodsonTriple
    orbit_size: int
    tag: str
    case_alias: str | None = None  # A/B/C for N = 2


# canonical names for the three N=2 classes; these are the degree-4 CM cases
_N2_CASE_TAGS = {"(S2,1,triv.)": "A", "(S2,1,non-triv.)": "B", "(S2,2,triv.)": "C"}


def quartic_case_alias(triple: DodsonTriple):
    """Case letter A/B/C for an N=2 triple, None otherwise."""
    if triple.N != 2:
        return None
    return _N2_CASE_TAGS.get(triple.tag())


def _conjugacy_orbit(stab, H):
    """The orbit of H (a frozenset of ``_indices``) under conjugation by
    each element of the group S~, given as the list ``stab``.  t = (c, q)
    conjugates (b, g) to (c ^ q.b ^ g'.c, g') with g' = q g q^-1, so the
    conjugate of the lift of s over V (``_lift``) is the lift of
    g' -> c ^ q.s(g) ^ g'.c over q.V."""
    _, _, pmul, act, pinv = _sn_tables(stab[0].N)
    F = len(pinv)
    fibres = {}
    for h in H:
        b, g = divmod(h, F)
        fibres.setdefault(g, []).append(b)
    orbit = set()
    for c, q in (divmod(t, F) for t in _indices(stab)):
        aq = act[q]
        qv = [aq[w] for w in fibres[0]]
        s = {}
        for g, bits in fibres.items():
            x = pmul[pmul[q][g]][pinv[q]]
            s[x] = c ^ aq[bits[0]] ^ act[x][c]
        orbit.add(frozenset([(sx ^ u) * F + x for x, sx in s.items() for u in qv]))
    return orbit


def _canonical(orbit):
    """The orbit's minimal member as a sorted index tuple.  Indices follow
    the ``ImN2Element`` order, so this is the minimal sorted element tuple."""
    return min(tuple(sorted(K)) for K in orbit)


def classify_conjugacy(N: int, partition: HodgePartition,
                       bound: int = ENUMERATION_BOUND_DEFAULT):
    """Orbits of the admissible subgroups under conjugation by S~, sorted by
    the canonical (minimal) representative of each orbit.

    One orbit is computed per class, |S~| conjugations: every member of an
    orbit is marked as seen, so the later subgroups of the class are
    skipped.
    """
    if partition.N != N:
        raise InvalidPartition("partition is for a different N")
    stab = partition.stabilizer()
    seen = set()
    by_class = {}
    for elements in enumerate_admissible(N, bound=bound):
        H = frozenset(_indices(elements))
        if H in seen:
            continue
        orbit = _conjugacy_orbit(stab, H)
        seen |= orbit
        by_class[_canonical(orbit)] = len(orbit)
    classes = []
    for canonical in sorted(by_class):
        rep = _elements(N, canonical)
        triple = triple_from_group(rep)
        classes.append(SubgroupClass(representative=rep, triple=triple,
                                     orbit_size=by_class[canonical],
                                     tag=triple.tag(),
                                     case_alias=quartic_case_alias(triple)))
    return classes


# --------------------------------------------------------------------------
# abstract CM types and the reflex computation


class AbstractCMType:
    """A subgroup of Im(N,2) together with a CM type Phi (one slot per pair),
    checked when it is built.

    Simple weight-1 structures have a transitive permutation image; direct
    sums of smaller CM fields are block groups and need not be transitive,
    so transitivity is not checked here.
    """

    __slots__ = ("group", "phi")

    def __init__(self, group: tuple, phi: tuple):
        if not group:
            raise InvalidCMType("empty group")
        N = group[0].N
        witness = missing_product(group)
        if witness is not None:
            raise InvalidCMType(f"elements do not form a subgroup: {witness}")
        if im_rho(N) not in group:
            raise InvalidCMType("group does not contain the conjugation rho")
        pairs = sorted(i for i, _ in phi)
        if pairs != list(range(N)) or any(bar not in (0, 1) for _, bar in phi):
            raise InvalidCMType("phi must pick exactly one slot per pair")
        self.group = group
        self.phi = phi

    @property
    def N(self) -> int:
        return self.group[0].N


def standard_phi(N: int):
    return tuple((i, 0) for i in range(N))


class ReflexReport(NamedTuple):
    """Outcome of the level-n computation for an abstract weight-1 CM type."""

    n: int
    degree: int                 # 2 n'
    n_prime: int
    hodge_numbers: dict         # (p, n-p) -> count
    group: tuple                # induced subgroup of Im(n',2)
    triple: DodsonTriple
    tag: str
    bound_ok: bool
    pair_labels: dict           # induced pair index -> (p, q) of its unbarred slot
    group_name: str = ""
    class_tag: str | None = None


def induced_pair_group(items, rho_map, actions, labels):
    """Induce an Im(N',2) subgroup from a group acting on paired items.

    ``items``: hashable level objects; ``rho_map``: the conjugation pairing;
    ``actions``: one item->item map per group element; ``labels``: item ->
    (p, q).  Each map is indexed by the item, so a tuple serves when the
    items are 0..k-1.  Orientation is pinned by the labels: the slot with
    p > q is unbarred; ties broken by the item sort key.  Pairs are ordered by
    (descending p of the unbarred slot, its key), so the top-form pair, when
    present, comes first.
    """
    items = list(items)
    seen = set()
    pairs = []
    for it in sorted(items, key=_sort_key):
        if it in seen:
            continue
        partner = rho_map[it]
        seen.add(it)
        seen.add(partner)
        p_it, q_it = labels[it]
        p_pa, _ = labels[partner]
        if p_it > p_pa or (p_it == p_pa and _sort_key(it) <= _sort_key(partner)):
            unbarred = it
        else:
            unbarred = partner
        pairs.append(unbarred)
    pairs.sort(key=lambda u: (-labels[u][0], _sort_key(u)))
    slot_of = {}
    for i, u in enumerate(pairs):
        slot_of[u] = (i, 0)
        slot_of[rho_map[u]] = (i, 1)
    elements = set()
    for act in actions:
        bits = [0] * len(pairs)
        perm = [0] * len(pairs)
        for i, u in enumerate(pairs):
            j, bar = slot_of[act[u]]
            perm[i] = j
            bits[j] = bar
        elements.add(ImN2Element(tuple(bits), tuple(perm)))
    ordered = tuple(sorted(elements))
    pair_labels = {i: labels[u] for i, u in enumerate(pairs)}
    return ordered, pair_labels


def _sort_key(item):
    try:
        return (0, tuple(sorted(item)))
    except TypeError:
        return (1, repr(item))


def reflex_from_dodson(ct: AbstractCMType, n: int) -> ReflexReport:
    """Level-n data of a weight-1 CM type: reflex degree, Hodge numbers,
    and the induced Dodson data of the group acting on the type orbit.

    The elements sending Phi to one image form one coset of its stabiliser,
    kept as the frozenset of their ``_indices``; rho and the group act on
    the cosets through the images.  No Im(N,2) table is built.
    """
    if n != ct.N:
        raise InvalidCMType(
            f"n = {n} does not match the {ct.N} pairs carried by the type"
        )
    phi = frozenset(ct.phi)

    def act_phi(g, subset):
        return frozenset(act_slot(g, s) for s in subset)

    members = {}
    for g, index in zip(ct.group, _indices(ct.group)):
        members.setdefault(act_phi(g, phi), set()).add(index)
    coset = {image: frozenset(idxs) for image, idxs in members.items()}
    degree = len(coset)
    labels = {c: (len(image & phi), n - len(image & phi)) for image, c in coset.items()}
    hodge = {}
    for label in labels.values():
        hodge[label] = hodge.get(label, 0) + 1

    rho_map = {c: coset[act_phi(im_rho(ct.N), image)] for image, c in coset.items()}
    actions = [{c: coset[act_phi(g, image)] for image, c in coset.items()}
               for g in ct.group]

    induced, pair_labels = induced_pair_group(coset.values(), rho_map, actions, labels)
    triple = triple_from_group(induced)
    report = ReflexReport(
        n=n,
        degree=degree,
        n_prime=degree // 2,
        hodge_numbers=dict(sorted(hodge.items(), key=lambda kv: (-kv[0][0],))),
        group=induced,
        triple=triple,
        tag=triple.tag(),
        bound_ok=degree <= 2 ** n,
        pair_labels=pair_labels,
        group_name=identify_group(induced),
    )
    return report._replace(class_tag=_class_tag(report))


def _class_tag(report: ReflexReport):
    """The conjugacy class of the induced data, resolved when cheap (n' <= 3).
    For n' = 3, the tag of the canonical member of the induced group's orbit
    under the S~ of its pair labels (the group is admissible: transitive on
    the pairs, with rho), as ``classify_conjugacy`` tags that class.

    For odd n no pair label has p = q, so S~ holds no bit flips and its
    conjugations keep the tag: the class tag differs from the tag only for
    even n, through a (n/2, n/2) pair (tests/data/cm_type_n4.json)."""
    np = report.n_prime
    if np == 1:
        return "Deg2"
    if np == 2:
        return quartic_case_alias(report.triple)
    if np == 3:
        labelled = []
        for i, (p, q) in report.pair_labels.items():
            labelled.append(((i, 0), (p, q)))
            labelled.append(((i, 1), (q, p)))
        part = partition_from_labels(3, report.n, labelled)
        orbit = _conjugacy_orbit(part.stabilizer(), frozenset(_indices(report.group)))
        return triple_from_group(_elements(3, _canonical(orbit))).tag()
    return report.tag


# --------------------------------------------------------------------------
# abstract group invariants (for isomorphism-by-invariants checks)


LEVEL_GROUP_MODELS = ("Z2^3", "Z2xZ4", "Z2xD4", "Z2xA4", "Z2xS4")

# the invariants of each group of LEVEL_GROUP_MODELS, in order; tests
# recompute them from Cayley tables of the models
_MODEL_INVARIANTS = (
    (8, ((1, 1), (2, 7)), 8),
    (8, ((1, 1), (2, 3), (4, 4)), 8),
    (16, ((1, 1), (2, 11), (4, 4)), 8),
    (24, ((1, 1), (2, 7), (3, 8), (6, 8)), 6),
    (48, ((1, 1), (2, 19), (3, 8), (4, 12), (6, 8)), 4),
)


# the names of the invariants of small groups and of LEVEL_GROUP_MODELS
_GROUP_NAMES = {
    (1, ((1, 1),), 1): "1",
    (2, ((1, 1), (2, 1)), 2): "Z2",
    (4, ((1, 1), (2, 3)), 4): "Z2^2",
    (4, ((1, 1), (2, 1), (4, 2)), 4): "Z4",
    (6, ((1, 1), (2, 1), (3, 2), (6, 2)), 6): "Z6",
    (6, ((1, 1), (2, 3), (3, 2)), 2): "S3",
    (8, ((1, 1), (2, 5), (4, 2)), 4): "D4",
    (8, ((1, 1), (2, 1), (4, 2), (8, 4)), 8): "Z8",
    (12, ((1, 1), (2, 3), (3, 8)), 3): "A4",
    (12, ((1, 1), (2, 7), (3, 2), (6, 2)), 4): "Z2xS3",
    **dict(zip(_MODEL_INVARIANTS, LEVEL_GROUP_MODELS)),
}


def _group_invariants(mul, inv, G):
    """(order, element-order histogram, |G^ab|) of the subgroup G, given as
    indices into a multiplication table ``mul`` with inverses ``inv`` whose
    identity is index 0 (a subgroup's own table, or the S_N tables):
    invariants of the isomorphism type."""
    hist = {}
    for a in G:
        k, x = 1, a
        while x:
            x = mul[x][a]
            k += 1
        hist[k] = hist.get(k, 0) + 1
    comms = {mul[mul[a][b]][mul[inv[a]][inv[b]]] for a in G for b in G}
    derived = _closure_by_generators(mul, tuple(comms))
    return len(G), tuple(sorted(hist.items())), len(G) // len(derived)


def _subgroup_table(elements):
    """``(mul, inv)``: the Cayley table of an Im(N,2) subgroup on its
    elements in ``ImN2Element`` order, so the identity is index 0,
    tabulated from the S_N tables: |G|^2 products, no ``universe(N)``."""
    bit_idx, perm_idx = _sn_index(elements[0].N)
    _, _, pmul, act, pinv = _sn_tables(elements[0].N)
    F = len(pinv)
    G = sorted((bit_idx[g.bits], perm_idx[g.perm]) for g in elements)
    local = {b * F + p: i for i, (b, p) in enumerate(G)}
    mul = [[local[(ba ^ act[pa][bb]) * F + pmul[pa][pb]] for bb, pb in G]
           for ba, pa in G]
    return mul, [local[act[pinv[pa]][ba] * F + pinv[pa]] for ba, pa in G]


def identify_group(elements) -> str:
    """Name the abstract isomorphism type of an Im(N,2) subgroup by the
    invariants of ``_group_invariants`` on its own table (``_subgroup_table``,
    faster than ``universe(N)`` for the small level groups, slower for all
    of Im(4,2)); other names fall back to 'order-k'.  N is capped by
    ``UNIVERSE_BOUND`` before any table is built."""
    _check_universe_bound(elements[0].N)
    mul, inv = _subgroup_table(elements)
    invariants = _group_invariants(mul, inv, range(len(mul)))
    return _GROUP_NAMES.get(invariants, f"order-{invariants[0]}")
