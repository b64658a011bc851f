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
The brute-force lattice walk over Im(N,2) (``_enumerate_admissible_walk``
with ``_Universe.closure``/``closure_extend``) stays as the test oracle.
Classification of admissible subgroups is modulo conjugation by the
stabilizer of a Hodge-type partition of the slots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


def im_mul(a: ImN2Element, b: ImN2Element) -> ImN2Element:
    bits = tuple(x ^ y for x, y in zip(a.bits, perm_apply_bits(a.perm, b.bits)))
    return ImN2Element(bits, perm_mul(a.perm, b.perm))


def im_inv(a: ImN2Element) -> ImN2Element:
    pinv = perm_inv(a.perm)
    return ImN2Element(tuple(a.bits[a.perm[i]] for i in range(len(a.bits))),
                       pinv)


def act_slot(g: ImN2Element, slot: Slot) -> Slot:
    i, s = slot
    j = g.perm[i]
    return (j, s ^ g.bits[j])


def element_key(g: ImN2Element):
    """Total order: bits as a binary integer, then one-line permutation."""
    n = len(g.bits)
    bits_int = 0
    for b in g.bits:
        bits_int = (bits_int << 1) | b
    return (bits_int, g.perm)


def subgroup_key(elements):
    return tuple(sorted(element_key(g) for g in elements))


# --------------------------------------------------------------------------
# the ambient group as index tables, tabulated from (Z2)^N x| S_N

UNIVERSE_BOUND = 5  # Im(5,2) has order 3840; Im(6,2) would need 46080^2 entries


@lru_cache(maxsize=None)
def _sn_tables(N: int):
    """S_N and its action on (Z2)^N as index tables.

    Returns ``(bitvecs, perms, pmul, act, pinv)``: the bit vectors in
    ``itertools.product`` order, so that index == ``bits_int`` (bits[0] is
    the high bit); the permutations in lexicographic order, so that index 0
    is the identity; ``pmul[p][q]`` the index of pq; ``act[p][b]`` the index
    of p.b; ``pinv[p]`` the index of p^-1.
    """
    bitvecs = list(itertools.product((0, 1), repeat=N))
    perms = list(itertools.permutations(range(N)))
    bit_idx = {b: i for i, b in enumerate(bitvecs)}
    perm_idx = {p: i for i, p in enumerate(perms)}
    pmul = [[perm_idx[perm_mul(p, q)] for q in perms] for p in perms]
    act = [[bit_idx[perm_apply_bits(p, b)] for b in bitvecs] for p in perms]
    pinv = [perm_idx[perm_inv(p)] for p in perms]
    return bitvecs, perms, pmul, act, pinv


class _Universe:
    """Im(N,2) as integer index tables: ``elements``, ``index``, ``mul``,
    ``inv``, ``identity_idx`` and ``rho_idx``.

    Element (bits, perm) has index ``bits_int * N! + rank(perm)``, where
    ``bits_int`` reads bits[0] as the high bit and ``rank`` is the
    lexicographic rank among the permutations of range(N); this is the
    ``element_key`` order.  With F = N!, the product
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

    def is_subgroup(self, idxs) -> bool:
        s = set(idxs)
        if self.identity_idx not in s:
            return False
        return all(self.mul[a][b] in s for a in s for b in s)

    def conjugate(self, g_idx, idxs):
        gi = self.inv[g_idx]
        return frozenset(self.mul[self.mul[g_idx][h]][gi] for h in idxs)


@lru_cache(maxsize=None)
def universe(N: int) -> _Universe:
    _check_universe_bound(N)
    return _Universe(N)


def _check_universe_bound(N: int):
    if N > UNIVERSE_BOUND:
        raise BoundExceeded(
            f"Im({N},2) has order {im_order(N)}; its tables are built only "
            f"for N <= {UNIVERSE_BOUND}"
        )


def im_order(N: int) -> int:
    import math

    return (2 ** N) * math.factorial(N)


# --------------------------------------------------------------------------
# triples


@dataclass(frozen=True)
class DodsonTriple:
    """Coordinates (G0, V, s) of an admissible subgroup of Im(N,2)."""

    N: int
    g0: tuple          # sorted one-line permutations
    v: tuple           # sorted bit vectors
    s: tuple           # pairs (perm, canonical coset representative bits)

    @property
    def v_rank(self) -> int:
        n = len(self.v)
        return n.bit_length() - 1  # |V| = 2^v

    def cocycle(self) -> dict:
        return dict(self.s)

    def is_trivial_cocycle(self) -> bool:
        return all(bits in set(self.v) for _, bits in self.s)

    def tag(self) -> str:
        s_label = "triv." if self.is_trivial_cocycle() else "non-triv."
        return f"({perm_group_name(self.g0, self.N)},{self.v_rank},{s_label})"


def _is_transitive(perms, N) -> bool:
    reached = {0}
    frontier = [0]
    while frontier:
        new = []
        for i in frontier:
            for p in perms:
                j = p[i]
                if j not in reached:
                    reached.add(j)
                    new.append(j)
        frontier = new
    return len(reached) == N


def _xor(a, b):
    return tuple(x ^ y for x, y in zip(a, b))


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


def triple_from_group(elements) -> DodsonTriple:
    """Extract the (G0, V, s) coordinates; raises NotAdmissible otherwise.

    N is capped by ``UNIVERSE_BOUND``, like every Im(N,2) computation.
    """
    elements = tuple(elements)
    if not elements:
        raise NotAdmissible("empty element list")
    N = elements[0].N
    _check_universe_bound(N)
    fibres = {}
    for g in elements:
        fibres.setdefault(g.perm, set()).add(g.bits)
    if not _fibres_form_subgroup(fibres, N):
        exc = NotAdmissible("element list is not a subgroup of Im(N,2)")
        exc.condition = "dodson-triple:subgroup"
        raise exc
    g0 = sorted(fibres)
    if not _is_transitive(g0, N):
        exc = NotAdmissible("permutation image is not transitive")
        exc.condition = "dodson-triple:transitivity"
        raise exc
    v = sorted(fibres[tuple(range(N))])
    if (1,) * N not in v:
        exc = NotAdmissible("bit subgroup does not contain the diagonal rho")
        exc.condition = "dodson-triple:contains-rho"
        raise exc
    s = sorted((p, min(fibre)) for p, fibre in fibres.items())
    return DodsonTriple(N=N, g0=tuple(g0), v=tuple(v), s=tuple(s))


def _fibres_form_subgroup(fibres, N) -> bool:
    """Whether the elements with bit fibres ``{perm: set of bits}`` form a
    subgroup of Im(N,2), decided on the triple coordinates in
    O(|G0|^2 + |G0| |V|) without the Im(N,2) tables.

    They do exactly when G0 (the perms) is a subgroup of S_N, the fibre V
    over the identity is a subgroup of (Z2)^N, V is G0-stable, every fibre
    is a V-coset s(g) + V, and s(gh) = s(g) + g.s(h) mod V.  Bits are
    handled as ``bits_int`` and perms as indices into ``_sn_tables``.
    """
    bitvecs, perms, pmul, act, _ = _sn_tables(N)
    perm_idx = {p: i for i, p in enumerate(perms)}
    bit_idx = {b: i for i, b in enumerate(bitvecs)}
    fib = {perm_idx[p]: {bit_idx[b] for b in bits} for p, bits in fibres.items()}
    v = fib.get(0)
    if v is None or any(pmul[g][h] not in fib for g in fib for h in fib):
        return False
    span = {0}
    for x in v:
        if x not in span:
            span |= {x ^ y for y in span}
            if len(span) > len(v):
                return False
    if span != v or any(act[g][w] not in v for g in fib for w in v):
        return False
    s = {}
    for g, bits in fib.items():
        s[g] = rep = min(bits)
        if len(bits) != len(v) or any(rep ^ w not in bits for w in v):
            return False
    return all(s[pmul[g][h]] ^ s[g] ^ act[g][s[h]] in v for g in fib for h in fib)


def group_from_triple(t: DodsonTriple):
    """Reconstruct the subgroup; validates every triple condition by name."""
    N = t.N
    ident = tuple(range(N))
    g0 = set(t.g0)
    if ident not in g0 or any(perm_mul(a, b) not in g0 for a in g0 for b in g0):
        exc = InvalidTriple("G0 is not a subgroup of S_N")
        exc.condition = "dodson-triple:g0-subgroup"
        raise exc
    if not _is_transitive(t.g0, N):
        exc = InvalidTriple("G0 does not act transitively on the N pairs")
        exc.condition = "dodson-triple:transitivity"
        raise exc
    v = set(t.v)
    zero = (0,) * N
    if zero not in v or any(_xor(a, b) not in v for a in v for b in v):
        exc = InvalidTriple("V is not a subgroup of (Z2)^N")
        exc.condition = "dodson-triple:v-subgroup"
        raise exc
    if (1,) * N not in v:
        exc = InvalidTriple("V does not contain the diagonal rho")
        exc.condition = "dodson-triple:contains-rho"
        raise exc
    for p in g0:
        for w in v:
            if perm_apply_bits(p, w) not in v:
                exc = InvalidTriple("V is not stable under the G0 action")
                exc.condition = "dodson-triple:v-stability"
                raise exc
    s = dict(t.s)
    if set(s) != g0:
        exc = InvalidTriple("cocycle is not defined on exactly G0")
        exc.condition = "dodson-triple:cocycle-domain"
        raise exc
    if s[ident] not in v:
        exc = InvalidTriple("cocycle is not normalized: s(1) not in V")
        exc.condition = "dodson-triple:cocycle-normalized"
        raise exc
    for g in g0:
        for h in g0:
            lhs = s[perm_mul(g, h)]
            rhs = _xor(s[g], perm_apply_bits(g, s[h]))
            if _xor(lhs, rhs) not in v:
                exc = InvalidTriple("s violates the one-cocycle identity")
                exc.condition = "dodson-triple:cocycle"
                raise exc
    elements = []
    for g in sorted(g0):
        base = s[g]
        for w in sorted(v):
            elements.append(ImN2Element(_xor(base, w), g))
    return tuple(sorted(elements, key=element_key))


# --------------------------------------------------------------------------
# enumeration and classification

ENUMERATION_BOUND_DEFAULT = 4


@lru_cache(maxsize=None)
def _enumerate_admissible_cached(N: int):
    return tuple(_enumerate_admissible_triples(N))


def enumerate_admissible(N: int, bound: int = ENUMERATION_BOUND_DEFAULT):
    """All admissible subgroups of Im(N,2), each as its ``element_key``-sorted
    element tuple, the list sorted by ``subgroup_key``.

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
    deduplicated.  Elements are handled as ``universe`` indices
    (bits_int * N! + perm rank), whose order is the ``element_key`` order,
    without building the Im(N,2) tables.
    """
    bitvecs, perms, pmul, act, _ = _sn_tables(N)
    F = len(perms)
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
                    found.append(tuple(sorted((sx ^ w) * F + x
                                              for x, sx in s.items() for w in v)))
    found.sort()
    return [tuple(ImN2Element(bitvecs[i // F], perms[i % F]) for i in idxs)
            for idxs in found]


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
    to a generating list of the fewest elements.

    Walks the subgroup lattice up from the trivial group, one layer per
    added generator: each subgroup H is extended by one candidate g per
    right coset Hg, since <H, g> = <H, hg>.  A closure multiplies out from
    the identity by the generators only, |K| * len(gens) table lookups.
    """
    _, perms, pmul, _, _ = _sn_tables(N)
    trivial = frozenset({0})
    gens_of = {trivial: ()}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            gens = gens_of[H]
            tried = set(H)
            for g in range(len(perms)):
                if g in tried:
                    continue
                tried.update(pmul[h][g] for h in H)
                K = _closure_by_generators(pmul, gens + (g,))
                if K not in gens_of:
                    gens_of[K] = gens + (g,)
                    new.append(K)
        frontier = new
    return gens_of


def _closure_by_generators(pmul, gens):
    """Subgroup of S_N generated by ``gens``, multiplied out from the identity."""
    els = {0}
    order = [0]
    for x in order:
        for g in gens:
            y = pmul[g][x]
            if y not in els:
                els.add(y)
                order.append(y)
    return frozenset(els)


def _rho_subspaces(N: int):
    """The subspaces of (Z2)^N containing rho, as frozensets of bits_int."""
    start = frozenset({0, (1 << N) - 1})
    found = {start}
    frontier = [start]
    while frontier:
        new = []
        for v in frontier:
            for b in range(1 << N):
                if b not in v:
                    w = v | {x ^ b for x in v}
                    if w not in found:
                        found.add(w)
                        new.append(w)
        frontier = new
    return sorted(found, key=sorted)


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
        elements = tuple(sorted((U.elements[i] for i in H), key=element_key))
        perms = {g.perm for g in elements}
        if _is_transitive(sorted(perms), N):
            out.append(elements)
    out.sort(key=subgroup_key)
    return out


@dataclass(frozen=True)
class HodgePartition:
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

    def hodge_numbers(self):
        return {label: len(slots) for label, slots in self.blocks}

    def stabilizer(self):
        """Elements of Im(N,2) preserving every block (the group S~)."""
        U = universe(self.N)
        out = []
        for g in U.elements:
            ok = True
            for _, slots in self.blocks:
                if any(act_slot(g, s) not in slots for s in slots):
                    ok = False
                    break
            if ok:
                out.append(g)
        return tuple(out)


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


@dataclass(frozen=True)
class SubgroupClass:
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


def element_from_key(key, N) -> ImN2Element:
    bits_int, perm = key
    bits = tuple((bits_int >> (N - 1 - i)) & 1 for i in range(N))
    return ImN2Element(bits, tuple(perm))


def _conjugacy_orbit(U, stab_idx, elements):
    """(canonical key, size) of the orbit of a subgroup under conjugation by
    the stabiliser elements ``stab_idx`` (indices into U), found breadth
    first; the canonical key is the minimal ``subgroup_key`` in the orbit."""
    H = frozenset(U.index[g] for g in elements)
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
    canonical = min(subgroup_key(tuple(U.elements[i] for i in K)) for K in orbit)
    return canonical, len(orbit)


def classify_conjugacy(N: int, partition: HodgePartition,
                       bound: int = ENUMERATION_BOUND_DEFAULT):
    """Orbits of the admissible subgroups under conjugation by S~, sorted by
    the canonical (minimal) representative of each orbit."""
    if partition.N != N:
        raise InvalidPartition("partition is for a different N")
    U = universe(N)
    stab_idx = [U.index[g] for g in partition.stabilizer()]
    by_class: dict = {}
    for elements in enumerate_admissible(N, bound=bound):
        canonical, orbit_size = _conjugacy_orbit(U, stab_idx, elements)
        by_class.setdefault(canonical, orbit_size)
    classes = []
    for canonical in sorted(by_class):
        rep = tuple(element_from_key(k, N) for k in canonical)
        triple = triple_from_group(rep)
        classes.append(SubgroupClass(representative=rep, triple=triple,
                                     orbit_size=by_class[canonical],
                                     tag=triple.tag(),
                                     case_alias=quartic_case_alias(triple)))
    return classes


def find_class(elements, classes, partition: HodgePartition):
    """Index of the S~-conjugacy class containing the given subgroup: the
    class whose representative, the minimal key of its orbit, is the
    minimal key of the subgroup's orbit."""
    U = universe(partition.N)
    stab_idx = [U.index[g] for g in partition.stabilizer()]
    canonical, _ = _conjugacy_orbit(U, stab_idx, elements)
    for i, c in enumerate(classes):
        if subgroup_key(c.representative) == canonical:
            return i
    raise InvalidCMType("subgroup is not in any enumerated class")


# --------------------------------------------------------------------------
# abstract CM types and the reflex computation


@dataclass(frozen=True)
class AbstractCMType:
    """A subgroup of Im(N,2) together with a CM type Phi (one slot per pair).

    Simple weight-1 structures have a transitive permutation image; direct
    sums of smaller CM fields are block groups and need not be transitive.
    """

    group: tuple
    phi: tuple
    simple: bool = False

    def __post_init__(self):
        if not self.group:
            raise InvalidCMType("empty group")
        N = self.group[0].N
        U = universe(N)
        idxs = frozenset(U.index[g] for g in self.group)
        if not U.is_subgroup(idxs):
            raise InvalidCMType("elements do not form a subgroup")
        if U.rho_idx not in idxs:
            raise InvalidCMType("group does not contain the conjugation rho")
        pairs = sorted(i for i, _ in self.phi)
        if pairs != list(range(N)):
            raise InvalidCMType("phi must pick exactly one slot per pair")
        if self.simple:
            perms = sorted({g.perm for g in self.group})
            if not _is_transitive(perms, N):
                raise InvalidCMType("simple type needs a transitive group")

    @property
    def N(self) -> int:
        return self.group[0].N


def standard_phi(N: int):
    return tuple((i, 0) for i in range(N))


@dataclass
class ReflexReport:
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
    notes: tuple = ()


def induced_pair_group(items, rho_map, actions, labels):
    """Induce an Im(N',2) subgroup from a group acting on paired items.

    ``items``: hashable level objects; ``rho_map``: the conjugation pairing;
    ``actions``: one item->item map per group element; ``labels``: item ->
    (p, q).  Orientation is pinned by the labels: the slot with p > q is
    unbarred; ties broken by the item sort key.  Pairs are ordered by
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
    ordered = tuple(sorted(elements, key=element_key))
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
    """
    if n != ct.N:
        raise InvalidCMType(
            f"n = {n} does not match the {ct.N} pairs carried by the type"
        )
    U = universe(ct.N)
    phi = frozenset(ct.phi)
    idx = {g: U.index[g] for g in ct.group}

    def act_phi(g, subset):
        return frozenset(act_slot(g, s) for s in subset)

    stab = [g for g in ct.group if act_phi(g, phi) == phi]
    stab_idx = {idx[g] for g in stab}
    cosets = {}
    coset_of = {}
    for g in ct.group:
        members = frozenset(U.mul[idx[g]][h] for h in stab_idx)
        if members not in cosets:
            cosets[members] = act_phi(g, phi)
        coset_of[idx[g]] = members
    degree = len(cosets)
    n_prime = degree // 2

    hodge = {}
    labels = {}
    for members, image in cosets.items():
        p = len(image & phi)
        hodge[(p, n - p)] = hodge.get((p, n - p), 0) + 1
        labels[members] = (p, n - p)

    rho_map = {}
    for members in cosets:
        rep = next(iter(members))
        rho_map[members] = coset_of[U.mul[U.rho_idx][rep]]

    actions = []
    for g in ct.group:
        act = {}
        for members in cosets:
            rep = next(iter(members))
            act[members] = coset_of[U.mul[idx[g]][rep]]
        actions.append(act)

    items = sorted(cosets, key=_sort_key)
    induced, pair_labels = induced_pair_group(items, rho_map, actions, labels)
    triple = triple_from_group(induced)
    report = ReflexReport(
        n=n,
        degree=degree,
        n_prime=n_prime,
        hodge_numbers=dict(sorted(hodge.items(), key=lambda kv: (-kv[0][0],))),
        group=induced,
        triple=triple,
        tag=triple.tag(),
        bound_ok=degree <= 2 ** n,
        pair_labels=pair_labels,
        group_name=identify_group(induced),
    )
    _attach_class_info(report)
    return report


def _attach_class_info(report: ReflexReport):
    """Resolve the conjugacy class of the induced data when cheap (n' <= 3)."""
    np = report.n_prime
    if np == 1:
        report.class_tag = "Deg2"
        return
    if np == 2:
        report.class_tag = quartic_case_alias(report.triple)
        return
    if np == 3:
        labelled = []
        for i, (p, q) in report.pair_labels.items():
            labelled.append(((i, 0), (p, q)))
            labelled.append(((i, 1), (q, p)))
        part = partition_from_labels(3, report.n, labelled)
        classes = _classification_cached(3, part)
        report.class_tag = classes[find_class(report.group, classes, part)].tag
        return
    report.class_tag = report.tag


@lru_cache(maxsize=None)
def _classification_cached(N, partition):
    return tuple(classify_conjugacy(N, partition))


# --------------------------------------------------------------------------
# abstract group invariants (for isomorphism-by-invariants checks)


class CayleyTable:
    """Finite group as an index table; enough for order statistics."""

    def __init__(self, elements, mul_fn):
        elements = list(elements)
        index = {g: i for i, g in enumerate(elements)}
        self._set_table(elements,
                        [[index[mul_fn(a, b)] for b in elements] for a in elements])

    @classmethod
    def from_imn2(cls, elements):
        """Table of a subgroup of Im(N,2), read off ``universe(N).mul``."""
        elements = list(elements)
        U = universe(elements[0].N)
        ids = [U.index[g] for g in elements]
        local = {u: i for i, u in enumerate(ids)}
        rows = [U.mul[a] for a in ids]
        table = cls.__new__(cls)
        table._set_table(elements, [[local[row[b]] for b in ids] for row in rows])
        return table

    def _set_table(self, elements, mul):
        self.elements = elements
        self.index = {g: i for i, g in enumerate(elements)}
        self.mul = mul
        self.identity = self._find_identity()
        try:
            self.inv = [row.index(self.identity) for row in mul]
        except ValueError:
            raise InvalidCMType("element has no inverse") from None

    def _find_identity(self):
        n = len(self.elements)
        for e in range(n):
            if all(self.mul[e][x] == x and self.mul[x][e] == x for x in range(n)):
                return e
        raise InvalidCMType("element list has no identity")

    def element_order(self, a):
        k = 1
        x = a
        while x != self.identity:
            x = self.mul[x][a]
            k += 1
        return k

    def order_histogram(self):
        hist = {}
        for a in range(len(self.elements)):
            k = self.element_order(a)
            hist[k] = hist.get(k, 0) + 1
        return dict(sorted(hist.items()))

    def commutator_subgroup(self):
        n = len(self.elements)
        comms = set()
        inv = self.inv
        for a in range(n):
            ai = inv[a]
            for b in range(n):
                comms.add(self.mul[self.mul[a][b]][self.mul[ai][inv[b]]])
        # close under multiplication
        els = set(comms)
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

    def abelianization_order(self):
        return len(self.elements) // len(self.commutator_subgroup())

    def invariants(self):
        """(order, element-order histogram, |G^ab|): iso invariants."""
        return (
            len(self.elements),
            tuple(sorted(self.order_histogram().items())),
            self.abelianization_order(),
        )


def _cyclic_product(*orders):
    elems = list(itertools.product(*(range(k) for k in orders)))

    def mul(a, b):
        return tuple((x + y) % k for x, y, k in zip(a, b, orders))

    return CayleyTable(elems, mul)


def _perm_product(perms, cyclic_order):
    elems = [(c, p) for c in range(cyclic_order) for p in perms]

    def mul(a, b):
        return ((a[0] + b[0]) % cyclic_order, perm_mul(a[1], b[1]))

    return CayleyTable(elems, mul)


@lru_cache(maxsize=None)
def model_group(name: str) -> CayleyTable:
    """Reference groups, built as Cayley tables; the test oracle for the
    ``_MODEL_INVARIANTS`` that ``identify_group`` matches against."""
    if name == "Z2^3":
        return _cyclic_product(2, 2, 2)
    if name == "Z2xZ4":
        return _cyclic_product(2, 4)
    if name == "Z2xD4":
        # D4 realized as Im(2,2)
        d4 = universe(2).elements
        elems = [(c, (g.bits, g.perm)) for c in range(2) for g in d4]

        def mul(a, b):
            prod = im_mul(ImN2Element(*a[1]), ImN2Element(*b[1]))
            return ((a[0] + b[0]) % 2, (prod.bits, prod.perm))

        return CayleyTable(elems, mul)
    if name == "Z2xA4":
        a4 = [p for p in itertools.permutations(range(4)) if _perm_sign(p) == 1]
        return _perm_product(a4, 2)
    if name == "Z2xS4":
        s4 = list(itertools.permutations(range(4)))
        return _perm_product(s4, 2)
    raise KeyError(name)


def _perm_sign(p):
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


LEVEL_GROUP_MODELS = ("Z2^3", "Z2xZ4", "Z2xD4", "Z2xA4", "Z2xS4")

# model_group(name).invariants() for each name of LEVEL_GROUP_MODELS, in
# order; tests recompute them from the Cayley tables
_MODEL_INVARIANTS = (
    (8, ((1, 1), (2, 7)), 8),
    (8, ((1, 1), (2, 3), (4, 4)), 8),
    (16, ((1, 1), (2, 11), (4, 4)), 8),
    (24, ((1, 1), (2, 7), (3, 8), (6, 8)), 6),
    (48, ((1, 1), (2, 19), (3, 8), (4, 12), (6, 8)), 4),
)


def identify_group(elements) -> str:
    """Name the abstract isomorphism type of an Im(N,2) subgroup by
    invariants; names beyond the known models fall back to 'order-k'."""
    table = CayleyTable.from_imn2(elements)
    inv = table.invariants()
    small = {
        (1, ((1, 1),), 1): "1",
        (2, ((1, 1), (2, 1)), 2): "Z2",
        (4, ((1, 1), (2, 3)), 4): "Z2^2",
        (4, ((1, 1), (2, 1), (4, 2)), 4): "Z4",
        (6, ((1, 1), (2, 1), (3, 2), (6, 2)), 6): "Z6",
        (6, ((1, 1), (2, 3), (3, 2)), 2): "S3",
        (8, ((1, 1), (2, 7)), 8): "Z2^3",
        (8, ((1, 1), (2, 5), (4, 2)), 4): "D4",
        (8, ((1, 1), (2, 3), (4, 4)), 8): "Z2xZ4",
        (8, ((1, 1), (2, 1), (4, 2), (8, 4)), 8): "Z8",
        (12, ((1, 1), (2, 3), (3, 8)), 3): "A4",
        (12, ((1, 1), (2, 7), (3, 2), (6, 2)), 4): "Z2xS3",
    }
    if inv in small:
        return small[inv]
    for name, model_inv in zip(LEVEL_GROUP_MODELS, _MODEL_INVARIANTS):
        if model_inv == inv:
            return name
    return f"order-{inv[0]}"
