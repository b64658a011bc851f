"""Pair-preserving permutation groups and their triple coordinates.

The group Im(N,2) of permutations of 2N signed slots {phi_1, phibar_1, ...,
phi_N, phibar_N} that preserve the N conjugate pairs is (Z2)^N x| S_N.  An
element is (bits, perm): perm moves the pairs, bits records which target
pairs get flipped.  Slot action: (bits, perm) . (i, s) = (perm[i],
s ^ bits[perm[i]]).

A subgroup G is admissible when its projection to S_N is transitive and it
contains the all-flip central element rho.  Such subgroups are coordinatized
by triples (G0, V, s): the permutation image, the bit subgroup G cap (Z2)^N,
and the one-cocycle g -> (bit coset over g).  Classification of admissible
subgroups is modulo conjugation by the stabilizer of a Hodge-type partition
of the slots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    BoundExceeded,
    InvalidCMType,
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
        bitvecs = list(itertools.product((0, 1), repeat=N))
        perms = list(itertools.permutations(range(N)))
        bit_idx = {b: i for i, b in enumerate(bitvecs)}
        perm_idx = {p: i for i, p in enumerate(perms)}
        B, F = len(bitvecs), len(perms)
        pmul = [[perm_idx[perm_mul(p, q)] for q in perms] for p in perms]
        act = [[bit_idx[perm_apply_bits(p, b)] for b in bitvecs] for p in perms]
        pinv = [perm_idx[perm_inv(p)] for p in perms]

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
        """Subgroup generated by the seed indices."""
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
    if N > UNIVERSE_BOUND:
        raise BoundExceeded(
            f"Im({N},2) has order {im_order(N)}; its tables are built only "
            f"for N <= {UNIVERSE_BOUND}"
        )
    return _Universe(N)


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
    """Extract the (G0, V, s) coordinates; raises NotAdmissible otherwise."""
    elements = tuple(elements)
    if not elements:
        raise NotAdmissible("empty element list")
    N = elements[0].N
    U = universe(N)
    idxs = frozenset(U.index[g] for g in elements)
    if not U.is_subgroup(idxs):
        exc = NotAdmissible("element list is not a subgroup of Im(N,2)")
        exc.condition = "dodson-triple:subgroup"
        raise exc
    g0 = sorted({g.perm for g in elements})
    if not _is_transitive(g0, N):
        exc = NotAdmissible("permutation image is not transitive")
        exc.condition = "dodson-triple:transitivity"
        raise exc
    ident = tuple(range(N))
    v = sorted(g.bits for g in elements if g.perm == ident)
    if (1,) * N not in v:
        exc = NotAdmissible("bit subgroup does not contain the diagonal rho")
        exc.condition = "dodson-triple:contains-rho"
        raise exc
    vset = set(v)
    s = []
    for p in g0:
        coset = sorted(g.bits for g in elements if g.perm == p)
        s.append((p, min(coset)))
        if {bits for bits in coset} != { _xor(coset[0], w) for w in vset }:
            exc = NotAdmissible("bit fibre over a permutation is not a V-coset")
            exc.condition = "dodson-triple:coset"
            raise exc
    return DodsonTriple(N=N, g0=tuple(g0), v=tuple(v), s=tuple(sorted(s)))


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
    return tuple(_enumerate_admissible_walk(N))


def enumerate_admissible(N: int, bound: int = ENUMERATION_BOUND_DEFAULT):
    """All admissible subgroups of Im(N,2), in a deterministic order.

    Brute-force lattice walk: start from the closure of {rho} and repeatedly
    extend by single generators, deduplicating by the sorted element list.
    Every admissible subgroup contains rho, so walking the interval above
    <rho> is exhaustive.
    """
    if N > bound:
        raise BoundExceeded(f"N = {N} exceeds the enumeration bound {bound}")
    return list(_enumerate_admissible_cached(N))


def _enumerate_admissible_walk(N: int):
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


def classify_conjugacy(N: int, partition: HodgePartition,
                       bound: int = ENUMERATION_BOUND_DEFAULT):
    """Orbits of the admissible subgroups under conjugation by S~, sorted by
    the canonical (minimal) representative of each orbit."""
    if partition.N != N:
        raise InvalidPartition("partition is for a different N")
    U = universe(N)
    stab_idx = [U.index[g] for g in partition.stabilizer()]
    subgroups = enumerate_admissible(N, bound=bound)

    def orbit_key(elements):
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
        canonical = min(
            subgroup_key(tuple(U.elements[i] for i in K)) for K in orbit
        )
        return canonical, len(orbit)

    by_class: dict = {}
    for elements in subgroups:
        canonical, orbit_size = orbit_key(elements)
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
    """Index of the S~-conjugacy class containing the given subgroup."""
    U = universe(partition.N)
    H = frozenset(U.index[g] for g in elements)
    orbit = {H}
    frontier = [H]
    stab_idx = [U.index[g] for g in partition.stabilizer()]
    rep_keys = {subgroup_key(c.representative): i for i, c in enumerate(classes)}
    while frontier:
        new = []
        for K in frontier:
            key = subgroup_key(tuple(U.elements[i] for i in sorted(K)))
            if key in rep_keys:
                return rep_keys[key]
            for s in stab_idx:
                C = U.conjugate(s, K)
                if C not in orbit:
                    orbit.add(C)
                    new.append(C)
        frontier = new
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
    class_index: int | None = None
    class_tag: str | None = None
    notes: tuple = ()


def _coset_label_key(coset):
    return tuple(sorted(coset))


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
        report.class_index = find_class(report.group, classes, part)
        report.class_tag = classes[report.class_index].tag
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
    """Reference groups for invariant matching in reports and tests."""
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
    for name in LEVEL_GROUP_MODELS:
        if model_group(name).invariants() == inv:
            return name
    return f"order-{inv[0]}"
