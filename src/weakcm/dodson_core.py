"""Pair-preserving permutation groups: the group code every Dodson and Hodge
subcommand runs.

The group Im(N,2) of permutations of 2N signed slots {phi_1, phibar_1, ...,
phi_N, phibar_N} that preserve the N conjugate pairs is (Z2)^N x| S_N.  An
element is (bits, perm): perm moves the pairs, bits records which target
pairs get flipped.  Slot action: (bits, perm) . (i, s) = (perm[i],
s ^ bits[perm[i]]).

A subgroup G is admissible when its projection to S_N is transitive and it
contains the all-flip central element rho.  Such subgroups are coordinatized
by triples (G0, V, s): the permutation image, the bit subgroup G cap (Z2)^N,
and the one-cocycle g -> (bit coset over g).

This module holds the S_N tables (``_sn_tables``) every computation works
on, the triples, the subgroup test of element lists, the Hodge-type
partitions of the slots with their stabilizers, the conjugacy orbits under
a stabilizer, and ``AbstractCMType``.  The tables own the bound
N <= ``UNIVERSE_BOUND``: ``_sn_index`` refuses a larger N before anything
is built, so no computation on them checks N itself.  Every partition, a
preset or a block list, is built by ``partition_from_labels``.  The
enumeration and classification of admissible subgroups are in
``dodson_classes``, the reflex data and the group names in
``dodson_reflex``: a fresh process compiles only the group code its
subcommand runs.
"""

from __future__ import annotations

import itertools
import math
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
    ``_sn_tables``, the dicts in that order.

    Every Im(N,2) computation reads these tables, so this is where N is
    checked against ``UNIVERSE_BOUND``: a larger N raises ``BoundExceeded``
    before anything is built, and ``lru_cache`` keeps no entry for it.  The
    message writes the order 2^N N! exactly only up to N = 10: past that its
    digits grow like N log N, and converting them took seconds.  N itself
    goes through ``int_text``."""
    if N > UNIVERSE_BOUND:
        n = int_text(N)
        order = im_order(N) if N <= 10 else f"2^{n} * {n}!"
        raise BoundExceeded(
            f"Im({n},2) has order {order}; Dodson computations are "
            f"bounded to N <= {UNIVERSE_BOUND}"
        )
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


def int_text(n: int) -> str:
    """``n`` in decimal while it has at most 20 digits, else its digit count
    ("<4000 digits>", signed), so that a message quoting a size stays short."""
    s = str(abs(n))
    return str(n) if len(s) <= 20 else f"{'-' if n < 0 else ''}<{len(s)} digits>"


def im_order(N: int) -> int:
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

    The S_N tables check N against ``UNIVERSE_BOUND``, as for every
    Im(N,2) computation.
    """
    elements = tuple(elements)
    if not elements:
        raise NotAdmissible("empty element list")
    N = elements[0].N
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
    formula of ``dodson_reflex._subgroup_table``.  The S_N tables check N
    against ``UNIVERSE_BOUND``."""
    N = elements[0].N
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
    those of ``_triple_violation`` first.  The S_N tables check N against
    ``UNIVERSE_BOUND``."""
    N = t.N
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


# --------------------------------------------------------------------------
# Hodge-type partitions of the slots, and conjugacy orbits under their
# stabilizers


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
        ``ImN2Element`` order; the S_N tables check N against
        ``UNIVERSE_BOUND`` before any element is listed."""
        bitvecs, perms, _, _, _ = _sn_tables(self.N)
        return tuple(g for g in _elements(self.N, range(len(bitvecs) * len(perms)))
                     if all(act_slot(g, s) in slots for _, slots in self.blocks
                            for s in slots))


# the label rule of each preset partition: (weight, p of the first pair,
# p of every other pair)
_PRESET_LABELS = {"abl": (1, 1, 1), "k3": (2, 2, 1), "cy3": (3, 3, 2)}


def partition_preset(name: str, N: int) -> HodgePartition:
    """The named preset partition: slot (i, 0) is labelled (p, weight - p)
    and (i, 1) the mirror label, with p from ``_PRESET_LABELS``."""
    try:
        weight, first, rest = _PRESET_LABELS[name.lower()]
    except KeyError:
        raise InvalidPartition(f"unknown partition preset {name!r}") from None
    labelled = []
    for i in range(N):
        p = rest if i else first
        labelled += [((i, 0), (p, weight - p)), ((i, 1), (weight - p, p))]
    return partition_from_labels(N, weight, labelled)


def partition_from_labels(N: int, weight: int, labelled_slots) -> HodgePartition:
    """Build a partition from an iterable of (slot, (p, q)), its blocks
    ordered by (-p, q)."""
    blocks: dict = {}
    for slot, label in labelled_slots:
        blocks.setdefault(tuple(label), set()).add(tuple(slot))
    return HodgePartition(
        N, weight,
        tuple(sorted(((lab, frozenset(slots)) for lab, slots in blocks.items()),
                     key=lambda kv: (-kv[0][0], kv[0][1]))),
    ).validate()


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


# --------------------------------------------------------------------------
# abstract CM types


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
