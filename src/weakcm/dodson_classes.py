"""Admissible subgroups of Im(N,2): their enumeration from the triples
(G0, V, s), and their classes modulo a Hodge partition's stabilizer.

``enumerate_admissible`` lists the admissible subgroups from the triples:
transitive G0 <= S_N, G0-stable V containing rho, and the cocycles
G0 -> (Z2)^N / V found by propagating generator values over G0.
``classify_conjugacy`` sorts them into orbits under conjugation by the
stabilizer of a Hodge-type partition of the slots.  Only ``dodson-enum`` and
``dodson-classify`` import this module; the group code they share with the
other subcommands is in ``dodson_core``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .dodson_core import (
    DodsonTriple,
    HodgePartition,
    _canonical,
    _closure_by_generators,
    _conjugacy_orbit,
    _elements,
    _indices,
    _is_transitive,
    _lift,
    _sn_tables,
    int_text,
    quartic_case_alias,
    triple_from_group,
)
from .errors import BoundExceeded, InvalidPairCount, InvalidPartition


ENUMERATION_BOUND_DEFAULT = 4


@lru_cache(maxsize=None)
def _enumerate_admissible_cached(N: int):
    return tuple(_enumerate_admissible_triples(N))


def enumerate_admissible(N: int, bound: int = ENUMERATION_BOUND_DEFAULT):
    """All admissible subgroups of Im(N,2), each as its sorted element tuple
    (``ImN2Element`` order: bits, then perm), the list sorted.

    Built from the triples (G0, V, s), not by searching Im(N,2): see
    ``_enumerate_admissible_triples``.  N is capped by ``bound``, checked
    after ``InvalidPairCount`` for N < 1, and then by ``UNIVERSE_BOUND``,
    which the S_N tables check before any work.  The lattice walk
    ``dodson._enumerate_admissible_walk`` is the test oracle for this list.
    """
    if N < 1:
        raise InvalidPairCount(
            f"N = {int_text(N)} is below 1: Im(N,2) needs at least one conjugate pair"
        )
    if N > bound:
        raise BoundExceeded(
            f"N = {int_text(N)} exceeds the enumeration bound {int_text(bound)}"
        )
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


def _subgroups(mul, gens=()):
    """Every subgroup containing ``gens`` of the group with multiplication
    table ``mul`` and identity 0, as a frozenset of indices, mapped to
    ``gens`` followed by the fewest further generators.

    Walks the subgroup lattice up from <gens>, one layer per added
    generator: each subgroup H is extended by one candidate g per right
    coset Hg, since <H, g> = <H, hg>.  A closure multiplies out from the
    identity by the generators only, |K| * len(gens) table lookups.
    """
    start = _closure_by_generators(mul, tuple(gens))
    gens_of = {start: tuple(gens)}
    frontier = [start]
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


def _rho_subspaces(N: int):
    """The subspaces of (Z2)^N containing rho, as frozensets of bits_int:
    the subgroups of its XOR table above <rho> (``_subgroups``)."""
    rho = (1 << N) - 1
    xor = [[g ^ x for x in range(rho + 1)] for g in range(rho + 1)]
    return sorted(_subgroups(xor, (rho,)), key=sorted)


class SubgroupClass(NamedTuple):
    representative: tuple      # sorted ImN2Element list, minimal in its orbit
    triple: DodsonTriple
    orbit_size: int
    tag: str
    case_alias: str | None = None  # A/B/C for N = 2


def classify_conjugacy(N: int, partition: HodgePartition,
                       bound: int = ENUMERATION_BOUND_DEFAULT):
    """Orbits of the admissible subgroups under conjugation by S~, sorted by
    the canonical (minimal) representative of each orbit.

    The sizes are checked first, by ``enumerate_admissible``, and only then
    the partition and its stabilizer.  One orbit is computed per class,
    |S~| conjugations: every member of an orbit is marked as seen, so the
    later subgroups of the class are skipped.
    """
    subgroups = enumerate_admissible(N, bound=bound)
    if partition.N != N:
        raise InvalidPartition("partition is for a different N")
    stab = partition.stabilizer()
    seen = set()
    by_class = {}
    for elements in subgroups:
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
