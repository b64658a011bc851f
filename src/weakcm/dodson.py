"""The test oracles of the Dodson layer, and the names the benchmark's tracer
wraps.

No subcommand imports this module: the group code lives in ``dodson_core``,
``dodson_classes`` and ``dodson_reflex``, split by use so that a fresh
process compiles only what its subcommand runs.  The module stays for two
reasons.  The |Im(N,2)|^2 table ``universe(N)`` (``_Universe``) and the
brute-force lattice walk ``_enumerate_admissible_walk`` are test oracles
that ``perfbench/spans.py`` wraps here by name; ROADMAP item 16 moves them
to the tests.  ``universe(N)`` is bounded like every Im(N,2) computation:
the S_N tables it is built from refuse N > ``UNIVERSE_BOUND``.  The tracer
also wraps ``enumerate_admissible``, ``classify_conjugacy``,
``reflex_from_dodson``, ``triple_from_group`` and ``group_from_triple`` as
``dodson.<name>``, so this module re-exports them; its ``replace`` patches
every loaded module that holds the same function, so production calls
still pass through the wrappers.  ROADMAP item 5, a trace
the library owns, retires those wrappers, and then this module.
"""

from __future__ import annotations

from functools import lru_cache

from .dodson_classes import classify_conjugacy, enumerate_admissible
from .dodson_core import (
    ImN2Element,
    _is_transitive,
    _sn_tables,
    group_from_triple,
    im_identity,
    im_rho,
    triple_from_group,
)
from .dodson_reflex import reflex_from_dodson

__all__ = ["classify_conjugacy", "enumerate_admissible", "group_from_triple",
           "reflex_from_dodson", "triple_from_group", "universe"]


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
    """The ``_Universe`` tables of Im(N,2), for the walk and the test oracles;
    the S_N tables they are built from check N against ``UNIVERSE_BOUND``."""
    return _Universe(N)


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
