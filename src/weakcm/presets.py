"""The thirteen weight-1 CM-type configurations on six rational dimensions.

A commutative algebra of rank 6 acting on the weight-1 cohomology of an
abelian threefold is a sum of CM fields of total degree 6.  Up to conjugacy
the possibilities are:

* six simple sextic cases, one per class of N=3 Dodson data under the
  weight-1 slot stabilizer,
* four quartic + quadratic sums: cases (B), (C), and the two case-(A) sums
  distinguished by whether the quartic's quadratic reflex is isomorphic to
  the quadratic summand (A.iso / A.noniso),
* three sums of imaginary quadratics: all isomorphic (i), exactly two
  isomorphic (ii), pairwise distinct (iii).

Each preset is realized as an explicit subgroup of Im(3,2) with the
standard CM type (all unbarred slots); sums are block groups, and the "iso"
identification is a fibre product over the shared quadratic quotient.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple

from .dodson_core import (
    AbstractCMType,
    DodsonTriple,
    ImN2Element,
    group_from_triple,
    standard_phi,
)

if TYPE_CHECKING:
    from .dodson_reflex import ReflexReport

_ID3 = (0, 1, 2)
_C3 = (1, 2, 0)
_C3SQ = (2, 0, 1)
_Z3 = (_ID3, _C3, _C3SQ)
_S3 = tuple(sorted(itertools.permutations(range(3))))
_V1 = ((0, 0, 0), (1, 1, 1))
_V3 = tuple(sorted(itertools.product((0, 1), repeat=3)))

_SW2 = (1, 0)


def _simple(g0, v, s) -> tuple:
    triple = DodsonTriple(N=3, g0=tuple(sorted(g0)), v=tuple(sorted(v)),
                          s=tuple(sorted(s.items())))
    return group_from_triple(triple)


def _triv(g0):
    return {p: (0, 0, 0) for p in g0}


# s = coboundary of the bit vector 100; nonzero mod V yet trivial in H^1
_S3_NONTRIV = {
    (0, 1, 2): (0, 0, 0),
    (1, 2, 0): (1, 1, 0),
    (2, 0, 1): (1, 0, 1),
    (1, 0, 2): (1, 1, 0),
    (2, 1, 0): (1, 0, 1),
    (0, 2, 1): (0, 0, 0),
}

_Z3_NONTRIV = {
    (0, 1, 2): (0, 0, 0),
    (1, 2, 0): (1, 0, 0),
    (2, 0, 1): (1, 1, 0),
}


def _merge(blocks):
    """Assemble an Im(3,2) element from (pair indices, local element) parts."""
    bits = [0, 0, 0]
    perm = [0, 0, 0]
    for pairs, local in blocks:
        for li, gi in enumerate(pairs):
            perm[gi] = pairs[local.perm[li]]
            bits[gi] = local.bits[li]
    return ImN2Element(tuple(bits), tuple(perm))


def _block_product(*blocks):
    """Direct product of block groups placed on disjoint pair sets."""
    out = []
    for combo in itertools.product(*(grp for _, grp in blocks)):
        out.append(_merge(list(zip((pairs for pairs, _ in blocks), combo))))
    return tuple(sorted(out))


_K2A = tuple(ImN2Element(b, p) for b, p in
             (((0, 0), (0, 1)), ((1, 1), (0, 1)), ((0, 0), _SW2), ((1, 1), _SW2)))
_K2B = tuple(ImN2Element(b, p) for b, p in
             (((0, 0), (0, 1)), ((1, 1), (0, 1)), ((0, 1), _SW2), ((1, 0), _SW2)))
_K2C = tuple(ImN2Element(b, p) for b in itertools.product((0, 1), repeat=2)
             for p in ((0, 1), _SW2))  # all of Im(2,2)
_Z2_ONE_PAIR = (ImN2Element((0,), (0,)), ImN2Element((1,), (0,)))


def _bits_only(bit_vectors):
    return tuple(sorted(ImN2Element(b, _ID3) for b in bit_vectors))


class Weight1Preset(NamedTuple):
    name: str
    description: str
    cm_type: AbstractCMType
    note: str = ""


_III_NOTE = (
    "flag: reflex-degree readings for this preset differ in the literature "
    "(n'=4 versus a degree-8 Galois group Z2^3); the computed value is "
    "reported: 2n'=8, i.e. n'=4, with Galois group Z2^3."
)


def weight1_presets() -> list[Weight1Preset]:
    """All 13 presets, in the fixed order: six simple, four quartic sums,
    three quadratic triple sums."""
    phi = standard_phi(3)

    def simple(name, desc, g0, v, s):
        return Weight1Preset(
            name, desc,
            AbstractCMType(_simple(g0, v, s), phi),
        )

    presets = [
        simple("Z3-1-triv", "simple sextic, (Z3,1,triv.)", _Z3, _V1, _triv(_Z3)),
        simple("Z3-1-nontriv", "simple sextic, (Z3,1,non-triv.)", _Z3, _V1,
               _Z3_NONTRIV),
        simple("S3-1-triv", "simple sextic, (S3,1,triv.)", _S3, _V1, _triv(_S3)),
        simple("S3-1-nontriv", "simple sextic, (S3,1,non-triv.)", _S3, _V1,
               _S3_NONTRIV),
        simple("Z3-3-triv", "simple sextic, (Z3,3,triv.)", _Z3, _V3, _triv(_Z3)),
        simple("S3-3-triv", "simple sextic, (S3,3,triv.)", _S3, _V3, _triv(_S3)),
        Weight1Preset(
            "B", "cyclic quartic + imaginary quadratic",
            AbstractCMType(_block_product(((0, 1), _K2B), ((2,), _Z2_ONE_PAIR)),
                           phi),
        ),
        Weight1Preset(
            "C", "non-Galois quartic + imaginary quadratic",
            AbstractCMType(_block_product(((0, 1), _K2C), ((2,), _Z2_ONE_PAIR)),
                           phi),
        ),
        Weight1Preset(
            "A-iso", "biquadratic + its own quadratic reflex",
            AbstractCMType(_a_iso_group(), phi),
        ),
        Weight1Preset(
            "A-noniso", "biquadratic + an unrelated imaginary quadratic",
            AbstractCMType(_block_product(((0, 1), _K2A), ((2,), _Z2_ONE_PAIR)),
                           phi),
        ),
        Weight1Preset(
            "sum-iso3", "three isomorphic imaginary quadratics (i)",
            AbstractCMType(_bits_only(((0, 0, 0), (1, 1, 1))), phi),
        ),
        Weight1Preset(
            "sum-iso2", "two isomorphic + one distinct quadratic (ii)",
            AbstractCMType(
                _bits_only(((0, 0, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1))), phi),
        ),
        Weight1Preset(
            "sum-distinct", "three pairwise distinct quadratics (iii)",
            AbstractCMType(_bits_only(_V3), phi),
            note=_III_NOTE,
        ),
    ]
    return presets


def _a_iso_group():
    """Fibre product: the third quadratic is identified with the reflex
    Q(sqrt(p2)) of the biquadratic, so the group is Gal(Q(sqrt(p1),sqrt(p2)))
    acting on all three pairs.  The quadratic reflex character of a
    biquadratic element is its first bit."""
    out = []
    for g in _K2A:
        chi = g.bits[0]
        out.append(_merge([((0, 1), g), ((2,), ImN2Element((chi,), (0,)))]))
    return tuple(sorted(out))


def preset_by_name(name: str) -> Weight1Preset:
    for pr in weight1_presets():
        if pr.name == name:
            return pr
    raise KeyError(name)


def preset_reflex_reports() -> list[tuple[Weight1Preset, ReflexReport]]:
    """Each preset with its level-3 reflex data; the reflex code is imported
    here, so a preset named in a Hodge document does not compile it."""
    from .dodson_reflex import reflex_from_dodson

    return [(pr, reflex_from_dodson(pr.cm_type, 3)) for pr in weight1_presets()]
