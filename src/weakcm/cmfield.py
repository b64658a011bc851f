"""Degree-2/4 CM field classification, Galois data, and reflex fields.

A quartic CM field presented as Q(xi+) with xi+^2 = p + q*sqrt(d) falls into
one of three cases by the square class of dp := p^2 - q^2 d:

* (A) biquadratic Q(sqrt(p1), sqrt(p2)), Galois group Z2 x Z2 (given
      directly by p1, p2);
* (B) dp in d*(Q^x)^2: Galois over Q with cyclic group Z4;
* (C) otherwise: non-Galois, normal closure of degree 8 with group
      Z4 x| Z2 (dihedral).

For cases B and C the reflex field of the CM type {phi', sigma0 phi'} is the
rational span of {1, sqrt(dp), xi+ + xi-, sqrt(d)(xi+ - xi-)} inside the
closure; it is computed and certified here (span closed under
multiplication, pointwise fixed by the stabilizer of the type, generators
totally imaginary).
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import tower as tw
from .errors import MathError, SquareClassMismatch, WrongCase

DEG2, CASE_A, CASE_B, CASE_C = "deg2", "A", "B", "C"


class CMFieldData(NamedTuple):
    """A classified CM field with its normal closure."""

    degree: int          # [K':Q], 2 or 4
    case: str            # deg2 / A / B / C
    tower: tw.TowerSpec
    phi_basis: tuple     # tower basis labels spanning phi'(K') in the closure

    @property
    def closure_degree(self) -> int:
        return self.tower.dim

    def field_basis_elements(self):
        return [self.tower.gen(lbl) for lbl in self.phi_basis]


# classify results kept per process, least recently used dropped first; the
# Galois group and reflex caches, which hold the field's tower, alike.  A
# tower keeps what is built from it once in one table (``TowerSpec.kept``:
# s0^3, subalgebra spans, difference, coordinate and residue maps, and the
# standard form of each n and p), so these bounds bound those
_CLASSIFY_CACHE_SIZE = 64

_SHAPES = ({"p"}, {"p1", "p2"}, {"d", "p", "q"})


def classify(params: dict) -> CMFieldData:
    """Decide the case from a parameter record and build the closure.

    {"p": ...} is imaginary quadratic; {"p1": ..., "p2": ...} is biquadratic
    (case A); {"d": ..., "p": ..., "q": ...} is quartic, split into B/C by
    the square class of dp = p^2 - q^2 d.

    Results are cached per process in a bounded LRU cache, so equal
    parameters return the same object, shared by every caller and not to be
    modified.  The key is the canonical parameters, each value parsed by
    ``tower.parse_rational`` (``"-5/2"``, ``Fraction(-5, 2)`` and ``-2.5``
    share an entry; a value that does not parse raises ValueError or
    ZeroDivisionError naming its key), with the raw ``WEAKCM_FACTOR_BOUND``
    setting, read on every call, so a changed bound is followed.  The build
    reads the bound itself and raises ``BadFactorBound`` if it is unusable.
    """
    keys = set(k for k in params if k in ("p", "q", "d", "p1", "p2"))
    if keys not in _SHAPES:
        raise SquareClassMismatch(
            "parameter record must be {p}, {p1,p2} or {d,p,q}"
        )
    canon = []
    for k in sorted(keys):
        try:
            canon.append((k, tw.parse_rational(params[k])))
        except (ValueError, ZeroDivisionError) as exc:
            raise type(exc)(f"{exc} (parameter {k!r})") from exc
    return _classify_cached(tuple(canon), os.environ.get(tw._FACTOR_BOUND_ENV))


@lru_cache(maxsize=_CLASSIFY_CACHE_SIZE)
def _classify_cached(canon: tuple, raw_bound) -> CMFieldData:
    # the build reads the bound itself; its raw setting is part of the key only
    params = dict(canon)
    if params.keys() == {"p"}:
        t = tw.quadratic_tower(params["p"])
        return CMFieldData(2, DEG2, t, ("1", "sqrt(p)"))
    if params.keys() == {"p1", "p2"}:
        t = tw.biquadratic_tower(params["p1"], params["p2"])
        return CMFieldData(4, CASE_A, t, t.basis)
    # d first: the square class of dp against d = 0 is undefined
    d, p, q, dprime = tw._check_quartic_params(params["d"], params["p"], params["q"])
    if tw.square_class_test(dprime, d):
        t = tw.cyclic_quartic_tower(d, p, q)
        return CMFieldData(4, CASE_B, t, t.basis)
    t = tw.quartic_closure_tower(d, p, q)
    return CMFieldData(4, CASE_C, t, ("1", "sqrt(d)", "xi+", "sqrt(d)*xi+"))


def build_as_case(case: str, params: dict) -> CMFieldData:
    """Classify, then insist on a named case (SquareClassMismatch otherwise)."""
    data = classify(params)
    if data.case != case:
        raise SquareClassMismatch(
            f"parameters classify as case {data.case}, not {case}"
        )
    return data


def dprime_of(field: CMFieldData) -> Fraction | None:
    if field.case in (CASE_B, CASE_C):
        p, q, d = (field.tower.params[k] for k in ("p", "q", "d"))
        return p * p - q * q * d
    return None


# --------------------------------------------------------------------------
# Galois group on the embeddings


class GaloisGroupData(NamedTuple):
    """The closure's automorphism group with its action on the embeddings
    of K', ordered (phi', s0 phi', s0^2 phi', s0^3 phi') in cases B/C and
    (phi', s1 phi', s2 phi', s1 s2 phi') in case A."""

    field: CMFieldData
    elements: tuple            # GaloisElement, deterministic order
    conj_index: int            # index of complex conjugation rho
    embedding_words: tuple     # label of the coset representative per slot
    action: tuple              # per element: permutation tuple on embeddings
    pairing: tuple             # embedding index -> conjugate embedding index

    @property
    def order(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=_CLASSIFY_CACHE_SIZE)
def galois_group(field: CMFieldData) -> GaloisGroupData:
    t = field.tower
    elements = t.galois_elements()
    conj_index = next(i for i, g in enumerate(elements) if g == t.conjugation)

    # each embedding of K' as its restriction to phi'(K'): the images of the
    # basis under a word in the named generators
    r0 = tuple(field.field_basis_elements())
    gens = t.generators
    if field.case == DEG2:
        words, restrictions = ("1", "rho"), [r0, _images(gens["rho"], r0)]
    elif field.case == CASE_A:
        s1, s2 = gens["s1"], gens["s2"]
        words = ("1", "s1", "s2", "s1*s2")
        restrictions = [r0, _images(s1, r0), _images(s2, r0),
                        _images(s1, _images(s2, r0))]
    else:
        words, restrictions = ("1", "s0", "s0^2", "s0^3"), [r0]
        for _ in range(3):
            restrictions.append(_images(gens["s0"], restrictions[-1]))

    index_of = {r: i for i, r in enumerate(restrictions)}
    if len(index_of) != len(restrictions):
        raise MathError("embedding restrictions are not distinct")
    try:
        action = tuple(tuple(index_of[_images(g, r)] for r in restrictions)
                       for g in elements)
    except KeyError:
        raise MathError("an embedding's image is not a known restriction") from None

    pairing = action[conj_index]
    if any(pairing[i] == i for i in range(len(restrictions))):
        raise MathError("conjugation pairing has a fixed embedding")

    return GaloisGroupData(
        field=field,
        elements=elements,
        conj_index=conj_index,
        embedding_words=words,
        action=action,
        pairing=pairing,
    )


def _images(g, xs) -> tuple:
    return tuple(g(x) for x in xs)


def dodson_type(field: CMFieldData) -> dodson.AbstractCMType:
    """The Galois action on embeddings as a subgroup of Im(n',2), with the
    CM type {phi', s0 phi'} (resp. {phi', s1 phi'} in case A)."""
    from . import dodson

    gg = galois_group(field)
    n_pairs = field.degree // 2
    # weight-1 style labels orient the pairs: the CM-type embeddings, the
    # first n_pairs of (phi', s? phi', ...), are unbarred
    labels = [(1, 0)] * n_pairs + [(0, 1)] * n_pairs
    elements, _ = dodson.induced_pair_group(range(field.degree), gg.pairing,
                                            gg.action, labels)
    return dodson.AbstractCMType(elements, dodson.standard_phi(n_pairs))


# --------------------------------------------------------------------------
# reflex field for cases B and C


class ReflexFieldData(NamedTuple):
    basis: tuple               # 4 FieldElements spanning (K')^r in the closure
    degree: int
    equals_field: bool         # case B: reflex span coincides with phi'(K')
    stabilizer_words: tuple    # elements fixing the CM type {phi', s0 phi'}
    cm_witness: dict           # generator label -> (u, v) with square u+v*sqrt(dp)


@lru_cache(maxsize=_CLASSIFY_CACHE_SIZE)
def reflex_bc(field: CMFieldData) -> ReflexFieldData:
    """The reflex field of (K', {phi', s0 phi'}) inside the closure."""
    if field.case not in (CASE_B, CASE_C):
        raise WrongCase(f"reflex basis is defined for cases B/C, not {field.case}")
    from . import linalg

    t = field.tower
    d = t.params["d"]
    dprime = dprime_of(field)
    one = t.one()
    sd = t.gen("sqrt(d)")
    xp = t.gen("xi+")
    if field.case == CASE_B:
        e = tw.rational_sqrt(dprime / d)
        sdp = sd * e
        xm = t.generators["s0"](xp)
    else:
        sdp = t.gen("sqrt(dp)")
        xm = t.gen("xi-")
    basis = (one, sdp, xp + xm, sd * (xp - xm))

    # dimension 4 over Q
    if linalg.row_rank([list(b.coeffs) for b in basis]) != 4:
        raise MathError("reflex basis is linearly dependent")

    # the span is closed under multiplication
    span = linalg.generated_subalgebra(t, basis)
    if len(span) != 4:
        raise MathError("reflex span is not closed under multiplication")

    # compare the reflex span with phi'(K') inside the closure: equal in
    # case B (both are the whole quartic field), distinct in case C
    stacked = [list(b.coeffs) for b in basis]
    stacked += [list(b.coeffs) for b in field.field_basis_elements()]
    equals_field = linalg.row_rank(stacked) == 4

    # stabilizer of the type {phi', s0 phi'} fixes the reflex span pointwise
    gg = galois_group(field)
    type_set = {0, 1}
    stab = [
        g for g, perm in zip(gg.elements, gg.action)
        if {perm[0], perm[1]} == type_set
    ]
    for g in stab:
        for b in basis:
            if g(b) != b:
                raise MathError(
                    "reflex span is not fixed by the stabilizer of the CM type"
                )
    if len(stab) != len(gg.elements) // 4:
        raise MathError("CM-type stabilizer has unexpected order")

    # CM witness: both imaginary generators square to totally negative values
    witness = {}
    for label, g in (("xi+ + xi-", basis[2]), ("sqrt(d)*(xi+ - xi-)", basis[3])):
        sq = g * g
        coords = linalg.subspace_coordinates([one, sdp], sq)
        if coords is None:
            raise MathError("squared reflex generator left Q(sqrt(dp))")
        u, v = coords
        if not (u < 0 and u * u - v * v * dprime > 0):
            raise MathError("reflex generator is not totally imaginary")
        witness[label] = (u, v)

    return ReflexFieldData(
        basis=basis,
        degree=4,
        equals_field=equals_field,
        stabilizer_words=tuple(g.label for g in stab),
        cm_witness=witness,
    )
