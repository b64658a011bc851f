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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg, tower as tw
from .errors import BadFactorBound, MathError, SquareClassMismatch, WrongCase

DEG2, CASE_A, CASE_B, CASE_C = "deg2", "A", "B", "C"


@dataclass(frozen=True)
class CMFieldData:
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


# classify results kept per process, least recently used dropped first
_CLASSIFY_CACHE_SIZE = 64

_SHAPES = ({"p"}, {"p1", "p2"}, {"d", "p", "q"})


def classify(params: dict) -> CMFieldData:
    """Decide the case from a parameter record and build the closure.

    {"p": ...} is imaginary quadratic; {"p1": ..., "p2": ...} is biquadratic
    (case A); {"d": ..., "p": ..., "q": ...} is quartic, split into B/C by
    the square class of dp = p^2 - q^2 d.

    Results are cached per process in a bounded LRU cache, so equal
    parameters return the same object, shared by every caller and not to be
    modified.  The key is the canonical
    parameters, each value parsed by ``tower.parse_rational`` (``"-5/2"``,
    ``Fraction(-5, 2)`` and ``-2.5`` share an entry), together with the
    trial-division bound ``tower._factor_bound()``, which is read on every
    call before the lookup, so a changed ``WEAKCM_FACTOR_BOUND`` is
    followed.  When that bound is unusable the field is built uncached, and
    ``BadFactorBound`` is raised where the build reads the bound.
    """
    keys = set(k for k in params if k in ("p", "q", "d", "p1", "p2"))
    if keys not in _SHAPES:
        raise SquareClassMismatch(
            "parameter record must be {p}, {p1,p2} or {d,p,q}"
        )
    canon = tuple((k, tw.parse_rational(params[k])) for k in sorted(keys))
    try:
        bound = tw._factor_bound()
    except BadFactorBound:
        return _build(canon)
    return _classify_cached(canon, bound)


def _build(canon: tuple) -> CMFieldData:
    params = dict(canon)
    if params.keys() == {"p"}:
        t = tw.quadratic_tower(params["p"])
        return CMFieldData(2, DEG2, t, ("1", "sqrt(p)"))
    if params.keys() == {"p1", "p2"}:
        t = tw.biquadratic_tower(params["p1"], params["p2"])
        return CMFieldData(4, CASE_A, t, t.basis)
    d, p, q = params["d"], params["p"], params["q"]
    dprime = p * p - q * q * d
    if dprime > 0 and tw.square_class_test(dprime, d):
        t = tw.cyclic_quartic_tower(d, p, q)
        return CMFieldData(4, CASE_B, t, t.basis)
    t = tw.quartic_closure_tower(d, p, q)
    return CMFieldData(4, CASE_C, t, ("1", "sqrt(d)", "xi+", "sqrt(d)*xi+"))


@lru_cache(maxsize=_CLASSIFY_CACHE_SIZE)
def _classify_cached(canon: tuple, bound: int) -> CMFieldData:
    # the build reads the bound itself; it is part of the key only
    return _build(canon)


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


@dataclass(frozen=True)
class GaloisGroupData:
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


@lru_cache(maxsize=None)
def galois_group(field: CMFieldData) -> GaloisGroupData:
    t = field.tower
    elements = t.galois_elements()
    conj = t.conjugation
    conj_index = next(i for i, g in enumerate(elements) if g == conj)

    # embeddings of K' = cosets of the pointwise stabilizer H of phi'(K')
    field_basis = field.field_basis_elements()
    H = [g for g in elements
         if all(g(x) == x for x in field_basis)]
    if len(elements) != field.degree * len(H):
        raise MathError("stabilizer of the field has unexpected order")

    index_of = {g: i for i, g in enumerate(elements)}

    def coset(g):
        return frozenset(index_of[g.compose(h)] for h in H)

    if field.case == DEG2:
        reps = [elements[0], t.generators["rho"]]
        words = ("1", "rho")
    elif field.case == CASE_A:
        s1, s2 = t.generators["s1"], t.generators["s2"]
        reps = [elements[0], s1, s2, s1.compose(s2)]
        words = ("1", "s1", "s2", "s1*s2")
    else:
        s0 = t.generators["s0"]
        reps = [elements[0], s0, s0.compose(s0), s0.compose(s0).compose(s0)]
        words = ("1", "s0", "s0^2", "s0^3")

    cosets = [coset(r) for r in reps]
    if len(set(cosets)) != len(cosets):
        raise MathError("embedding cosets are not distinct")
    coset_index = {c: i for i, c in enumerate(cosets)}

    action = []
    for g in elements:
        perm = []
        for r in reps:
            perm.append(coset_index[coset(g.compose(r))])
        action.append(tuple(perm))

    rho_perm = action[conj_index]
    pairing = tuple(rho_perm[i] for i in range(len(reps)))
    if any(pairing[i] == i for i in range(len(reps))):
        raise MathError("conjugation pairing has a fixed embedding")

    return GaloisGroupData(
        field=field,
        elements=elements,
        conj_index=conj_index,
        embedding_words=words,
        action=tuple(action),
        pairing=pairing,
    )


def dodson_type(field: CMFieldData) -> dodson.AbstractCMType:
    """The Galois action on embeddings as a subgroup of Im(n',2), with the
    CM type {phi', s0 phi'} (resp. {phi', s1 phi'} in case A)."""
    from . import dodson

    gg = galois_group(field)
    n_pairs = field.degree // 2
    items = list(range(field.degree))
    rho_map = {i: gg.pairing[i] for i in items}
    # weight-1 style labels orient the pairs: CM-type embeddings unbarred
    phi_members = set(range(n_pairs))  # reps were ordered phi', s?phi', ...
    if field.case in (CASE_B, CASE_C):
        phi_members = {0, 1}
    if field.case == CASE_A:
        phi_members = {0, 1}
    if field.case == DEG2:
        phi_members = {0}
    labels = {i: ((1, 0) if i in phi_members else (0, 1)) for i in items}
    actions = [{i: perm[i] for i in items} for perm in gg.action]
    elements, _ = dodson.induced_pair_group(items, rho_map, actions, labels)
    return dodson.AbstractCMType(elements, dodson.standard_phi(n_pairs),
                                 simple=True)


# --------------------------------------------------------------------------
# reflex field for cases B and C


@dataclass(frozen=True)
class ReflexFieldData:
    basis: tuple               # 4 FieldElements spanning (K')^r in the closure
    degree: int
    equals_field: bool         # case B: reflex span coincides with phi'(K')
    stabilizer_words: tuple    # elements fixing the CM type {phi', s0 phi'}
    cm_witness: dict           # generator label -> (u, v) with square u+v*sqrt(dp)


@lru_cache(maxsize=None)
def reflex_bc(field: CMFieldData) -> ReflexFieldData:
    """The reflex field of (K', {phi', s0 phi'}) inside the closure."""
    if field.case not in (CASE_B, CASE_C):
        raise WrongCase(f"reflex basis is defined for cases B/C, not {field.case}")
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
    span = tw.generated_subalgebra(t, basis)
    if len(span) != 4:
        raise MathError("reflex span is not closed under multiplication")

    # compare the reflex span with phi'(K') inside the closure: equal in
    # case B (both are the whole quartic field), distinct in case C
    field_span = [t.gen(lbl) for lbl in field.phi_basis]
    stacked = [list(b.coeffs) for b in basis]
    stacked += [list(b.coeffs) for b in field_span]
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
    expected_stab = len(gg.elements) // 4
    if len(stab) != expected_stab:
        raise MathError("CM-type stabilizer has unexpected order")

    # CM witness: both imaginary generators square to totally negative values
    witness = {}
    for label, g in (("xi+ + xi-", basis[2]), ("sqrt(d)*(xi+ - xi-)", basis[3])):
        sq = g * g
        coords = tw.subspace_coordinates([one, sdp], sq)
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


# --------------------------------------------------------------------------
# serialized case reports


def case_report(field: CMFieldData) -> dict:
    gg = galois_group(field)
    report = {
        "case": field.case,
        "degree": field.degree,
        "closure_degree": field.closure_degree,
        "tower": tw.serialize_tower(field.tower),
        "group_order": gg.order,
        "generators": {
            name: g.action_table()
            for name, g in sorted(field.tower.generators.items())
        },
        "embeddings": list(gg.embedding_words),
        "embedding_pairing": list(gg.pairing),
    }
    dp = dprime_of(field)
    if dp is not None:
        report["dprime"] = tw.format_rational(dp)
    return report
