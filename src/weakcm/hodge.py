"""Combinatorial CM Hodge structures: tensor products, level subspaces,
the K3 x T^2 analysis, and the two weight-1 repackagings of a weight-3
structure.

A structure is a finite set of eigenvector slots with Hodge labels (p, q),
a fixed-point-free conjugation pairing, and a finite group acting on the
slots through the pairing (the Galois data of the coefficient field).  The
group action need not respect the labels; purity of the Galois conjugates
of the top form is a computed property, and is exactly what the weak-CM
condition asks of the level subspace.

Genuinely non-CM inputs are modeled by "conjugate spreads": a declared map
sending a group element to the set of slots its image of the top form
touches.  A CM structure has singleton spreads; a spread crossing two Hodge
blocks is the combinatorial shadow of a top-form conjugate of mixed type.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import dodson_core
from .errors import (
    IncompatibleIdentifications,
    InvalidHodgeStructure,
    MultipleTopForms,
    NotWeakCM,
    NoTopForm,
    WrongWeight,
)


class CMHodgeStructure:
    """Slots, labels, conjugation pairing and a pairing-respecting group.

    A group element is a tuple of slot images: entry i is the image of
    ``slots[i]``, the slots in sorted order (``slot_images`` encodes an
    Im(N,2) element so).  ``group`` and the keys of ``top_spreads`` are such
    tuples; the group is stored sorted, without repeats.  An element that
    ``top_spreads`` omits sends the top form to one slot.
    """

    def __init__(self, weight, slots, labels, rho, group, top_spreads=None):
        self.weight = weight
        self.slots = tuple(sorted(slots))
        self.index = {s: i for i, s in enumerate(self.slots)}
        self.labels = dict(labels)
        self.rho = dict(rho)
        self.group = tuple(sorted(set(group)))
        self.top_spreads = dict(top_spreads or {})
        self._validate()

    def apply(self, g, slot):
        return g[self.index[slot]]

    @property
    def dim(self) -> int:
        return len(self.slots)

    def _validate(self):
        for s in self.slots:
            p, q = self.labels[s]
            if p + q != self.weight:
                raise InvalidHodgeStructure(
                    f"label {self.labels[s]} has weight != {self.weight}"
                )
            r = self.rho[s]
            if r == s or self.rho[r] != s:
                raise InvalidHodgeStructure("conjugation pairing is not a free involution")
            if tuple(self.labels[r]) != (q, p):
                raise InvalidHodgeStructure("labels are not conjugate-symmetric")
        ident = tuple(self.slots)
        if ident not in self.group:
            raise InvalidHodgeStructure("group does not contain the identity")
        rho_images = tuple(self.rho[s] for s in self.slots)
        if rho_images not in self.group:
            raise InvalidHodgeStructure("group does not contain the conjugation")
        for g in self.group:
            if sorted(g) != list(self.slots):
                raise InvalidHodgeStructure("group element is not a slot permutation")
            for s in self.slots:
                if self.apply(g, self.rho[s]) != self.rho[self.apply(g, s)]:
                    raise InvalidHodgeStructure("group element does not commute with rho")

    def compose(self, g, h):
        """g after h, as image tuples."""
        return tuple(g[self.index[h[i]]] for i in range(len(self.slots)))

    def slots_with_label(self, label):
        return [s for s in self.slots if tuple(self.labels[s]) == tuple(label)]

    def top_slot(self):
        tops = self.slots_with_label((self.weight, 0))
        if not tops:
            raise NoTopForm("no slot carries the (m,0) label")
        if len(tops) > 1:
            raise MultipleTopForms("more than one slot carries the (m,0) label")
        return tops[0]

    def spread(self, g):
        """Slots touched by the image of the top form under g."""
        if g in self.top_spreads:
            return frozenset(self.top_spreads[g])
        return frozenset({self.apply(g, self.top_slot())})

    def spread_pure(self, g, labels=None) -> bool:
        labels = labels or self.labels
        return len({tuple(labels[s]) for s in self.spread(g)}) == 1

    def is_cm(self) -> bool:
        """All Galois conjugates of the top form are of pure Hodge type."""
        return all(self.spread_pure(g) for g in self.group)

    def hodge_numbers(self):
        out = {}
        for s in self.slots:
            key = tuple(self.labels[s])
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items(), key=lambda kv: (-kv[0][0], kv[0][1])))

    def relabel(self, label_map, new_weight):
        """Same slots, pairing, group and spreads; new Hodge labels."""
        labels = {s: label_map[tuple(self.labels[s])] for s in self.slots}
        return CMHodgeStructure(new_weight, self.slots, labels, self.rho,
                                self.group, top_spreads=self.top_spreads)


# --------------------------------------------------------------------------
# builders


def slot_images(g, slots):
    """The Im(N,2) element g as a ``CMHodgeStructure`` group element: the
    images of the signed ``slots`` (a structure's sorted slots) under g."""
    return tuple(dodson_core.act_slot(g, s) for s in slots)


def from_group(weight, group_elements, labels_by_slot):
    """Structure on the 2N signed slots of an Im(N,2) subgroup."""
    elements = tuple(group_elements)
    N = elements[0].N
    slots = [(i, b) for i in range(N) for b in (0, 1)]
    rho = {(i, b): (i, b ^ 1) for i, b in slots}
    group = [slot_images(g, slots) for g in elements]
    return CMHodgeStructure(weight, slots, labels_by_slot, rho, group)


def _preset_structure(preset, group_elements):
    """Structure on the slots of an Im(N,2) subgroup, labelled by the blocks
    of ``dodson_core.partition_preset(preset, N)``."""
    elements = tuple(group_elements)
    partition = dodson_core.partition_preset(preset, elements[0].N)
    labels = {s: label for label, slots in partition.blocks for s in slots}
    return from_group(partition.weight, elements, labels)


def weight1_structure(group_elements):
    return _preset_structure("abl", group_elements)


def k3_structure(group_elements):
    """Transcendental-lattice shape: h^{2,0} = 1 on the first pair."""
    return _preset_structure("k3", group_elements)


def cy3_structure(group_elements):
    return _preset_structure("cy3", group_elements)


def elliptic_structure():
    return weight1_structure((dodson_core.im_identity(1), dodson_core.im_rho(1)))


# --------------------------------------------------------------------------
# tensor products


def tensor_cm(h1: CMHodgeStructure, h2: CMHodgeStructure, identification=None):
    """Tensor product of CM structures.

    With no identification the acting group is the direct product.  An
    identification is a homomorphism from h1's group onto h2's (given as a
    list of h2 element indices, one per h1 element); it declares that the
    second coefficient field lies inside the closure of the first, and the
    joint group is the graph {(g, chi(g))}.

    The slots are the pairs (s, t), and (g, h) is the tuple of the pairs
    (g(s), h(t)).  When a factor declares conjugate spreads, the spread of
    (g, h) is the product of the factors' spreads of g and h.
    """
    pairs = None
    if identification is not None:
        if len(identification) != len(h1.group):
            raise IncompatibleIdentifications(
                "identification must assign an h2 element to every h1 element"
            )
        chi = {g: h2.group[identification[i]] for i, g in enumerate(h1.group)}
        ident1 = tuple(h1.slots)
        ident2 = tuple(h2.slots)
        if chi[ident1] != ident2:
            raise IncompatibleIdentifications("identification must preserve identities")
        for a in h1.group:
            for b in h1.group:
                if chi[h1.compose(a, b)] != h2.compose(chi[a], chi[b]):
                    raise IncompatibleIdentifications(
                        "identification is not a group homomorphism"
                    )
        rho1 = tuple(h1.rho[s] for s in h1.slots)
        rho2 = tuple(h2.rho[s] for s in h2.slots)
        if chi[rho1] != rho2:
            raise IncompatibleIdentifications(
                "identification must send conjugation to conjugation"
            )
        if set(chi.values()) != set(h2.group):
            raise IncompatibleIdentifications("identification must be surjective")
        pairs = [(g, chi[g]) for g in h1.group]
    else:
        pairs = [(g, h) for g in h1.group for h in h2.group]

    slots = [(s, t) for s in h1.slots for t in h2.slots]
    labels = {}
    for s, t in slots:
        p1, q1 = h1.labels[s]
        p2, q2 = h2.labels[t]
        labels[(s, t)] = (p1 + p2, q1 + q2)
    rho = {(s, t): (h1.rho[s], h2.rho[t]) for s, t in slots}

    # slots lists h1.slots x h2.slots in sorted order, so the images of
    # (g, h) are the pairs of g's and h's images in the same order
    group = []
    spreads = {} if h1.top_spreads or h2.top_spreads else None
    for g, h in pairs:
        images = tuple(itertools.product(g, h))
        group.append(images)
        if spreads is not None:
            spreads[images] = frozenset(itertools.product(h1.spread(g), h2.spread(h)))

    return CMHodgeStructure(h1.weight + h2.weight, slots, labels, rho, group,
                            top_spreads=spreads)


# --------------------------------------------------------------------------
# level subspace


def level_subspace(h: CMHodgeStructure) -> CMHodgeStructure:
    """Minimal substructure containing the top form: the group orbit of the
    (m,0) slot, closed under conjugation."""
    h.top_slot()  # a unique (m,0) slot must exist
    orbit = set()
    for g in h.group:
        orbit |= h.spread(g)
    orbit |= {h.rho[s] for s in orbit}
    orbit = tuple(sorted(orbit))
    labels = {s: h.labels[s] for s in orbit}
    rho = {s: h.rho[s] for s in orbit}
    group = []
    spreads = {} if h.top_spreads else None
    for g in h.group:
        restricted = tuple(h.apply(g, s) for s in orbit)
        group.append(restricted)
        if spreads is not None:
            # distinct elements can restrict to the same orbit map; their
            # declared spreads are merged conservatively
            spreads[restricted] = spreads.get(restricted, frozenset()) | h.spread(g)
    return CMHodgeStructure(h.weight, orbit, labels, rho, group,
                            top_spreads=spreads)


def level_dodson_data(level: CMHodgeStructure):
    """Induced Im(N',2) subgroup of a level subspace (the output of
    ``level_subspace``), with its triple."""
    from . import dodson_reflex

    actions = [dict(zip(level.slots, g)) for g in level.group]
    elements, _ = dodson_reflex.induced_pair_group(
        level.slots, level.rho, actions, level.labels
    )
    return elements, dodson_core.triple_from_group(elements)


# --------------------------------------------------------------------------
# K3 x T^2


class ProductReport(NamedTuple):
    level_dim: int
    situation: str
    strong_cm_verdict: bool
    tau_orbit_size: int
    star1_count: int
    star2_count: int
    coset_types: dict          # (p,q) label of the top-form image per coset
    level_group_name: str
    level_case_alias: str | None


def k3t2_analyze(ts: CMHodgeStructure, e: CMHodgeStructure,
                 situation: str = "disjoint", character=None) -> ProductReport:
    """Weak-CM analysis of (K3 transcendental data) x (elliptic curve).

    ``situation`` follows the two cases of the product field: "disjoint"
    (the elliptic field meets the K3 closure in Q; joint group is the
    direct product) or "contained" (the elliptic field is a declared
    subfield of the K3 field; ``character`` gives the quotient map from the
    K3 group onto the elliptic Z2).  An impure factor raises NotWeakCM
    before the product is formed; the counts are read off the images of
    the product's top slot (top, e_top), pairs of the factors' images.
    """
    if ts.weight != 2:
        raise NotWeakCM("transcendental factor must have weight 2")
    if e.weight != 1 or len(e.slots) != 2:
        raise NotWeakCM("elliptic factor must be a single weight-1 pair")
    tops = ts.slots_with_label((2, 0))
    if len(tops) != 1:
        raise NotWeakCM("K3-type data needs exactly one (2,0) slot")
    top = tops[0]
    for g in ts.group:
        if not ts.spread_pure(g):
            raise NotWeakCM(
                f"conjugate of the K3 top form under {g} is not of pure type"
            )
    for g in e.group:
        if not e.spread_pure(g):
            raise NotWeakCM("elliptic conjugate data is impure")

    if situation == "disjoint":
        if character is not None:
            raise IncompatibleIdentifications(
                "disjoint situation does not take a character"
            )
        product = tensor_cm(ts, e)
    elif situation == "contained":
        if character is None:
            raise IncompatibleIdentifications(
                "contained situation needs the quotient character"
            )
        # the declared containment Q(tau_E) inside the K3 field requires the
        # stabilizer of the K3 top slot to act trivially on the elliptic pair
        ident2 = tuple(e.slots)
        for i, g in enumerate(ts.group):
            if ts.apply(g, top) == top and e.group[character[i]] != ident2:
                raise IncompatibleIdentifications(
                    "character does not kill the stabilizer of the K3 top form; "
                    "the elliptic field is not a subfield of the K3 field"
                )
        product = tensor_cm(ts, e, identification=character)
    else:
        raise IncompatibleIdentifications(f"unknown situation {situation!r}")

    level = level_subspace(product)
    level_dim = len(level.slots)
    expected = 2 * len(ts.slots) if situation == "disjoint" else len(ts.slots)
    if level_dim != expected:
        raise NotWeakCM(
            f"level dimension {level_dim} does not match the {situation} "
            f"situation (expected {expected})"
        )

    # the tau_E orbit (the images of the elliptic top slot in the joint
    # group), the elements of the two pure-(2,1) mechanisms, and the Hodge
    # type of the top-form image per stabilizer coset
    e_top = e.top_slot()
    product_top = product.index[(top, e_top)]
    coset_images = set()
    star1 = star2 = 0
    for images in product.group:
        s_image, e_image = images[product_top]
        coset_images.add((s_image, e_image))
        if s_image == top and e_image == e.rho[e_top]:
            star1 += 1
        elif ts.labels[s_image] == (1, 1) and e_image == e_top:
            star2 += 1
    tau_orbit_size = len({e_image for _, e_image in coset_images})
    coset_types = {}
    for slot in coset_images:
        lab = tuple(product.labels[slot])
        coset_types[lab] = coset_types.get(lab, 0) + 1

    # both factors passed the purity checks above, so each is weak CM
    strong = tau_orbit_size == 2 and level.is_cm()

    from . import dodson_reflex

    elements, triple = level_dodson_data(level)
    alias = dodson_core.quartic_case_alias(triple)
    return ProductReport(
        level_dim=level_dim,
        situation=situation,
        strong_cm_verdict=strong,
        tau_orbit_size=tau_orbit_size,
        star1_count=star1,
        star2_count=star2,
        coset_types=coset_types,
        level_group_name=dodson_reflex.identify_group(elements),
        level_case_alias=alias,
    )


# --------------------------------------------------------------------------
# Weil / Griffiths repackaging


_WEIL_MAP = {(2, 1): (1, 0), (0, 3): (1, 0), (1, 2): (0, 1), (3, 0): (0, 1)}
_GRIFFITHS_MAP = {(3, 0): (1, 0), (2, 1): (1, 0), (0, 3): (0, 1), (1, 2): (0, 1)}


class RepackagedPair(NamedTuple):
    weil: CMHodgeStructure
    griffiths: CMHodgeStructure
    weil_cm: bool
    griffiths_cm: bool
    common_algebra_ok: bool


def weil_griffiths(h: CMHodgeStructure) -> RepackagedPair:
    """The two weight-1 relabelings of a weight-3 structure.

    ``weil_cm`` and ``griffiths_cm`` say whether every top-form conjugate is
    pure for each relabeling; ``common_algebra_ok`` is computed on its own
    from the weight-3 labels (``h.is_cm()``).  The original structure is CM
    exactly when both repackagings are CM: the common refinement of the
    Weil and Griffiths halves is the full weight-3 decomposition, so
    ``common_algebra_ok == (weil_cm and griffiths_cm)`` is a claim that the
    tests check, not an identity of the code.
    """
    if h.weight != 3:
        raise WrongWeight(f"weight-3 structure required, got weight {h.weight}")
    weil = h.relabel(_WEIL_MAP, 1)
    griffiths = h.relabel(_GRIFFITHS_MAP, 1)

    def cm_for(labels):
        return all(h.spread_pure(g, labels=labels) for g in h.group)

    return RepackagedPair(weil, griffiths, cm_for(weil.labels),
                          cm_for(griffiths.labels), h.is_cm())
