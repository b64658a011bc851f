"""The level-n reflex data of an abstract weight-1 CM type, and the names
of small groups.

``reflex_from_dodson`` computes the reflex degree, the Hodge numbers and the
induced Dodson data of the group acting on the orbit of the type, through
``induced_pair_group``, which ``cmfield`` and ``hodge`` also use to read a
Galois action or a level subspace as an Im(N',2) subgroup.
``identify_group`` names a subgroup by invariants of its own Cayley table.
Neither needs the enumeration of ``dodson_classes``: the class tag of an
n' = 3 reflex is one conjugacy orbit (``dodson_core._conjugacy_orbit``).
"""

from __future__ import annotations

from typing import NamedTuple

from .dodson_core import (
    AbstractCMType,
    DodsonTriple,
    ImN2Element,
    _canonical,
    _closure_by_generators,
    _conjugacy_orbit,
    _elements,
    _indices,
    _sn_index,
    _sn_tables,
    act_slot,
    im_rho,
    partition_from_labels,
    quartic_case_alias,
    triple_from_group,
)
from .errors import InvalidCMType


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
    tabulated from the S_N tables: |G|^2 products, no
    ``dodson.universe(N)``."""
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
    faster than ``dodson.universe(N)`` for the small level groups, slower for
    all of Im(4,2)); other names fall back to 'order-k'.  The S_N tables
    check N against ``UNIVERSE_BOUND`` before any table is built."""
    mul, inv = _subgroup_table(elements)
    invariants = _group_invariants(mul, inv, range(len(mul)))
    return _GROUP_NAMES.get(invariants, f"order-{invariants[0]}")
