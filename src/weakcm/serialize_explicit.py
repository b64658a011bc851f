"""Explicit Hodge structure documents: ``"type": "explicit"`` in a
structure document, with its elements, labels and declared spreads.

Only that branch of ``serialize.parse_structure`` imports this module, so
no other subcommand compiles it.
"""

from __future__ import annotations

from . import dodson_core, hodge
from .errors import ElementsNotClosed, InputError
from .serialize import _int_pairs, document_int, parse_imn2_element


def parse_explicit_structure(doc):
    """The CM Hodge structure of an ``"type": "explicit"`` structure
    document: its weight, pair labels, group elements (checked to be
    closed under composition) and optional declared spreads (checked
    against the conjugation)."""
    if any(k not in doc for k in ("weight", "pairs", "labels", "elements")):
        raise InputError("explicit structure needs weight, pairs, labels, elements")
    weight = document_int(doc, "weight", "explicit structure")
    n = document_int(doc, "pairs", "explicit structure", minimum=1)
    labels_in = _int_pairs(doc["labels"], "explicit structure 'labels'")
    raw = doc["elements"]
    if len(labels_in) != n:
        raise InputError("one label per pair required")
    if not isinstance(raw, list) or not raw:
        raise InputError("explicit structure 'elements' must be a non-empty list")
    elements = [parse_imn2_element(e, n) for e in raw]
    witness = dodson_core.missing_product(elements)
    if witness is not None:
        raise ElementsNotClosed("explicit structure 'elements' are not closed "
                                f"under composition: {witness}")
    labels = {}
    for i, (p, q) in enumerate(labels_in):
        labels[(i, 0)] = (p, q)
        labels[(i, 1)] = (q, p)
    h = hodge.from_group(weight, elements, labels)
    spreads_doc = doc.get("spreads")
    if spreads_doc is not None and not isinstance(spreads_doc, list):
        raise InputError("explicit structure 'spreads' must be a list")
    if spreads_doc:
        spreads = {g: h.spread(g) for g in h.group}
        for item in spreads_doc:
            if not isinstance(item, dict) or "element" not in item or "slots" not in item:
                raise InputError("each spread needs an 'element' and 'slots'")
            el = parse_imn2_element(item["element"], n)
            images = hodge.slot_images(el, h.slots)
            if images not in spreads:
                raise InputError("spread element is not in the group")
            slots = frozenset(_int_pairs(item["slots"], "spread 'slots'"))
            if not slots <= set(h.slots):
                raise InputError("spread 'slots' must be slots of the structure")
            if not slots:
                raise InputError("spread 'slots' must not be empty")
            if images == h.slots and slots != {h.top_slot()}:
                raise InputError("the identity's spread must be the top slot alone")
            spreads[images] = slots
        _check_spreads_conjugate(h, elements, spreads)
        h = hodge.CMHodgeStructure(weight, h.slots, h.labels, h.rho,
                                   list(h.group), top_spreads=spreads)
    return h


def _check_spreads_conjugate(h, elements, spreads):
    """The conjugate of a form of type (p, q) has type (q, p), so for every g
    the spread of rho g is rho applied to the spread of g."""
    rho = tuple(h.rho[s] for s in h.slots)
    name = {hodge.slot_images(e, h.slots): e for e in elements}
    for g, slots in spreads.items():
        rg = h.compose(rho, g)
        if spreads[rg] != {h.rho[s] for s in slots}:
            a, b = (f"(bits {list(name[x].bits)}, perm {list(name[x].perm)})"
                    for x in (g, rg))
            raise InputError(f"the spread of {b} must be the conjugate of "
                             f"the spread of {a}")
