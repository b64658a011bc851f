"""The CLI's Hodge subcommands: ``k3t2``, ``product`` and
``weil-griffiths``, imported only when one of them runs."""

from . import hodge, serialize
from .errors import IncompatibleIdentifications, InputError


def _load_object(args, what) -> dict:
    doc = serialize.load_document(args.input)
    if not isinstance(doc, dict):
        raise InputError(f"{what} document must be an object")
    return doc


def _character_map(doc_character, ts, ct, e):
    """Translate an element-keyed character into an identification list
    aligned with the canonical group order of the built structure.  Each
    element is keyed by its ``hodge.slot_images``, the form ``ts.group``
    holds."""
    if doc_character is None:
        return None
    if not isinstance(doc_character, list):
        raise InputError("k3t2 'character' must be a list")
    by_images = {}
    for i, item in enumerate(doc_character):
        try:
            value, element = item["value"], item["element"]
        except (KeyError, TypeError):
            value = None
        if not serialize.is_json_integer(value):
            raise InputError(
                f"k3t2 'character' entry {i} must be an object with an "
                "'element' and an integer 'value'"
            )
        if value not in (0, 1):
            raise InputError(
                f"k3t2 'character' entry {i} has value {value}; a character "
                "onto Z2 takes the values 0 and 1"
            )
        g = serialize.parse_imn2_element(element, ct.N)
        by_images[hodge.slot_images(g, ts.slots)] = value
    ident2 = tuple(e.slots)
    flip_idx = next(i for i, g in enumerate(e.group) if g != ident2)
    ident_idx = e.group.index(ident2)
    try:
        return [flip_idx if by_images[images] else ident_idx for images in ts.group]
    except KeyError:
        raise IncompatibleIdentifications(
            "character must assign a value to every group element"
        ) from None


def cmd_k3t2(args):
    doc = _load_object(args, "k3t2")
    ct = serialize.parse_cm_type(doc.get("transcendental", {}))
    ts = hodge.k3_structure(ct.group)
    e = hodge.elliptic_structure()
    situation = doc.get("situation", "disjoint")
    character = _character_map(doc.get("character"), ts, ct, e)
    rep = hodge.k3t2_analyze(ts, e, situation, character)
    out = serialize.product_report_out(rep)
    out["transcendental_dim"] = len(ts.slots)
    return out


def cmd_product(args):
    doc = _load_object(args, "product")
    h1 = serialize.parse_structure(doc.get("factor1", {}))
    h2 = serialize.parse_structure(doc.get("factor2", {}))
    if "identification" in doc:
        raise InputError(
            "explicit identifications are supported through the k3t2 "
            "subcommand's character input"
        )
    product = hodge.tensor_cm(h1, h2)
    verdicts = [h1.is_cm(), h2.is_cm()]
    level = hodge.level_subspace(product)
    return {
        "weight": product.weight,
        "dim": product.dim,
        "level_dim": len(level.slots),
        "product_is_weak_cm": product.is_cm(),
        "factor_weak_cm": verdicts,
        "witnesses": [None if ok else {"factor": i + 1}
                      for i, ok in enumerate(verdicts)],
        "level_hodge_numbers": serialize.hodge_numbers_out(level.hodge_numbers()),
    }


def cmd_weil_griffiths(args):
    doc = _load_object(args, "weil-griffiths")
    h = serialize.parse_structure(doc.get("structure", doc))
    pair = hodge.weil_griffiths(h)
    return {
        "weil_cm": pair.weil_cm,
        "griffiths_cm": pair.griffiths_cm,
        "common_algebra_ok": pair.common_algebra_ok,
        "weil_hodge_numbers": serialize.hodge_numbers_out(pair.weil.hodge_numbers()),
        "griffiths_hodge_numbers": serialize.hodge_numbers_out(
            pair.griffiths.hodge_numbers()
        ),
    }
