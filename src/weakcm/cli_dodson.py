"""The CLI's Dodson subcommands: ``dodson-enum``, ``dodson-classify``,
``dodson-reflex`` and ``presets``, imported only when one of them runs."""

import json

from . import dodson, serialize
from .errors import BadPartitionOption, InvalidPairCount


def _check_n(args):
    if args.n < 1:
        raise InvalidPairCount(
            f"--n {args.n} is below 1: Im(N,2) needs at least one conjugate pair"
        )


def _bound(args) -> int:
    """``--bound``, or dodson's default when it is not given."""
    return dodson.ENUMERATION_BOUND_DEFAULT if args.bound is None else args.bound


def cmd_dodson_enum(args):
    _check_n(args)
    subgroups = dodson.enumerate_admissible(args.n, bound=_bound(args))
    return {
        "n": args.n,
        "ambient_order": dodson.im_order(args.n),
        "count": len(subgroups),
        "subgroups": [serialize.subgroup_out(g) for g in subgroups],
    }


def _parse_partition(args):
    name = args.partition
    if name in ("abl", "k3", "cy3"):
        return name, dodson.partition_preset(name, args.n)
    try:
        doc = json.loads(name)
    except json.JSONDecodeError:
        raise BadPartitionOption(
            "--partition must be abl, k3, cy3 or an inline JSON block list"
        ) from None
    if not isinstance(doc, list) or not doc:
        raise BadPartitionOption(
            f"--partition block list must be a non-empty JSON list, got {name}"
        )
    labelled = []
    for i, block in enumerate(doc):
        if not isinstance(block, dict) or "label" not in block or "slots" not in block:
            raise BadPartitionOption(
                f"--partition block {i} must be an object with 'label' and 'slots'"
            )
        label = _integer_pair(block["label"], f"--partition block {i} label")
        slots = block["slots"]
        if not isinstance(slots, list):
            raise BadPartitionOption(f"--partition block {i} slots must be a list")
        for slot in slots:
            labelled.append((_integer_pair(slot, f"--partition block {i} slot"), label))
    weight = sum(labelled[0][1]) if labelled else 0
    return "custom", dodson.partition_from_labels(args.n, weight, labelled)


def _integer_pair(value, what) -> tuple:
    """Two JSON integers (not bools or floats), or a named input error."""
    if (not isinstance(value, list) or len(value) != 2
            or any(type(x) is not int for x in value)):
        raise BadPartitionOption(
            f"{what} must be a pair of integers, got {json.dumps(value)}"
        )
    return tuple(value)


def cmd_dodson_classify(args):
    _check_n(args)
    name, partition = _parse_partition(args)
    classes = dodson.classify_conjugacy(args.n, partition, bound=_bound(args))
    return serialize.classification_report(args.n, name, classes)


def cmd_dodson_reflex(args):
    doc = serialize.load_document(args.input)
    ct = serialize.parse_cm_type(doc)
    n = serialize.document_int(doc, "n", "cm-type document") if "n" in doc else ct.N
    report = dodson.reflex_from_dodson(ct, n)
    return serialize.reflex_dodson_report(report)


def cmd_presets(args):
    from .presets import preset_reflex_reports

    reports = preset_reflex_reports()
    degrees = sorted({rep.degree for _, rep in reports})
    rows = []
    for pr, rep in reports:
        reflex = serialize.reflex_dodson_report(rep)
        if pr.note:
            reflex["notes"] = [pr.note]
        rows.append({"name": pr.name, "description": pr.description, "reflex": reflex})
    return {
        "count": len(reports),
        "presets": rows,
        "informational": {
            "reflex_degrees_realized": degrees,
            "note": (
                "weight-1 data of rank 6 realize reflex degrees "
                f"{degrees} only; degrees 10/12/14 are not produced by any "
                "of these presets, and whether abstract level-3 structures "
                "attain them is not settled by this enumeration."
            ),
        },
    }
