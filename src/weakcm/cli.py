"""Command-line front end.

Subcommands map one-to-one onto the library operations; input documents are
JSON files (see README for the schemas), output is a deterministic report
envelope on stdout.  Exit codes: 0 ok (status ``ok``), 1 invalid input
(status ``invalid-input``, a named condition), 2 a math error (status
``math-error``) or an unexpected exception, which is a library bug (status
``internal-error``, condition ``internal``).

Each subcommand loads only the library modules it runs: the top level
imports nothing beyond ``argparse``, ``json`` and the error classes, every
handler imports its own modules when it is called, and the parser is built
once per process.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BadPartitionOption,
    IncompatibleIdentifications,
    InputError,
    InvalidPairCount,
    WeakCMError,
)


def _load(args) -> dict:
    if args.input in (None, "-"):
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read input file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc


def _load_object(args, what) -> dict:
    doc = _load(args)
    if not isinstance(doc, dict):
        raise InputError(f"{what} document must be an object")
    return doc


# --------------------------------------------------------------------------
# handlers


def _cmd_classify_field(args):
    from . import serialize

    field = serialize.parse_field(_load(args))
    return serialize.field_report(field)


def _cmd_galois(args):
    from . import cmfield, serialize

    field = serialize.parse_field(_load(args))
    gg = cmfield.galois_group(field)
    return {
        "case": field.case,
        "order": gg.order,
        "conjugation": gg.elements[gg.conj_index].label,
        "embeddings": list(gg.embedding_words),
        "embedding_pairing": list(gg.pairing),
        "elements": [
            {
                "label": g.label,
                "embedding_perm": list(perm),
                "action": g.action_table(),
            }
            for g, perm in zip(gg.elements, gg.action)
        ],
    }


def _cmd_reflex(args):
    from . import serialize

    field = serialize.parse_field(_load(args))
    return serialize.reflex_report(field)


def _cmd_validate(args):
    from . import serialize, tausplit

    pm = serialize.parse_period_matrix(_load(args))
    de = tausplit.validate_weak_cm(pm)
    return serialize.validation_report(pm, de)


def _cmd_split(args):
    from . import serialize, tausplit

    pm = serialize.parse_period_matrix(_load(args))
    cert, verified = tausplit.split(pm)
    return serialize.certificate_report(pm, cert, verified.ok)


def _check_n(args):
    if args.n < 1:
        raise InvalidPairCount(
            f"--n {args.n} is below 1: Im(N,2) needs at least one conjugate pair"
        )


def _bound(args) -> int:
    """``--bound``, or dodson's default when it is not given."""
    from . import dodson

    return dodson.ENUMERATION_BOUND_DEFAULT if args.bound is None else args.bound


def _cmd_dodson_enum(args):
    from . import dodson, serialize

    _check_n(args)
    subgroups = dodson.enumerate_admissible(args.n, bound=_bound(args))
    return {
        "n": args.n,
        "ambient_order": dodson.im_order(args.n),
        "count": len(subgroups),
        "subgroups": [serialize.subgroup_out(g) for g in subgroups],
    }


def _parse_partition(args):
    from . import dodson

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


def _cmd_dodson_classify(args):
    from . import dodson, serialize

    _check_n(args)
    name, partition = _parse_partition(args)
    classes = dodson.classify_conjugacy(args.n, partition, bound=_bound(args))
    return serialize.classification_report(args.n, name, classes)


def _cmd_dodson_reflex(args):
    from . import dodson, serialize

    doc = _load(args)
    ct = serialize.parse_cm_type(doc)
    try:
        n = int(doc.get("n", ct.N))
    except (TypeError, ValueError):
        raise InputError("cm-type document's 'n' must be an integer") from None
    report = dodson.reflex_from_dodson(ct, n)
    return serialize.reflex_dodson_report(report)


def _cmd_presets(args):
    from . import serialize
    from .presets import preset_reflex_reports

    reports = preset_reflex_reports()
    degrees = sorted({rep.degree for _, rep in reports})
    return {
        "count": len(reports),
        "presets": [
            {
                "name": pr.name,
                "description": pr.description,
                "reflex": serialize.reflex_dodson_report(rep),
            }
            for pr, rep in reports
        ],
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


def _character_map(doc_character, ts, ct, e):
    """Translate an element-keyed character into an identification list
    aligned with the canonical group order of the built structure."""
    from . import dodson, serialize

    if doc_character is None:
        return None
    if not isinstance(doc_character, list):
        raise InputError("k3t2 'character' must be a list")
    by_element = {}
    for i, item in enumerate(doc_character):
        try:
            value = int(item["value"])
            el = serialize.parse_imn2_element(item["element"], ct.N)
        except (KeyError, TypeError, ValueError):
            raise InputError(
                f"k3t2 'character' entry {i} must be an object with an "
                "'element' and an integer 'value'"
            ) from None
        by_element[el] = value
    ident2 = tuple(e.slots)
    flip_idx = next(i for i, g in enumerate(e.group) if g != ident2)
    ident_idx = e.group.index(ident2)
    mapping = []
    for images in ts.group:
        src = None
        for g in ct.group:
            if tuple(dodson.act_slot(g, s) for s in ts.slots) == images:
                src = g
                break
        if src is None or src not in by_element:
            raise IncompatibleIdentifications(
                "character must assign a value to every group element"
            )
        mapping.append(flip_idx if by_element[src] else ident_idx)
    return mapping


def _cmd_k3t2(args):
    from . import hodge, serialize

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


def _cmd_product(args):
    from . import hodge, serialize

    doc = _load_object(args, "product")
    h1 = serialize.parse_structure(doc.get("factor1", {}))
    h2 = serialize.parse_structure(doc.get("factor2", {}))
    identification = None
    if "identification" in doc:
        raise InputError(
            "explicit identifications are supported through the k3t2 "
            "subcommand's character input"
        )
    product = hodge.tensor_cm(h1, h2, identification)
    verdicts = hodge.factor_weak_cm(product)
    level = hodge.level_subspace(product)
    return {
        "weight": product.weight,
        "dim": product.dim,
        "level_dim": len(level.slots),
        "product_is_weak_cm": product.is_cm(),
        "factor_weak_cm": [bool(ok) for ok, _ in verdicts],
        "witnesses": [
            None if w is None else {"factor": i + 1}
            for i, (ok, w) in enumerate(verdicts)
        ],
        "level_hodge_numbers": {
            f"{p},{q}": c for (p, q), c in level.hodge_numbers().items()
        },
    }


def _cmd_weil_griffiths(args):
    from . import hodge, serialize

    doc = _load_object(args, "weil-griffiths")
    h = serialize.parse_structure(doc.get("structure", doc))
    pair = hodge.weil_griffiths(h)
    return {
        "weil_cm": pair.weil_cm,
        "griffiths_cm": pair.griffiths_cm,
        "common_algebra_ok": pair.common_algebra_ok,
        "weil_hodge_numbers": {
            f"{p},{q}": c for (p, q), c in pair.weil.hodge_numbers().items()
        },
        "griffiths_hodge_numbers": {
            f"{p},{q}": c
            for (p, q), c in pair.griffiths.hodge_numbers().items()
        },
    }


# --------------------------------------------------------------------------
# plumbing


def _emit_text(obj, indent=0, key=None, lines=None):
    lines = [] if lines is None else lines
    prefix = "  " * indent + (f"{key}: " if key is not None else "")
    if isinstance(obj, dict):
        if key is not None:
            lines.append("  " * indent + f"{key}:")
        for k, v in obj.items():
            _emit_text(v, indent + (key is not None), k, lines)
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        lines.append("  " * indent + f"{key}:")
        for i, v in enumerate(obj):
            _emit_text(v, indent + 1, f"[{i}]", lines)
    else:
        lines.append(prefix + json.dumps(obj))
    return lines


def _print_report(report, emit):
    if emit == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_emit_text(report)) + "\n")


_COMMANDS = {
    "classify-field": (_cmd_classify_field, "classify CM field parameters", True),
    "galois": (_cmd_galois, "Galois group and embedding action", True),
    "reflex": (_cmd_reflex, "reflex field for cases B/C", True),
    "validate": (_cmd_validate, "validate a weak-CM period matrix", True),
    "split": (_cmd_split, "split a period matrix into CM factors", True),
    "dodson-enum": (_cmd_dodson_enum, "enumerate admissible subgroups", False),
    "dodson-classify": (_cmd_dodson_classify, "classify subgroups modulo the slot stabilizer", False),
    "dodson-reflex": (_cmd_dodson_reflex, "level-n reflex data of a weight-1 type", True),
    "presets": (_cmd_presets, "the 13 weight-1 configurations and their reflexes", False),
    "k3t2": (_cmd_k3t2, "weak-CM analysis of a K3 x elliptic product", True),
    "product": (_cmd_product, "tensor product and factor verdicts", True),
    "weil-griffiths": (_cmd_weil_griffiths, "weight-1 repackagings of a weight-3 structure", True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakcm",
        description="exact CM-field classification, Dodson data, and "
                    "isogeny splitting",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_handler, help_text, takes_input) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if takes_input:
            p.add_argument("--input", "-i", default=None,
                           help="input JSON document ('-' or omit for stdin)")
        if name in ("dodson-enum", "dodson-classify"):
            p.add_argument("--n", type=int, required=True)
            # None stands for dodson.ENUMERATION_BOUND_DEFAULT (see _bound),
            # so that building the parser loads no library module
            p.add_argument("--bound", type=int, default=None)
        if name == "dodson-classify":
            p.add_argument("--partition", required=True,
                           help="abl | k3 | cy3 | inline JSON block list")
        p.add_argument("--emit", choices=("json", "text"), default="json")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        payload = _COMMANDS[args.subcommand][0](args)
        report = {"status": "ok", "payload": payload, "diagnostics": []}
        code = 0
    except InputError as exc:
        report = {
            "status": "invalid-input",
            "payload": None,
            "diagnostics": [{"condition": exc.condition, "message": str(exc)}],
        }
        code = 1
    except WeakCMError as exc:
        report = {
            "status": "math-error",
            "payload": None,
            "diagnostics": [{"condition": exc.condition, "message": str(exc)}],
        }
        code = 2
    except Exception as exc:  # a library bug: report it, do not crash
        import traceback  # imported here to keep it out of every start-up

        traceback.print_exc(file=sys.stderr)
        report = {
            "status": "internal-error",
            "payload": None,
            "diagnostics": [{"condition": "internal", "message": repr(exc)}],
        }
        code = 2
    _print_report(report, args.emit)
    return code


if __name__ == "__main__":
    sys.exit(main())
