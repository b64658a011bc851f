"""Document schemas: parsing CLI input files and building report payloads.

Everything is JSON with rationals as "num/den" strings (denominator omitted
when 1), field elements as arrays of such strings in tower-basis order, and
fixed key order per schema.  Payload builders insert keys in schema order,
so serialized output is byte-stable for identical inputs.

Each function imports the library modules it uses when it is called, so a
subcommand loads only the layers its documents need (a Dodson document never
loads the field towers).
"""

from __future__ import annotations

import json
import sys

from .errors import ElementsNotClosed, InputError, NotAnInteger, RationalTooLarge


def load_document(path):
    """The JSON document in the file ``path``, or on stdin when ``path`` is
    None or "-"; a named input error when it cannot be read or parsed."""
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read input file: {exc}") from exc
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc


def _json_int(literal: str) -> int:
    """A JSON integer literal, refused by name when it has more digits than
    Python converts by default (``cli.main`` lifts that limit for output)."""
    digits = len(literal.lstrip("-"))
    if digits > RationalTooLarge.DIGITS:
        raise RationalTooLarge(
            f"a JSON integer has {digits} digits; at most "
            f"{RationalTooLarge.DIGITS} are allowed"
        )
    return int(literal)


def rational_matrix_out(M):
    from .tower import format_rational

    return [[format_rational(x) for x in row] for row in M]


def element_matrix_out(M):
    return [[x.serialize() for x in row] for row in M]


def is_json_integer(value) -> bool:
    """True for a JSON integer: an int that is not a bool.  Floats and
    strings are refused, not truncated or converted (the CLI's JSON reader
    bounds the size of integer literals; a string would be unbounded)."""
    return type(value) is int


def document_int(doc, key, what, minimum=None) -> int:
    """``doc[key]`` when it is a JSON integer (not a bool, a float or a
    string) and at least ``minimum`` (when given); otherwise NotAnInteger,
    naming the document, the key and the value."""
    if key not in doc:
        raise NotAnInteger(f"{what} needs an integer {key!r}")
    value = doc[key]
    if not is_json_integer(value):
        raise NotAnInteger(
            f"{what}'s {key!r} must be an integer, got {json.dumps(value)[:40]}"
        )
    if minimum is not None and value < minimum:
        raise NotAnInteger(
            f"{what}'s {key!r} must be an integer >= {minimum}, got {value}"
        )
    return value


def _int_pairs(doc, what) -> list:
    """A JSON list of two-entry lists of JSON integers as integer pairs, or
    a named input error."""
    if isinstance(doc, list) and all(
        isinstance(pair, (list, tuple)) and len(pair) == 2
        and all(map(is_json_integer, pair))
        for pair in doc
    ):
        return [tuple(pair) for pair in doc]
    raise InputError(f"{what} must be a list of integer pairs")


def parse_rational_matrix(doc, n, what):
    from .tower import parse_rational

    if not isinstance(doc, list) or len(doc) != n:
        raise InputError(f"{what} must be an {n}x{n} matrix")
    out = []
    for i, row in enumerate(doc):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"{what} must be an {n}x{n} matrix")
        parsed = []
        for j, x in enumerate(row):
            try:
                parsed.append(parse_rational(x))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(
                    f"bad rational in {what} at row {i}, column {j}: {exc}"
                ) from exc
        out.append(parsed)
    return out


# --------------------------------------------------------------------------
# CM field documents


def parse_field(doc) -> cmfield.CMFieldData:
    from . import cmfield

    if not isinstance(doc, dict):
        raise InputError("field document must be an object")
    params = {k: doc[k] for k in ("p", "q", "d", "p1", "p2") if k in doc}
    requested = doc.get("case")
    try:
        if requested is not None:
            return cmfield.build_as_case(requested, params)
        return cmfield.classify(params)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational parameter: {exc}") from exc


def field_report(data: cmfield.CMFieldData) -> dict:
    from . import cmfield
    from .tower import format_rational, serialize_tower

    gg = cmfield.galois_group(data)
    report = {
        "case": data.case,
        "degree": data.degree,
        "closure_degree": data.closure_degree,
        "tower": serialize_tower(data.tower),
        "group_order": gg.order,
        "generators": {
            name: g.action_table()
            for name, g in sorted(data.tower.generators.items())
        },
        "embeddings": list(gg.embedding_words),
        "embedding_pairing": list(gg.pairing),
    }
    dp = cmfield.dprime_of(data)
    if dp is not None:
        report["dprime"] = format_rational(dp)
    return report


def reflex_report(data: cmfield.CMFieldData) -> dict:
    from . import cmfield
    from .tower import format_rational

    r = cmfield.reflex_bc(data)
    return {
        "case": data.case,
        "degree": r.degree,
        "basis": [b.serialize() for b in r.basis],
        "basis_display": [str(b) for b in r.basis],
        "equals_field": r.equals_field,
        "type_stabilizer": list(r.stabilizer_words),
        "cm_witness": {
            k: [format_rational(u), format_rational(v)]
            for k, (u, v) in sorted(r.cm_witness.items())
        },
    }


# --------------------------------------------------------------------------
# period-matrix documents


def parse_period_matrix(doc) -> tausplit.PeriodMatrix:
    from . import tausplit

    if not isinstance(doc, dict):
        raise InputError("period-matrix document must be an object")
    n = document_int(doc, "n", "period-matrix document", minimum=1)
    if "field" not in doc:
        raise InputError("document needs a 'field' parameter object")
    field = parse_field(doc["field"])
    mats = doc.get("B")
    want = field.degree
    if not isinstance(mats, list) or len(mats) != want:
        raise InputError(f"'B' must list {want} rational matrices for case {field.case}")
    Bs = [parse_rational_matrix(M, n, f"B{k + 1}") for k, M in enumerate(mats)]
    return tausplit.period_matrix(field, *Bs)


def validation_report(pm: tausplit.PeriodMatrix, de: tausplit.DeltaEps) -> dict:
    return {
        "case": pm.field.case,
        "n": pm.n,
        "rank_delta": de.rank_delta,
        "rank_eps": de.rank_eps,
        "rank_joint": de.rank_joint,
        "p_split": de.p_split,
        "field_dimension": de.subfield_dim,
        "delta": element_matrix_out(de.delta),
        "eps": element_matrix_out(de.eps),
    }


def certificate_report(cert: tausplit.SplitCertificate, verified: bool) -> dict:
    out = {
        "case": cert.case,
        "n": cert.n,
        "renaming": list(cert.renaming),
        "block_sizes": list(cert.block_sizes),
        "block_fields": [list(b) for b in cert.block_fields],
        "P": element_matrix_out(cert.P),
        "S": rational_matrix_out(cert.S),
    }
    if cert.c1 is not None:
        out["c1"] = element_matrix_out(cert.c1)
        out["c2"] = element_matrix_out(cert.c2)
    if cert.M is not None:
        out["M"] = element_matrix_out(cert.M)
    out["standard_form"] = element_matrix_out(cert.standard_form)
    out["factors"] = [
        {"kind": f.kind, "cm_field": f.cm_field, "multiplicity": f.multiplicity}
        for f in cert.factors
    ]
    out["level_report"] = level_report_out(cert.level)
    out["verified"] = verified
    return out


def hodge_numbers_out(numbers: dict) -> dict:
    """Hodge numbers {(p, q): count} as {"p,q": count}, in descending p."""
    return {f"{p},{q}": c for (p, q), c in sorted(numbers.items(), reverse=True)}


def level_report_out(level: tausplit.LevelNReport) -> dict:
    return {
        "hodge_numbers": hodge_numbers_out(level.hodge_numbers),
        "p_split": level.p_split,
    }


# --------------------------------------------------------------------------
# dodson documents


def imn2_element_out(g: dodson.ImN2Element) -> dict:
    return {"bits": list(g.bits), "perm": list(g.perm)}


def parse_imn2_element(doc, N) -> dodson.ImN2Element:
    from . import dodson

    try:
        bits, perm = doc["bits"], doc["perm"]
    except (KeyError, TypeError):
        bits = perm = None
    if not (isinstance(bits, list) and isinstance(perm, list)
            and all(map(is_json_integer, bits + perm))):
        raise InputError("group element needs 'bits' and 'perm' lists of integers")
    bits, perm = tuple(bits), tuple(perm)
    if len(bits) != N or sorted(perm) != list(range(N)) or any(b not in (0, 1) for b in bits):
        raise InputError("malformed Im(N,2) element")
    return dodson.ImN2Element(bits, perm)


def triple_out(t: dodson.DodsonTriple) -> dict:
    return {
        "g0": [list(p) for p in t.g0],
        "v": [list(b) for b in t.v],
        "s": [{"perm": list(p), "bits": list(b)} for p, b in t.s],
        "tag": t.tag(),
    }


def subgroup_out(elements) -> dict:
    from . import dodson

    triple = dodson.triple_from_group(elements)
    return {
        "order": len(elements),
        "triple": triple_out(triple),
        "elements": [imn2_element_out(g) for g in elements],
    }


def classification_report(N, partition_name, classes) -> dict:
    return {
        "n": N,
        "partition": partition_name,
        "class_count": len(classes),
        "classes": [
            {
                "tag": c.tag,
                "case": c.case_alias,
                "orbit_size": c.orbit_size,
                "representative": triple_out(c.triple),
            }
            for c in classes
        ],
    }


def parse_cm_type(doc) -> dodson.AbstractCMType:
    from . import dodson

    if not isinstance(doc, dict):
        raise InputError("cm-type document must be an object")
    if "preset" in doc:
        from .presets import preset_by_name

        try:
            return preset_by_name(doc["preset"]).cm_type
        except KeyError:
            raise InputError(f"unknown preset {doc['preset']!r}") from None
    if "field" in doc:
        from . import cmfield

        return cmfield.dodson_type(parse_field(doc["field"]))
    if "n" not in doc or "elements" not in doc:
        raise InputError(
            "cm-type document needs 'preset', 'field', or 'n' + 'elements'"
        )
    n = document_int(doc, "n", "cm-type document", minimum=1)
    raw = doc["elements"]
    if not isinstance(raw, list):
        raise InputError("cm-type 'elements' must be a list")
    elements = tuple(sorted(parse_imn2_element(e, n) for e in raw))
    phi = doc.get("phi")
    if phi is None:
        phi_t = dodson.standard_phi(n)
    else:
        phi_t = tuple(_int_pairs(phi, "cm-type 'phi'"))
    return dodson.AbstractCMType(elements, phi_t)


def reflex_dodson_report(report: dodson.ReflexReport) -> dict:
    return {
        "n": report.n,
        "reflex_degree": report.degree,
        "n_prime": report.n_prime,
        "hodge_numbers": hodge_numbers_out(report.hodge_numbers),
        "bound_2npow": 2 ** report.n,
        "bound_ok": report.bound_ok,
        "triple": triple_out(report.triple),
        "tag": report.tag,
        "class_tag": report.class_tag,
        "galois_group": report.group_name,
        "group": [imn2_element_out(g) for g in report.group],
    }


# --------------------------------------------------------------------------
# hodge documents


def parse_structure(doc) -> hodge.CMHodgeStructure:
    from . import hodge

    if not isinstance(doc, dict):
        raise InputError("structure document must be an object")
    kind = doc.get("type")
    if kind == "elliptic":
        return hodge.elliptic_structure()
    if kind in ("k3", "cy3", "weight1"):
        ct = parse_cm_type(doc.get("group", {}))
        builder = {
            "k3": hodge.k3_structure,
            "cy3": hodge.cy3_structure,
            "weight1": hodge.weight1_structure,
        }[kind]
        return builder(ct.group)
    if kind == "explicit":
        return _parse_explicit_structure(doc)
    raise InputError(
        "structure 'type' must be elliptic, k3, cy3, weight1 or explicit"
    )


def _parse_explicit_structure(doc):
    from . import dodson, hodge

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
    witness = dodson.missing_product(elements)
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
            spreads[images] = slots
        h = hodge.CMHodgeStructure(weight, h.slots, h.labels, h.rho,
                                   list(h.group), top_spreads=spreads)
    return h


def product_report_out(rep: hodge.ProductReport) -> dict:
    return {
        "level_dim": rep.level_dim,
        "endo_field_degree": rep.endo_field_degree,
        "situation": rep.situation,
        "strong_cm_verdict": rep.strong_cm_verdict,
        "factor_weak_cm": [bool(v[0]) for v in rep.factor_verdicts],
        "tau_orbit_size": rep.tau_orbit_size,
        "star1_count": rep.star1_count,
        "star2_count": rep.star2_count,
        "coset_types": hodge_numbers_out(rep.coset_types),
        "level_group": rep.level_group_name,
        "level_case": rep.level_case_alias,
    }
