"""Document schemas: parsing CLI input files and building report payloads.

Everything is JSON with rationals as "num/den" strings (denominator omitted
when 1), field elements as arrays of such strings in tower-basis order, and
fixed key order per schema.  Payload builders insert keys in schema order,
so serialized output is byte-stable for identical inputs.  A period
matrix's B entries are read straight to integer pairs by
``tower.read_rational``, and a certificate's S, integer rows over one
denominator, is written out with one gcd per entry (``integer_rows_out``);
neither goes through ``Fraction``.

Each function imports the library modules it uses when it is called, so a
subcommand loads only the layers its documents need (a Dodson document never
loads the field towers).  Explicit Hodge structures are parsed by
``serialize_explicit``, which only that kind of structure document loads.
"""

from __future__ import annotations

import json
import math
import re
import sys

from .errors import DocumentTooDeep, InputError, NotAnInteger, RationalTooLarge


def load_document(path):
    """The JSON document in the file ``path``, or on stdin when ``path`` is
    None or "-"; a named input error when it cannot be read or parsed, or
    nests too deep (``check_depth``)."""
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read input file: {exc}") from exc
    check_depth(text, "the input document")
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc


# a JSON string (skipped whole, so brackets inside it do not count) or a
# bracket; compiled on first use, so a process that never walks never pays.
# The closing quote is optional: an unterminated string then runs to the end
# of the text in one match instead of one failed scan per later quote, which
# made the walk quadratic, and json.loads still reports the bad JSON
_JSON_BRACKET = r'(?s)"[^"\\]*(?:\\.[^"\\]*)*"?|[][{}]'


def check_depth(text: str, what: str):
    """Refuse the JSON ``text`` by name when its lists and objects nest
    more than ``DocumentTooDeep.DEPTH`` deep, before ``json.loads`` could
    run out of stack.  The bracket count bounds the depth, so only a text
    with more brackets than the cap is walked."""
    cap = DocumentTooDeep.DEPTH
    if text.count("[") + text.count("{") <= cap:
        return
    depth = 0
    for token in re.finditer(_JSON_BRACKET, text):
        token = token.group()
        if token == "[" or token == "{":
            depth += 1
            if depth > cap:
                raise DocumentTooDeep(
                    f"{what} nests lists and objects more than {cap} levels deep"
                )
        elif token == "]" or token == "}":
            depth -= 1


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


def integer_rows_out(rows, den):
    """Integer rows over ``den > 0`` as "num/den" strings, each entry reduced
    by one gcd: the strings ``tower.format_rational`` gives its value."""
    out = []
    for row in rows:
        line = []
        for x in row:
            g = math.gcd(x, den)
            line.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        out.append(line)
    return out


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
    """The period matrix of a document, each B entry read straight to an
    integer pair by ``tower.read_rational``; every shape and entry is
    checked in order, B1 first, and refused by name."""
    from . import tausplit
    from .tower import read_rational

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
    pairs = []
    for k, M in enumerate(mats):
        what = f"B{k + 1}"
        if not isinstance(M, list) or len(M) != n:
            raise InputError(f"{what} must be an {n}x{n} matrix")
        rows = []
        for i, row in enumerate(M):
            if not isinstance(row, list) or len(row) != n:
                raise InputError(f"{what} must be an {n}x{n} matrix")
            read = []
            for j, x in enumerate(row):
                try:
                    read.append(read_rational(x))
                except (ValueError, ZeroDivisionError) as exc:
                    raise InputError(
                        f"bad rational in {what} at row {i}, column {j}: {exc}"
                    ) from exc
            rows.append(tuple(read))
        pairs.append(tuple(rows))
    return tausplit.PeriodMatrix(field, n, tuple(pairs))


def validation_report(pm: tausplit.PeriodMatrix, de: tausplit.DeltaEps) -> dict:
    # a validated matrix has joint rank n and entries generating all of K
    return {
        "case": pm.field.case,
        "n": pm.n,
        "rank_delta": de.rank_delta,
        "rank_eps": de.rank_eps,
        "rank_joint": pm.n,
        "p_split": de.p_split,
        "field_dimension": pm.field.degree,
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
        "S": integer_rows_out(*cert.S),
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


def imn2_element_out(g: dodson_core.ImN2Element) -> dict:
    return {"bits": list(g.bits), "perm": list(g.perm)}


def parse_imn2_element(doc, N) -> dodson_core.ImN2Element:
    from . import dodson_core

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
    return dodson_core.ImN2Element(bits, perm)


def triple_out(t: dodson_core.DodsonTriple) -> dict:
    return {
        "g0": [list(p) for p in t.g0],
        "v": [list(b) for b in t.v],
        "s": [{"perm": list(p), "bits": list(b)} for p, b in t.s],
        "tag": t.tag(),
    }


def subgroup_out(elements) -> dict:
    from . import dodson_core

    triple = dodson_core.triple_from_group(elements)
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


def parse_cm_type(doc) -> dodson_core.AbstractCMType:
    from . import dodson_core

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
        phi_t = dodson_core.standard_phi(n)
    else:
        phi_t = tuple(_int_pairs(phi, "cm-type 'phi'"))
    return dodson_core.AbstractCMType(elements, phi_t)


def reflex_dodson_report(report: dodson_reflex.ReflexReport) -> dict:
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
        from .serialize_explicit import parse_explicit_structure

        return parse_explicit_structure(doc)
    raise InputError(
        "structure 'type' must be elliptic, k3, cy3, weight1 or explicit"
    )


def product_report_out(rep: hodge.ProductReport) -> dict:
    # the level part's endomorphism field has degree its dimension, and
    # k3t2_analyze refuses an impure factor before it forms the product
    return {
        "level_dim": rep.level_dim,
        "endo_field_degree": rep.level_dim,
        "situation": rep.situation,
        "strong_cm_verdict": rep.strong_cm_verdict,
        "factor_weak_cm": [True, True],
        "tau_orbit_size": rep.tau_orbit_size,
        "star1_count": rep.star1_count,
        "star2_count": rep.star2_count,
        "coset_types": hodge_numbers_out(rep.coset_types),
        "level_group": rep.level_group_name,
        "level_case": rep.level_case_alias,
    }
