"""Output gate: every op's stdout is checked against what its input's
construction, a golden file, or a published count says it must be.

``check(expect, code, out)`` returns None when the output is right and a
one-line reason otherwise.  No check calls into weakcm.
"""

from __future__ import annotations

import json

import gen

# admissible subgroups of Im(N,2) and the published class counts (3/3/8/6)
ADMISSIBLE = {2: 3, 3: 10}
CLASS_COUNT = {(2, "k3"): 3, (2, "abl"): 3, (3, "cy3"): 8, (3, "abl"): 6}


def check(expect: dict, code: int, out: bytes):
    kind = expect["kind"]
    if kind == "golden":
        if out != expect["golden"]:
            return "output differs from the golden file"
        return None
    try:
        doc = json.loads(out)
    except ValueError:
        return f"exit {code}: stdout is not JSON"
    if kind == "reject":
        diags = doc.get("diagnostics") or [{}]
        cond = diags[0].get("condition")
        if code != 1 or doc.get("status") != "invalid-input" or cond != expect["condition"]:
            return f"expected rejection {expect['condition']}, got exit {code} {cond}"
        return None
    if code != 0 or doc.get("status") != "ok":
        diags = doc.get("diagnostics") or [{}]
        return f"exit {code} status {doc.get('status')}: {diags[0].get('condition')}"
    return _CHECKS[kind](expect, doc["payload"])


def _split(e, p):
    if p.get("verified") is not True:
        return "certificate not verified"
    if p["standard_form"] != e["standard_form"]:
        return "standard form differs from the generator's target"
    if e["p_split"] is not None and p["level_report"]["p_split"] != e["p_split"]:
        return "p_split differs from the generator's"
    return None


def _classify_field(e, p):
    case = e["case"]
    got = (p["case"], p["degree"], p["closure_degree"], p["group_order"])
    want = (case, gen.DEGREE[case], gen.CLOSURE_DEGREE[case], gen.CLOSURE_DEGREE[case])
    return None if got == want else f"classify-field gave {got}, expected {want}"


def _galois(e, p):
    case = e["case"]
    if p["order"] != gen.CLOSURE_DEGREE[case] or len(p["embeddings"]) != gen.DEGREE[case]:
        return "galois group or embedding count is wrong"
    pair = p["embedding_pairing"]
    if any(pair[i] == i or pair[pair[i]] != i for i in range(len(pair))):
        return "embedding pairing is not a fixed-point-free involution"
    if len(p["elements"]) != p["order"]:
        return "element list does not match the order"
    return None


def _reflex(e, p):
    # the reflex field of a quartic CM type has degree 4; it is the field
    # itself exactly in the cyclic case
    if p["degree"] != 4 or p["equals_field"] != (e["case"] == "B"):
        return "reflex degree or equality with the field is wrong"
    return None


def _validate(e, p):
    got = (p["rank_delta"], p["rank_eps"], p["p_split"])
    return None if got == e["ranks"] else f"validate ranks {got}, expected {e['ranks']}"


def _enum(e, p):
    n = e["n"]
    if p["count"] != ADMISSIBLE[n] or len(p["subgroups"]) != ADMISSIBLE[n]:
        return f"{p['count']} admissible subgroups, expected {ADMISSIBLE[n]}"
    rho = gen.slot_perm((1,) * n, tuple(range(n)))
    for sg in p["subgroups"]:
        group = {gen.slot_perm(tuple(g["bits"]), tuple(g["perm"])) for g in sg["elements"]}
        if len(group) != sg["order"] or rho not in group:
            return "subgroup order is wrong or rho is missing"
        if any(tuple(a[b[x]] for x in range(2 * n)) not in group for a in group for b in group):
            return "listed subgroup is not closed"
        if {g[0] // 2 for g in group} != set(range(n)):
            return "listed subgroup is not transitive"
    return None


def _classify(e, p):
    n, part = e["n"], e["partition"]
    if sum(c["orbit_size"] for c in p["classes"]) != ADMISSIBLE[n]:
        return "class orbits do not partition the admissible subgroups"
    want = CLASS_COUNT.get((n, part))
    if want is not None and p["class_count"] != want:
        return f"{p['class_count']} classes, published {want}"
    return None


def _cm_reflex(e, p):
    if p["reflex_degree"] != e["degree"] or 2 * p["n_prime"] != e["degree"]:
        return f"reflex degree {p['reflex_degree']}, expected {e['degree']}"
    if p["hodge_numbers"] != e["hodge"]:
        return "level Hodge numbers differ from the orbit count"
    if p["bound_ok"] is not True or p["bound_2npow"] != 8:
        return "reflex bound 2n' <= 2^n not reported"
    return None


def _preset_row(name, rep):
    if rep["n_prime"] != gen.PRESET_NPRIME[name]:
        return f"preset {name}: n' = {rep['n_prime']}, published {gen.PRESET_NPRIME[name]}"
    tag = gen.PRESET_CLASS.get(name)
    if tag is not None and rep["class_tag"] != tag:
        return f"preset {name}: class {rep['class_tag']}, published {tag}"
    if rep["bound_ok"] is not True:
        return f"preset {name}: bound not ok"
    return None


def _preset(e, p):
    return _preset_row(e["name"], p)


def _presets(e, p):
    if p["count"] != 13 or len(p["presets"]) != 13:
        return "expected 13 presets"
    for row in p["presets"]:
        err = _preset_row(row["name"], row["reflex"])
        if err:
            return err
    notes = {row["name"]: row["reflex"].get("notes", []) for row in p["presets"]}
    if not any("flag" in n for n in notes.get("sum-distinct", [])):
        return "the sum-distinct reading flag is missing"
    return None


def _k3t2(e, p):
    if p["situation"] != e["situation"] or p["tau_orbit_size"] != 2:
        return "k3t2 situation or elliptic orbit is wrong"
    if p["level_dim"] != p["transcendental_dim"] or p["strong_cm_verdict"] is not True:
        return "contained k3t2: level dimension must be dim(T_S), strong CM"
    return None


def _product(e, p):
    if (p["weight"], p["dim"]) != (e["weight"], e["dim"]):
        return "product weight or dimension is wrong"
    if not (p["product_is_weak_cm"] and all(p["factor_weak_cm"])):
        return "a tensor product of CM structures must be weak CM"
    return None


def _weil_griffiths(e, p):
    if not (p["weil_cm"] and p["griffiths_cm"] and p["common_algebra_ok"]):
        return "CM weight-3 structure lost CM in a repackaging"
    return None


_CHECKS = {
    "split": _split, "classify-field": _classify_field, "galois": _galois,
    "reflex": _reflex, "validate": _validate, "enum": _enum,
    "classify": _classify, "cm-reflex": _cm_reflex, "preset": _preset,
    "presets": _presets, "k3t2": _k3t2, "product": _product,
    "weil-griffiths": _weil_griffiths,
}
