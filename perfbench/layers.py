"""Per-layer metrics of a traced run, derived from the tracer's edges.

Conventions: ``calls`` are per round (exact when rounds do the same work);
``ms`` is self time per op; ``us`` is self time per call.  A metric whose
layer the workload never reaches reads 0 and is listed as not applicable in
the result file.
"""

from __future__ import annotations

import statistics

CASES = ("deg2", "A", "B", "C")
LINALG = ("row_rank", "mat_det", "mat_inverse", "solve_columns", "mat_mul")
SPLIT_CLASSES = ("deg2n2", "deg2n3", "deg2n4", "An2", "An3", "Bn2", "Bn4", "Cn2", "Cn4")
SUBCOMMANDS = ("classify-field", "galois", "reflex", "validate", "split", "dodson-enum",
               "dodson-classify", "dodson-reflex", "presets", "k3t2", "product",
               "weil-griffiths")


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for op in ("mul", "inv", "galois"):
        out += [(f"tower.{op}.calls.{c}", "count") for c in CASES]
        out += [(f"tower.{op}.us.{c}", "us") for c in CASES]
    out += [("tower.coeff_bits_max", "bits"), ("tower.build_ms", "ms"),
            ("tower.galois_elements_ms", "ms")]
    out += [(f"cmfield.{f}.ms", "ms") for f in ("classify", "galois_group", "reflex_bc")]
    for op in LINALG:
        for field in ("Q", "tower"):
            out += [(f"linalg.{op}.calls.{field}", "count"), (f"linalg.{op}.ms.{field}", "ms")]
    out += [(f"tausplit.{f}.ms", "ms") for f in ("validate", "split", "verify")]
    out += [("tausplit.verify.calls_per_split", "count"), ("tausplit.selfcheck_share", "share")]
    out += [(f"tausplit.op_ms_p50.{c}", "ms") for c in SPLIT_CLASSES]
    out += [("dodson.universe.ms.N3", "ms"), ("dodson.universe.ms.N4", "ms"),
            ("dodson.enumerate.ms", "ms"), ("dodson.closure_extend.ms", "ms"),
            ("dodson.enumerate.yield", "share"), ("dodson.classify.ms", "ms"),
            ("dodson.conjugations", "count"), ("dodson.reflex.ms", "ms"),
            ("dodson.triple_from_group.ms", "ms"), ("dodson.group_from_triple.ms", "ms"),
            ("presets.reflex_reports.ms", "ms")]
    out += [(f"hodge.{f}.ms", "ms") for f in ("k3t2", "tensor", "level", "weil_griffiths")]
    out += [("serialize.parse.ms", "ms"), ("serialize.report.ms", "ms"),
            ("cli.emit.ms", "ms"), ("cli.output_bytes", "bytes"),
            ("cli.import_ms", "ms"), ("cli.interpreter_ms", "ms")]
    out += [(f"cli.cmd_ms.{s}", "ms") for s in SUBCOMMANDS]
    out += [("trace.overhead_share", "share"), ("trace.digest_match", "bool"),
            ("gen.round_ms_p50", "ms")]
    return out


def per_layer(tracer, *, workload_name, n_ops, rounds, stats, gen_times, round_times,
              import_s, interpreter_s, untraced_round_s, digest_match):
    """Returns ({name: {"value", "unit"}}, [names not applicable])."""
    calls, incl, self_s = {}, {}, {}
    for (parent, name), (c, i, s) in tracer.edges.items():
        calls[name] = calls.get(name, 0) + c
        incl[name] = incl.get(name, 0.0) + i
        self_s[name] = self_s.get(name, 0.0) + s

    values = {}

    def ms_per_op(span):
        if span in calls:
            return 1000.0 * self_s[span] / n_ops
        return None

    for op in ("mul", "inv", "galois"):
        for c in CASES:
            span = f"tower.{op}.{c}"
            if span in calls:
                values[f"tower.{op}.calls.{c}"] = calls[span] / rounds
                values[f"tower.{op}.us.{c}"] = 1e6 * self_s[span] / calls[span]
    if "tower.coeff_bits_max" in tracer.maxima:
        values["tower.coeff_bits_max"] = tracer.maxima["tower.coeff_bits_max"]
    values["tower.build_ms"] = ms_per_op("tower.build")
    values["tower.galois_elements_ms"] = ms_per_op("tower.galois_elements")
    for f in ("classify", "galois_group", "reflex_bc"):
        values[f"cmfield.{f}.ms"] = ms_per_op(f"cmfield.{f}")
    for op in LINALG:
        for field in ("Q", "tower"):
            span = f"linalg.{op}.{field}"
            if span in calls:
                values[f"linalg.{op}.calls.{field}"] = calls[span] / rounds
                values[f"linalg.{op}.ms.{field}"] = ms_per_op(span)
    for f in ("validate", "split", "verify"):
        values[f"tausplit.{f}.ms"] = ms_per_op(f"tausplit.{f}")
    splits = calls.get("tausplit.split", 0) - tracer.counts.get("tausplit.split.raised", 0)
    if splits:
        # verifications per split that returned a certificate
        values["tausplit.verify.calls_per_split"] = calls.get("tausplit.verify", 0) / splits
        inner = tracer.edges.get(("tausplit.split", "tausplit.verify"))
        values["tausplit.selfcheck_share"] = (inner[1] if inner else 0.0) / incl["tausplit.split"]
    if workload_name == "split-corpus":
        for c in SPLIT_CLASSES:
            values[f"tausplit.op_ms_p50.{c}"] = 1000.0 * statistics.median(stats.class_times[c])
    for n in (3, 4):
        values[f"dodson.universe.ms.N{n}"] = ms_per_op(f"dodson.universe.N{n}")
    walk = ms_per_op("dodson.enumerate.walk")
    top = ms_per_op("dodson.enumerate")
    if walk is not None or top is not None:
        values["dodson.enumerate.ms"] = (walk or 0.0) + (top or 0.0)
    values["dodson.closure_extend.ms"] = ms_per_op("dodson.closure_extend")
    extends = tracer.edges.get(("dodson.enumerate.walk", "dodson.closure_extend"))
    if extends:
        values["dodson.enumerate.yield"] = tracer.counts.get("dodson.enumerate.found", 0) / extends[0]
    values["dodson.classify.ms"] = ms_per_op("dodson.classify")
    if "dodson.conjugations" in tracer.counts:
        values["dodson.conjugations"] = tracer.counts["dodson.conjugations"] / rounds
    for f in ("reflex", "triple_from_group", "group_from_triple"):
        values[f"dodson.{f}.ms"] = ms_per_op(f"dodson.{f}")
    values["presets.reflex_reports.ms"] = ms_per_op("presets.reflex_reports")
    for f in ("k3t2", "tensor", "level", "weil_griffiths"):
        values[f"hodge.{f}.ms"] = ms_per_op(f"hodge.{f}")
    values["serialize.parse.ms"] = ms_per_op("serialize.parse")
    values["serialize.report.ms"] = ms_per_op("serialize.report")
    values["cli.emit.ms"] = ms_per_op("cli.emit")
    values["cli.output_bytes"] = stats.out_bytes / stats.attempted
    if import_s:
        values["cli.import_ms"] = 1000.0 * statistics.median(import_s)
    values["cli.interpreter_ms"] = 1000.0 * interpreter_s
    for sub in SUBCOMMANDS:
        span = f"cli.cmd.{sub}"
        if span in calls:
            values[f"cli.cmd_ms.{sub}"] = 1000.0 * incl[span] / calls[span]
    traced = sum(round_times[:len(untraced_round_s)])
    values["trace.overhead_share"] = traced / sum(untraced_round_s) - 1.0
    values["trace.digest_match"] = 1 if digest_match else 0
    values["gen.round_ms_p50"] = 1000.0 * statistics.median(gen_times)

    metrics, na = {}, []
    for name, unit in metric_units():
        v = values.get(name)
        if v is None:
            na.append(name)
            v = 0
        metrics[name] = {"value": v, "unit": unit}
    return metrics, na
