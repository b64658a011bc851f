"""Tracing wrappers installed from the benchmark around weakcm's layers.

Nothing inside ``src/`` changes: the tracer replaces public functions and
methods of the library's modules with timing wrappers at run time.  Spans
are aggregated in memory per (parent span, span) edge as call count,
inclusive time and self time; self time is a span's duration minus the time
covered by its traced children.  Counters sit at the same boundaries,
including ``<span>.raised`` for calls that ended in an exception.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# tower case -> benchmark case label
CASE_OF_TOWER = {"quadratic": "deg2", "biquadratic": "A",
                 "cyclic-quartic": "B", "nongalois-quartic-closure": "C"}


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []      # frames: [span name, time covered by children]
        self.edges = {}      # (parent, name) -> [calls, inclusive s, self s]
        self.counts = {}     # summed counters
        self.maxima = {}     # max-valued counters

    # -- recording

    def count(self, name, n=1):
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name, namer=None, after=None):
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = namer(args) if namer else name
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[label + ".raised"] = self.counts.get(label + ".raised", 0) + 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1][0] if stack else "-"
                if stack:
                    stack[-1][1] += dt
                e = edges.get((parent, label))
                if e is None:
                    e = edges[(parent, label)] = [0, 0.0, 0.0]
                e[0] += 1
                e[1] += dt
                e[2] += dt - frame[1]
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, name):
        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- merging and export

    def export(self) -> dict:
        return {"edges": [[p, n, *v] for (p, n), v in sorted(self.edges.items())],
                "counts": self.counts, "maxima": self.maxima}

    def merge(self, data: dict):
        for p, n, calls, incl, self_s in data["edges"]:
            e = self.edges.setdefault((p, n), [0, 0.0, 0.0])
            e[0] += calls
            e[1] += incl
            e[2] += self_s
        for k, v in data["counts"].items():
            self.counts[k] = self.counts.get(k, 0) + v
        for k, v in data["maxima"].items():
            self.maxima[k] = max(self.maxima.get(k, 0), v)

    # -- installation

    def install(self):
        """Replace the library's public entry points with traced wrappers,
        in every weakcm module namespace that holds a reference."""
        from weakcm import (cli, cmfield, dodson, hodge, linalg, presets,
                            serialize, tausplit, tower)

        modules = [m for k, m in sys.modules.items()
                   if k == "weakcm" or k.startswith("weakcm.")]

        def replace(owner, attr, wrapper):
            orig = getattr(owner, attr)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, wrapper)

        def fn(owner, attr, name, namer=None, after=None):
            replace(owner, attr, self.wrap(getattr(owner, attr), name, namer, after))

        # tower: arithmetic per tower case, construction, Galois closure
        def by_tower(op):
            return lambda a: f"tower.{op}.{CASE_OF_TOWER[a[0].tower.case]}"

        def coeff_bits(tr, args, result):
            if isinstance(result, tower.FieldElement):
                bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                           for c in result.coeffs)
                if bits > tr.maxima.get("tower.coeff_bits_max", 0):
                    tr.maxima["tower.coeff_bits_max"] = bits

        mul = self.wrap(tower.FieldElement.__mul__, None, by_tower("mul"), coeff_bits)
        tower.FieldElement.__mul__ = mul
        tower.FieldElement.__rmul__ = mul
        fn(tower.FieldElement, "inv", None, by_tower("inv"), coeff_bits)
        fn(tower.GaloisElement, "__call__", None, by_tower("galois"))
        fn(tower.TowerSpec, "galois_elements", "tower.galois_elements")
        for ctor in ("quadratic_tower", "biquadratic_tower",
                     "cyclic_quartic_tower", "quartic_closure_tower"):
            fn(tower, ctor, "tower.build")

        # linalg: per routine, split by coefficient field
        def by_field(op):
            def namer(a):
                M = a[0]
                x = M[0][0] if M and M[0] else None
                return f"linalg.{op}.{'Q' if isinstance(x, (int, Fraction)) else 'tower'}"
            return namer

        for op in ("row_rank", "mat_det", "mat_inverse", "solve_columns", "mat_mul"):
            fn(linalg, op, None, by_field(op))

        fn(cmfield, "classify", "cmfield.classify")
        fn(cmfield, "galois_group", "cmfield.galois_group")
        fn(cmfield, "reflex_bc", "cmfield.reflex_bc")

        fn(tausplit, "validate_weak_cm", "tausplit.validate")
        fn(tausplit, "split", "tausplit.split")
        fn(tausplit, "verify_certificate", "tausplit.verify")

        fn(dodson, "universe", None, lambda a: f"dodson.universe.N{a[0]}")
        fn(dodson, "enumerate_admissible", "dodson.enumerate")
        fn(dodson, "_enumerate_admissible_walk", "dodson.enumerate.walk",
           after=lambda tr, a, r: tr.count("dodson.enumerate.found", len(r)))
        fn(dodson._Universe, "closure_extend", "dodson.closure_extend")
        replace(dodson._Universe, "conjugate",
                self.counter(dodson._Universe.conjugate, "dodson.conjugations"))
        fn(dodson, "classify_conjugacy", "dodson.classify")
        fn(dodson, "reflex_from_dodson", "dodson.reflex")
        fn(dodson, "triple_from_group", "dodson.triple_from_group")
        fn(dodson, "group_from_triple", "dodson.group_from_triple")

        fn(presets, "preset_reflex_reports", "presets.reflex_reports")

        fn(hodge, "k3t2_analyze", "hodge.k3t2")
        fn(hodge, "tensor_cm", "hodge.tensor")
        fn(hodge, "level_subspace", "hodge.level")
        fn(hodge, "weil_griffiths", "hodge.weil_griffiths")

        for attr in dir(serialize):
            obj = getattr(serialize, attr)
            if not callable(obj) or getattr(obj, "__module__", "") != serialize.__name__:
                continue
            if attr.startswith("parse_"):
                fn(serialize, attr, "serialize.parse")
            elif attr.endswith(("_report", "_out")):
                fn(serialize, attr, "serialize.report")

        fn(cli, "_print_report", "cli.emit")
        fn(cli, "main", None, lambda a: f"cli.cmd.{a[0][0]}")
        return self
