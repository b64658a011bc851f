"""weakcm benchmark: one closed-loop client, one op in flight.

Usage (from the repository root):

    python3 perfbench/run.py --workload split-corpus --seed 1 --seconds 30 --trace 0

Each workload runs in rounds; a round is one pass over every input class of
the workload, drawn fresh from a generator seeded by (seed, workload, round).
The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Every run also writes a result file
under ``.perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import checks
import gen
import layers
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPS = 3      # set-up is repeated and its median reported
DIGEST_ROUNDS = 2   # rounds whose outputs make the run's output digest
MIN_ROUNDS = 3      # a run always completes at least this many rounds
OP_TIMEOUT_S = 60


class Op:
    __slots__ = ("cls", "argv", "expect")

    def __init__(self, cls, argv, expect):
        self.cls, self.argv, self.expect = cls, argv, expect


# --------------------------------------------------------------------------
# workloads: each returns the ops of one round


class Round:
    """Writes a round's input documents into the work directory; a round's
    ops run before the next round is drawn, so files are reused."""

    def __init__(self, workload):
        self.dir = WORK / "inputs" / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ops = []
        self.k = 0

    def doc(self, doc) -> str:
        path = self.dir / f"in-{self.k}.json"
        self.k += 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def add(self, cls, argv, expect):
        self.ops.append(Op(cls, argv, expect))


def _data(name):
    return str(ROOT / "tests" / "data" / name)


def _golden(name):
    return {"kind": "golden", "golden": (ROOT / "tests" / "data" / name).read_bytes()}


class SplitCorpus:
    """In-process ``split`` on fresh seeded period matrices of every class."""

    in_process = True

    def __init__(self):
        self.maker = gen.SplitMaker()

    def draw(self, rng, rnd):
        for case, n in gen.SPLIT_CLASSES:
            doc, expect = self.maker.draw(rng, case, n)
            rnd.add(f"{case}n{n}", ["split", "--input", rnd.doc(doc)], expect)
        for cls, maker in (("reject-odd", gen.reject_odd_quartic),
                           ("reject-subfield", gen.reject_subfield)):
            doc, expect = maker(rng)
            rnd.add(cls, ["split", "--input", rnd.doc(doc)], expect)


class CliFields:
    """Fresh ``python -m weakcm.cli`` processes on seeded field parameters
    of all four kinds, plus the small tori of tests/data."""

    in_process = False

    def draw(self, rng, rnd):
        for kind in ("deg2", "A", "B", "C"):
            path = rnd.doc(gen.FIELD_GENERATORS[kind](rng))
            rnd.add(f"classify-field.{kind}", ["classify-field", "--input", path],
                    {"kind": "classify-field", "case": kind})
            rnd.add(f"galois.{kind}", ["galois", "--input", path],
                    {"kind": "galois", "case": kind})
            if kind in ("B", "C"):
                expect = {"kind": "reflex", "case": kind}
            else:
                expect = {"kind": "reject", "condition": "cmfield:wrong-case"}
            rnd.add(f"reflex.{kind}", ["reflex", "--input", path], expect)
        rnd.add("classify-field.golden", ["classify-field", "--input", _data("field_b.json")],
                _golden("field_b.golden.json"))
        rnd.add("validate.torus_a", ["validate", "--input", _data("torus_a_diag.json")],
                {"kind": "validate", "ranks": (1, 1, 1)})
        rnd.add("split.torus_a", ["split", "--input", _data("torus_a_diag.json")],
                _golden("torus_a_diag.golden.json"))
        rnd.add("split.torus_b_n3", ["split", "--input", _data("torus_b_n3.json")],
                _golden("torus_b_n3.golden.json"))


class DodsonCold:
    """Fresh processes on the permutation-group layers: enumeration,
    classification, reflex data, presets and the Hodge combinatorics."""

    in_process = False

    def draw(self, rng, rnd):
        rnd.add("dodson-enum", ["dodson-enum", "--n", "3"], {"kind": "enum", "n": 3})
        for n, part in ((2, "k3"), (2, "abl"), (3, "abl"), (3, "k3")):
            rnd.add(f"dodson-classify.{part}{n}",
                    ["dodson-classify", "--n", str(n), "--partition", part],
                    {"kind": "classify", "n": n, "partition": part})
        rnd.add("dodson-classify.cy33", ["dodson-classify", "--n", "3", "--partition", "cy3"],
                _golden("classify_cy3.golden.json"))
        for cls, maker in (("dodson-reflex.cmtype", gen.cm_type_n3),
                           ("dodson-reflex.preset", gen.preset_nprime4)):
            doc, expect = maker(rng)
            rnd.add(cls, ["dodson-reflex", "--input", rnd.doc(doc)], expect)
        rnd.add("presets", ["presets"], {"kind": "presets"})
        rnd.add("k3t2.disjoint", ["k3t2", "--input", _data("k3t2_disjoint.json")],
                _golden("k3t2_disjoint.golden.json"))
        for cls, sub, maker in (("k3t2.contained", "k3t2", gen.k3t2_contained),
                                ("product", "product", gen.product_doc),
                                ("weil-griffiths", "weil-griffiths", gen.weil_griffiths_doc)):
            doc, expect = maker(rng)
            rnd.add(cls, [sub, "--input", rnd.doc(doc)], expect)


WORKLOADS = {"split-corpus": SplitCorpus, "cli-fields": CliFields,
             "dodson-cold": DodsonCold}


# --------------------------------------------------------------------------
# running ops


class Runner:
    def __init__(self, in_process):
        self.in_process = in_process
        self.tracer = None
        self.import_s = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        if in_process:
            import weakcm.cli

            self.cli = weakcm.cli

    def run(self, argv):
        """One op; returns (exit code, stdout bytes, wall seconds)."""
        if self.in_process:
            buf = io.StringIO()
            if self.tracer:
                self.tracer.active = True
            try:
                with redirect_stdout(buf):
                    t0 = time.perf_counter()
                    code = self.cli.main(argv)
                    dt = time.perf_counter() - t0
            finally:
                if self.tracer:
                    self.tracer.active = False
            return code, buf.getvalue().encode("utf-8"), dt
        if self.tracer:
            trace_out = WORK / "child-trace.json"
            cmd = [sys.executable, str(HERE / "tracecli.py"), str(trace_out), *argv]
        else:
            cmd = [sys.executable, "-m", "weakcm.cli", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=self.env, cwd=ROOT, timeout=OP_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if self.tracer:
            data = json.loads(trace_out.read_text(encoding="utf-8"))
            trace_out.unlink()
            self.import_s.append(data.pop("import_s"))
            self.tracer.merge(data)
        return proc.returncode, proc.stdout, dt


# --------------------------------------------------------------------------
# machine speed
#
# The shared 2-core machine this benchmark was built on changes speed by
# +-20% over tens of seconds (other tenants), for weakcm and for any other
# CPU-bound Python alike.  After every op the benchmark therefore times a
# fixed pure-Python reference loop that does not touch weakcm, and scales
# the round's op time by REF_NOMINAL_S / (mean reference time in the round).
# Reported times are seconds at the reference speed; raw wall times are in
# the result file.

REF_NOMINAL_S = 0.008  # about the loop's median time on that machine


def reference():
    acc = Fraction(0)
    for i in range(1, 700):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    table = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return acc, len(table)


def timed_reference():
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Stats:
    """Attempted/failed ops, per-class op times, output digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.class_times = {}
        self.out_bytes = 0

    def run_round(self, runner, ops, digest=None):
        """Runs the ops, each followed by the reference loop; returns
        (wall seconds, speed factor REF_NOMINAL_S / mean reference time)."""
        total = ref = 0.0
        for op in ops:
            self.attempted += 1
            try:
                code, out, dt = runner.run(op.argv)
                err = checks.check(op.expect, code, out)
            except subprocess.TimeoutExpired:
                code, out, dt, err = -1, b"", float(OP_TIMEOUT_S), "timed out"
            ref += timed_reference()
            total += dt
            self.out_bytes += len(out)
            self.class_times.setdefault(op.cls, []).append(dt)
            if digest is not None:
                digest.update(f"{op.cls}\0{code}\0".encode() + out + b"\0")
            if err is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{op.cls}: {err}")
        return total, len(ops) * REF_NOMINAL_S / ref


def draw_round(workload, name, seed, tag):
    rng = random.Random(f"{seed}:{name}:{tag}")
    rnd = Round(name)
    workload.draw(rng, rnd)
    return rnd.ops


def tail(values):
    """Highest percentile with at least ten rounds beyond it, but never
    below the median: with fewer than 22 rounds it is the upper median."""
    xs = sorted(values)
    n = len(xs)
    rank = max(n - 10, n // 2 + 1)  # 1-based
    return xs[rank - 1], 100.0 * rank / n


# --------------------------------------------------------------------------
# the run


def measure(args):
    name = args.workload
    workload = WORKLOADS[name]()
    runner = Runner(workload.in_process)
    stats = Stats()

    # set-up: draw one round's inputs and warm up, several times; in-process
    # the warm-up is a whole round (module caches fill as a library user's
    # do), in fresh processes one child (interpreter, bytecode cache)
    setup_times = []
    for k in range(SETUP_REPS):
        t0 = time.perf_counter()
        ops = draw_round(workload, name, args.seed, f"setup{k}")
        gen_s = time.perf_counter() - t0
        op_s, speed = stats.run_round(runner, ops if workload.in_process else ops[:1])
        setup_times.append((gen_s + op_s) * speed)

    trace_info = {}
    if args.trace:
        # the first DIGEST_ROUNDS rounds untraced, for the digest comparison
        # and the tracing overhead
        untraced = hashlib.sha256()
        u_times = [stats.run_round(runner, draw_round(workload, name, args.seed, r), untraced)
                   for r in range(DIGEST_ROUNDS)]
        if workload.in_process:
            runner.tracer = spans.Tracer().install()
        else:
            runner.tracer = spans.Tracer()
        trace_info["untraced_digest"] = untraced.hexdigest()
        trace_info["untraced_round_s"] = [w * f for w, f in u_times]

    digest = hashlib.sha256()
    walls, speeds, gen_times = [], [], []
    t_start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - t_start < args.seconds:
        t0 = time.perf_counter()
        ops = draw_round(workload, name, args.seed, r)
        gen_times.append(time.perf_counter() - t0)
        wall, speed = stats.run_round(runner, ops, digest if r < DIGEST_ROUNDS else None)
        walls.append(wall)
        speeds.append(speed)
        r += 1
        if r == DIGEST_ROUNDS:
            run_digest = digest.hexdigest()
    timed_wall = time.perf_counter() - t_start
    round_times = [w * f for w, f in zip(walls, speeds)]

    timed_ops = len(ops) * len(round_times)
    tail_s, tail_pct = tail(round_times)
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    e2e = {
        "ops_per_s": (timed_ops / sum(round_times), "1/s"),
        "round_s_p50": (statistics.median(round_times), "s"),
        "round_s_tail": (tail_s, "s"),
        "ok_share": (1.0 - stats.failed / stats.attempted, "share"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    result = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": sys.version,
        "commit": _commit(), "source_sha256": _source_digest(),
        "attempted": stats.attempted, "failed": stats.failed,
        "failed_share": stats.failed / stats.attempted,
        "failures": stats.failures,
        "rounds": len(round_times), "ops_per_round": len(ops),
        "timed_wall_s": timed_wall,
        "round_s": round_times, "round_wall_s": walls, "speed": speeds,
        "gen_s": gen_times, "setup_rep_s": setup_times,
        "ops_per_s_wall": timed_ops / sum(walls),
        "round_s_tail_percentile": tail_pct, "round_s_tail_samples": len(round_times),
        "op_wall_s_p50": {c: statistics.median(v) for c, v in sorted(stats.class_times.items())},
        "output_digest": run_digest, "digest_rounds": DIGEST_ROUNDS,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
    }
    correct = stats.failed == 0
    metrics = result["end_to_end"]
    if args.trace:
        runner.tracer.active = False
        trace_info["digest_match"] = trace_info["untraced_digest"] == run_digest
        correct = correct and trace_info["digest_match"]
        per_layer, na = layers.per_layer(
            runner.tracer, workload_name=name, n_ops=timed_ops, rounds=len(round_times),
            stats=stats, gen_times=gen_times, round_times=round_times,
            import_s=runner.import_s, interpreter_s=_interpreter_floor(runner.env),
            untraced_round_s=trace_info["untraced_round_s"],
            digest_match=trace_info["digest_match"])
        result["trace_info"] = trace_info
        result["per_layer"] = per_layer
        result["not_applicable"] = na
        result["spans"] = runner.tracer.export()
        metrics = per_layer
    _write_result(result)
    return {"correct": correct, "attempted": stats.attempted, "failed": stats.failed,
            "metrics": metrics}


def _interpreter_floor(env, reps=5):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _write_result(result):
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, default=repr) + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weakcm" / "cli.py").is_file():
        print(f"perfbench: no weakcm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for the client, its children and the reference loop, so the
    # speed factor is measured where the ops run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    line = measure(args)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
