"""Alternating parent/change pairs of the benchmark, summarised in one file.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --label report_emitter \\
        --pairs split-corpus=10 cli-fields=5 dodson-cold=5 --seconds 30 --first-seed 3101

Each side is exported with ``git archive`` into a temporary directory, so it
runs exactly its committed files, ``perfbench/run.py`` included.  Pair i of a
workload runs ``--trace 0`` on both sides with seed ``first_seed + i``; the
parent runs first in even pairs and the change in odd ones, so a drift in
machine speed falls on both sides alike.  The exports are removed when the
tool ends, on an error or an interrupt too.

It writes ``BENCH_<label>.json``: for each workload and end-to-end metric of
``BENCHMARK.json``, each side's median and [q1, q3], the change's wins out of
the pairs (ties count for neither side), the relative change of the medians
and whether the change's median is better than the parent's by more than
the parent's own interquartile range; then the seeds, the order of each pair,
the output digests the runs wrote under ``.perfbench/results/``, the
machine, the Python version and both commits.  It exits 1 when a run failed
its output gate or the two sides' digests differ for a seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def summarize(runs, better):
    """Per metric, the summary of paired runs.

    ``runs`` maps each side to a list of ``{metric: value}`` dicts, pair i at
    index i on both sides; ``better`` maps each metric to ``"higher"`` or
    ``"lower"``.  Quartiles are inclusive, so one pair gives [x, x]."""
    out = {}
    for name, direction in better.items():
        values = {side: [run[name] for run in runs[side]] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        parent_med, change_med = (statistics.median(values[s]) for s in SIDES)
        quartiles = {s: _quartiles(values[s]) for s in SIDES}
        out[name] = {
            "better": direction,
            "parent_median": parent_med,
            "parent_q1_q3": quartiles["parent"],
            "change_median": change_med,
            "change_q1_q3": quartiles["change"],
            "relative_change": change_med / parent_med - 1 if parent_med else None,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "pairs": len(values["parent"]),
            "gain_exceeds_parent_iqr":
                sign * (change_med - parent_med) > quartiles["parent"][1] - quartiles["parent"][0],
        }
    return out


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(commit, into):
    """The committed files of ``commit``, written under the directory ``into``."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def _run(tree, workload, seed, seconds):
    """One untraced benchmark run in ``tree``: its end-to-end metrics, the
    gate's verdict and the output digest of its result file."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: perfbench failed in {tree}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((tree / ".perfbench" / "results" /
                         f"{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8"))
    return {"correct": line["correct"], "digest": result["output_digest"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()}}


def _workload_pairs(text):
    name, count = text.split("=")
    return name, int(count)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit-ish of the parent side")
    parser.add_argument("--change", required=True, help="commit-ish of the change side")
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--pairs", nargs="+", type=_workload_pairs, required=True,
                        metavar="WORKLOAD=PAIRS")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory of the output file (default: the repository root)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    commits = {"parent": _git("rev-parse", "--verify", args.parent + "^{commit}"),
               "change": _git("rev-parse", "--verify", args.change + "^{commit}")}
    report = {
        "label": args.label, "commits": commits, "seconds": args.seconds,
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": sys.version, "workloads": {},
    }
    ok = True
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: _export(commits[side], work / side) for side in SIDES}
        for workload, pairs in args.pairs:
            seeds = [args.first_seed + i for i in range(pairs)]
            runs = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    runs[side].append(_run(trees[side], workload, seed, args.seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{runs[side][-1]['metrics']['ops_per_s']:.4g} ops/s", file=sys.stderr)
            digests = {side: [r["digest"] for r in runs[side]] for side in SIDES}
            correct = all(r["correct"] for side in SIDES for r in runs[side])
            ok = ok and correct and digests["parent"] == digests["change"]
            report["workloads"][workload] = {
                "pairs": pairs, "seeds": seeds,
                "first": ["parent" if i % 2 == 0 else "change" for i in range(pairs)],
                "correct": correct, "digests": digests,
                "metrics": summarize({s: [r["metrics"] for r in runs[s]] for s in SIDES},
                                     better),
                "runs": {s: [r["metrics"] for r in runs[s]] for s in SIDES},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
