"""Run the benchmark in alternating parent/change pairs and write BENCH_<n>.json.

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once on a parent commit and once on the working tree, with the
same seed. Even-numbered pairs run the parent first and odd-numbered pairs
the change first, so a drift in the host's speed falls on both sides alike.
The parent's committed files are exported with `git archive` into a
temporary directory, which is removed afterwards; the repository gets no
worktree entry.

    python3 scripts/bench_pairs.py --parent HEAD --pairs 10 --seed 1301 \\
        --out BENCH_13.json --description "what the change is"

The output holds, per workload and end-to-end metric, every run, each
side's median and quartiles, the pairs the change won, and how much worse
the change's median is than the parent's, against the bound that
BENCHMARK.json fixes. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(commit: str, into: Path) -> str:
    """Write `commit`'s files into `into`; return its short hash."""
    short = subprocess.run(
        ["git", "rev-parse", "--short", commit], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")
    return short


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its result line as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} printed no result:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's row: both sides' summaries and how the change fared."""
    lower = metric["better"] == "lower"
    p, c = summary(parent), summary(change)
    worse = (c["median"] - p["median"]) if lower else (p["median"] - c["median"])
    worse_by = worse / p["median"] if p["median"] else 0.0
    wins = sum(1 for a, b in zip(parent, change) if (b < a if lower else b > a))
    return {
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": p,
        "change": c,
        "change_worse_by": worse_by,
        "change_wins": wins,
        "within_bound": worse_by <= metric["bound"],
        "parent_spread": (p["q3"] - p["q1"]) / p["median"] if p["median"] else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="commit to compare against")
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--description", default="")
    args = ap.parse_args(argv)

    metrics = spec["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        result: dict = {
            "description": args.description,
            "parent_commit": export(args.parent, trees["parent"]),
            "run_seconds": args.seconds,
            "workloads": {},
        }
        for workload in args.workloads:
            seeds = [args.seed + i for i in range(args.pairs)]
            firsts = ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)]
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for seed, first in zip(seeds, firsts):
                for side in (first, "change" if first == "parent" else "parent"):
                    out = run_once(trees[side], workload, seed, args.seconds)
                    runs[side].append(out)
                    sim = out["metrics"]["sim_s"]["value"]
                    print(f"{workload} seed {seed} {side}: sim_s {sim:.4f}, "
                          f"failed {out['failed']}/{out['attempted']}", file=sys.stderr)
            result["workloads"][workload] = {
                "seeds": seeds,
                "pairs": args.pairs,
                "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
                "first": firsts,
                "metrics": {
                    m["name"]: compare(
                        m,
                        [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                        [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                    )
                    for m in metrics
                },
            }
            args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
