"""Paired benchmark runs: a base commit against the working tree.

    python3 tools/bench_pair.py --pr 6 --base HEAD \
        [--pairs polyhex=10,gen=5,sweep=7,cli=7] [--first-seed 6001] [--workdir DIR]

Run from the repository root.  The base commit is exported with
`git archive` into a temporary directory (under --workdir when given),
so the repository and its .git are left as they are.  For every pair
the benchmark command of BENCHMARK.json runs once in each tree on the
same seed, alternating which tree goes first, and the result lines are
collected into BENCH_<pr>.json at the repository root.  The pairs of
every workload run on seeds --first-seed, --first-seed + 1, ... (6001
by default; the file records it), so a claim can be measured on seeds
kept apart from the ones looked at while the change was written.  The
run length is BENCHMARK.json's.
The default pairs are 10 for polyhex, 5 for gen and 7 for sweep and
cli.  On two shared cores, 5 pairs let one noisy stretch reach a
bound: a 5-pair run once read cli op_p50_ms 24 % worse (the bound is
25 %) for a change that left the cli's code as it was.

The file holds:

- runs: every run's side, seed, position in its pair (0 runs first),
  attempted and failed operations and end-to-end metrics;
- summary: per workload and metric, each side's median and quartiles,
  the number of pairs the working tree won, and whether the medians
  differ by more than the base's interquartile distance; peak_rss_mb
  also holds each side's median of attempted operations.

Metric directions come from BENCHMARK.json, which is only read.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 6001


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", required=True, help="suffix of the output file BENCH_<pr>.json")
    p.add_argument("--base", default="HEAD", help="git revision to compare against")
    p.add_argument(
        "--pairs",
        default="polyhex=10,gen=5,sweep=7,cli=7",
        help="comma-separated workload=pairs",
    )
    p.add_argument(
        "--first-seed", type=int, default=FIRST_SEED, help="seed of pair 1; pair i uses it + i - 1"
    )
    p.add_argument("--workdir", default=None, help="directory for the exported base tree")
    return p.parse_args(argv)


def revision(rev: str) -> str:
    """The full hash of the commit `rev` names."""
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()


def export(rev: str, dest: str) -> tuple[str, str]:
    """Write the files of `rev` under dest; return its full hash and the tree."""
    sha = revision(rev)
    archive = os.path.join(dest, "base.tar")
    subprocess.run(["git", "archive", "--output", archive, sha], cwd=ROOT, check=True)
    tree = os.path.join(dest, "base")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    os.remove(archive)
    return sha, tree


def run_once(command, tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        *command, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {
        "correct": result.get("correct"),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
    }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(runs, metrics):
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload and "metrics" in r:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        pairs = {i: p for i, p in pairs.items() if len(p) == 2}
        ours = [r for r in runs if r["workload"] == workload]
        entry = {
            "pairs": len(pairs),
            "failed": {
                side: sum(r.get("failed") or 0 for r in ours if r["side"] == side)
                + sum(1 for r in ours if r["side"] == side and "error" in r)
                for side in ("base", "change")
            },
            "metrics": {},
        }
        for name, better in metrics.items():
            if not pairs or any(name not in p[s] for p in pairs.values() for s in p):
                continue
            base = [p["base"][name] for p in pairs.values()]
            change = [p["change"][name] for p in pairs.values()]
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
            bq, cq = quartiles(base), quartiles(change)
            entry["metrics"][name] = {
                "better": better,
                "base": {"q1": bq[0], "median": bq[1], "q3": bq[2]},
                "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
                "ratio": cq[1] / bq[1] if bq[1] else None,
                "wins": wins,
                "beyond_base_iqr": abs(cq[1] - bq[1]) > bq[2] - bq[0],
            }
        rss = entry["metrics"].get("peak_rss_mb")
        if rss is not None:
            # the harness keeps a record per operation, so RSS is read
            # against the number of operations
            rss["attempted"] = {
                side: statistics.median(
                    r.get("attempted") or 0
                    for r in ours
                    if r["side"] == side and r["pair"] in pairs and "metrics" in r
                )
                for side in ("base", "change")
            }
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    plan = []
    for item in args.pairs.split(","):
        workload, count = item.split("=")
        plan.append((workload.strip(), int(count)))

    runs = []
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        sha, base_tree = export(args.base, tmp)
        trees = {"base": base_tree, "change": ROOT}
        for workload, count in plan:
            for i in range(count):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for position, side in enumerate(order):
                    t0 = time.monotonic()
                    record = run_once(bench["command"], trees[side], workload, seed, seconds)
                    record.update(
                        workload=workload, pair=i, seed=seed, side=side, position=position
                    )
                    runs.append(record)
                    print(
                        f"bench_pair: {workload} pair {i + 1}/{count} {side} "
                        f"({time.monotonic() - t0:.0f} s) "
                        f"{record.get('metrics', record.get('error'))}",
                        file=sys.stderr,
                        flush=True,
                    )

    out = {
        "base": sha,
        "change": f"working tree on {revision('HEAD')}",
        "command": bench["command"],
        "seconds": seconds,
        "first_seed": args.first_seed,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "runs": runs,
        "summary": summarise(runs, metrics),
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"bench_pair: wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
