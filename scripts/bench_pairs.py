#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, for a BENCH_<n>.json file.

  python3 scripts/bench_pairs.py PARENT CHANGE --workload greedy-translate \\
      --pairs 10 --seconds 20 --seeds 3321-3330 --out BENCH_33.json

Pair i runs `python3 bench/run.py --workload W --seed S_i --seconds S
--trace 0` once in each checkout (the root of a tree that holds bench/ and
src/), one run at a time: the parent first for even i, the change first
for odd i. The seeds are named on the command line, as a range `a-b` or a
comma list, one per pair. For each end-to-end metric that the change's
BENCHMARK.json lists, the script prints both sides' quartiles and in how
many pairs the change was higher and lower, and merges them into the JSON
file given by --out under "workloads" -> W, with the seeds, the runs'
failures and whether every check passed. It changes nothing in either
checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    if "-" in text.strip("-"):
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_bench(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in checkout `root`: its last-line JSON, with the exit code."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{root}: seed {seed} printed no result (exit {proc.returncode})\n"
                         f"{proc.stderr[-2000:]}")
    result["exit"] = proc.returncode
    return result


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarize(metrics: list[dict], runs: dict) -> dict:
    out = {}
    pairs = len(runs["parent"])
    for metric in metrics:
        name = metric["name"]
        a = [r["metrics"][name]["value"] for r in runs["parent"]]
        b = [r["metrics"][name]["value"] for r in runs["change"]]
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent_q1_median_q3": quartiles(a), "change_q1_median_q3": quartiles(b),
                     "change_higher_in": f"{sum(y > x for x, y in zip(a, b))} of {pairs}",
                     "change_lower_in": f"{sum(y < x for x, y in zip(a, b))} of {pairs}"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seeds", required=True, help="one per pair: a range a-b or a comma list")
    ap.add_argument("--out", help="JSON file to merge the workload's summary into")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) != args.pairs:
        ap.error(f"{len(seeds)} seeds named for {args.pairs} pairs")
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(run_bench(getattr(args, side), args.workload, seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
            f"{side} {runs[side][-1]['metrics']['sentences_per_s']['value']:.2f}/s"
            for side in ("parent", "change")), file=sys.stderr)
    summary = {"seeds": seeds,
               "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
               "all_checks_passed": all(r["exit"] == 0 and r["correct"] is True
                                        for rs in runs.values() for r in rs),
               "metrics": summarize(metrics, runs)}
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seeds}, "
          f"all checks passed: {summary['all_checks_passed']}")
    for name, m in summary["metrics"].items():
        print(f"  {name:20s} parent {m['parent_q1_median_q3']}  change {m['change_q1_median_q3']}"
              f"  change higher in {m['change_higher_in']}, lower in {m['change_lower_in']}")
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                doc = json.load(f)
        doc.setdefault("command", "python3 bench/run.py --workload W --seed S --seconds "
                                  f"{args.seconds:g} --trace 0, alternating pairs "
                                  "(scripts/bench_pairs.py)")
        doc.setdefault("workloads", {})[args.workload] = summary
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
