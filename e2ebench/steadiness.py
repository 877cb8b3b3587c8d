#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as BENCHMARK.json bounds them.

Runs the benchmark command from BENCHMARK.json, untraced, on every
workload it lists: two sets of ten runs, back to back, set 1 on seeds 1-10 and
set 2 on seeds 11-20. Prints a Markdown table with, for each workload
and metric, each set's median, quartiles (statistics.quantiles, n=4)
and range, the spread (Q3 - Q1) / median, and how far set 2's median
moved from set 1's in the metric's worse direction. The ungated tails
of the record line get the same rows. Run from the repository root:

    python3 e2ebench/steadiness.py --raw e2ebench/steadiness.json
"""

import argparse
import json
import statistics
import subprocess
import sys

SETS = 2
RUNS = 10
# Tail percentiles each run prints in its record line, not gated.
TAILS = ["ack_p99_ms", "snapshot_p90_ms", "query_p99_ms"]


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values.update(json.loads(lines[-2])["record"]["tails"])
    return values


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / med}


def verdict(spreads, worse, bound):
    """`steady` when every spread is within a third of the bound,
    `within bound` when within the bound, else `OVER BOUND`; the drift
    must be within the bound for either of the first two."""
    if worse > bound or any(s > bound for s in spreads):
        return "OVER BOUND"
    return "steady" if all(s <= bound / 3 for s in spreads) else "within bound"


def table(raw, bench):
    rows = [(m["name"], m["bound"], m["better"]) for m in bench["end_to_end"]]
    rows += [(name, None, "lower") for name in TAILS]
    lines = []
    for workload, sets in raw.items():
        lines.append(f"\n### {workload}\n")
        head = "| metric | bound |"
        rule = "|---|---|"
        for k in range(len(sets)):
            head += f" set {k + 1} median [Q1, Q3] (min–max) | spread |"
            rule += "---|---|"
        head += " drift | verdict |"
        rule += "---|---|"
        lines += [head, rule]
        for name, bound, better in rows:
            row = f"| `{name}` | {'not gated' if bound is None else bound} |"
            values = [[run[name] for run in s] for s in sets]
            if any(v is None for vs in values for v in vs):
                lines.append(row + " n/a |" * (2 * len(sets) + 1)
                             + " too few samples beyond the percentile |")
                continue
            summaries = [summarize(vs) for vs in values]
            for s in summaries:
                row += (f" {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                        f" ({s['min']:.4g}–{s['max']:.4g}) | {s['spread']:.3f} |")
            first, last = summaries[0]["median"], summaries[-1]["median"]
            worse = (last - first) / first
            if better == "higher":
                worse = -worse
            spreads = [s["spread"] for s in summaries]
            judged = "—" if bound is None else verdict(spreads, worse, bound)
            lines.append(row + f" {worse:+.3f} | {judged} |")
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--raw", help="write every run's metrics here (JSON)")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    raw = {w["name"]: [] for w in bench["workloads"]}
    for k in range(SETS):
        for w, sets in raw.items():
            runs = []
            for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
                runs.append(run_once(bench["command"], w, seed, bench["run_seconds"]))
                print(f"set {k + 1} {w} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
            sets.append(runs)
    print(table(raw, bench))
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
