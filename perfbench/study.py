#!/usr/bin/env python3
"""Steadiness study: run each workload once per seed and report, for
every end-to-end metric, the spread of its per-run values; for the
host metrics, raw and reference-normalized.

    python3 perfbench/study.py --seeds 1-10 --out .bench_build/study.jsonl
    python3 perfbench/study.py --summarize .bench_build/study.jsonl

Spread is the interquartile range over the median, with quartiles as
statistics.quantiles(values, n=4) gives them. One JSON line per run,
with the raw replay and reference-block times, is appended to --out,
so an interrupted study can be summarized and other normalizations
evaluated later (--grid). STEADINESS.md records the study behind the
shipped settings.
"""

import argparse
import json
import math
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def one_run(bindir, name, seed, seconds):
    t0 = time.monotonic()
    with bench.Workload(bindir, name, seed, 0) as wl:
        raw = bench.run_untraced(wl, seconds)
    row = {"workload": name, "seed": seed,
           "wall_s": time.monotonic() - t0,
           "correct": all(c["ok"] for c in raw["checks"]),
           "raw": {k: raw[k] for k in ("replays", "setup_s",
                                       "setup_ref_s", "peak_rss_mb",
                                       "sim", "seeded_sim") if k in raw}}
    return row


def host_values(raw):
    """replay_rps and setup_s of one run, (raw, normalized)."""
    plain = bench.host_metrics(raw, frozenset())
    norm = bench.host_metrics(raw, frozenset(plain))
    return {m: (plain[m], norm[m]) for m in plain}


def quantile_rps(raw, q):
    """An alternative normalization: whole-replay host time scaled by
    the q-quantile of the blocks run during that replay."""
    def replay_s(r):
        blocks = sorted(r["ref_s"])
        at = blocks[min(len(blocks) - 1, int(q * len(blocks)))]
        return sum(r["slice_s"]) * bench.NOMINAL_REF_S / at

    return statistics.median(raw["sim"]["arrivals"] / replay_s(r)
                             for r in raw["replays"])


def paired_rps(raw, elasticity):
    """replay_rps under paired normalization with `elasticity`."""
    return statistics.median(
        raw["sim"]["arrivals"] /
        bench.paired(r["slice_s"], r["ref_s"], elasticity)
        for r in raw["replays"])


def elasticity(raws):
    """Least-squares slope of log replay host time on log mean block
    time over every replay: how much more the replay slows than the
    kernel."""
    xs, ys = [], []
    for raw in raws:
        for r in raw["replays"]:
            xs.append(math.log(statistics.mean(r["ref_s"])))
            ys.append(math.log(sum(r["slice_s"])))
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys)) /
            sum((x - mx) ** 2 for x in xs))


def by_workload(path):
    groups = {}
    for line in open(path):
        row = json.loads(line)
        groups.setdefault(row["workload"], []).append(row)
    return groups


def summarize(path):
    spec = bench.load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, rows in by_workload(path).items():
        raws = [r["raw"] for r in rows]
        print("## %s: %d runs, seeds %s, wall %.1f-%.1f s, "
              "%d-%d replays per run, all checks %s" % (
                  name, len(rows),
                  ",".join(str(r["seed"]) for r in rows),
                  min(r["wall_s"] for r in rows),
                  max(r["wall_s"] for r in rows),
                  min(len(r["replays"]) for r in raws),
                  max(len(r["replays"]) for r in raws),
                  "pass" if all(r["correct"] for r in rows) else "FAIL"))
        print()
        print("| metric | median | spread | bound | spread / bound |")
        print("|---|---|---|---|---|")
        values = [bench.end_to_end(r) for r in raws]
        for metric, bound in bounds.items():
            vals = [v[metric] for v in values]
            s = spread(vals)
            print("| %s | %.6g | %.4f | %.2f | %.2f |" % (
                metric, statistics.median(vals), s, bound, s / bound))
        print()
        print("| host metric | raw spread | normalized spread |")
        print("|---|---|---|")
        hosts = [host_values(r) for r in raws]
        for metric in ("replay_rps", "setup_s"):
            print("| %s | %.4f | %.4f |" % (
                metric, spread([h[metric][0] for h in hosts]),
                spread([h[metric][1] for h in hosts])))
        print()


def grid(path):
    """Spread of replay_rps under each candidate normalization, and the
    fitted elasticity, per workload (the tables STEADINESS.md chose
    from)."""
    print("| workload | elasticity | raw | paired, e=1 | paired, e=1.2 "
          "| paired, e=1.4 | paired, e=1.6 | q=0.2 | q=0.5 |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name, rows in by_workload(path).items():
        raws = [r["raw"] for r in rows]
        cells = [spread([host_values(r)["replay_rps"][0] for r in raws])]
        cells += [spread([paired_rps(r, e) for r in raws])
                  for e in (1.0, 1.2, 1.4, 1.6)]
        cells += [spread([quantile_rps(r, q) for r in raws])
                  for q in (0.2, 0.5)]
        print("| %s | %.2f | " % (name, elasticity(raws)) +
              " | ".join("%.4f" % c for c in cells) + " |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    ap.add_argument("--summarize")
    ap.add_argument("--grid")
    args = ap.parse_args()
    if args.summarize:
        summarize(args.summarize)
        return 0
    if args.grid:
        grid(args.grid)
        return 0
    if not args.out:
        ap.error("--out is required")
    seconds = args.seconds or bench.load_spec()["run_seconds"]
    bindir = bench.build()
    with open(args.out, "a") as out:
        for name in args.workloads.split(","):
            for seed in seeds_of(args.seeds):
                row = one_run(bindir, name, seed, seconds)
                out.write(json.dumps(row) + "\n")
                out.flush()
                bench.log("%s seed %d: %.1f s, %d replays" % (
                    name, seed, row["wall_s"],
                    len(row["raw"]["replays"])))
    summarize(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
