#!/usr/bin/env python3
"""Alternating A/B pairs of two vstream_bench binaries (stdlib only).

Runs N pairs of a parent and a changed `vstream_bench` on one workload
and seed, alternating which side runs first, and reports for one
end-to-end metric each side's median and quartiles, the pairs the
change won (ties count for neither side) and the parent's
interquartile range.  A gain is claimed only when the change wins at
least nine tenths of the pairs and the medians differ by more than
the parent's IQR.  Every pass also hashes its result dump, and the
report says whether both sides wrote the same bytes.

  tools/ab_pairs.py --parent P/vstream_bench --change C/vstream_bench \\
      --workload fig11-sweep --seed 0 --pairs 10 [--metric wall_s]
  tools/ab_pairs.py --self-test
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

# Metrics where a larger value is better; every other one is a cost.
HIGHER_IS_BETTER = {"sim_frames_per_s", "sessions_per_s"}
# End-to-end metrics whose medians the report lists beside the
# compared one (those a workload's result carries).
END_TO_END = ["setup_s", "wall_s", "cpu_s", "sim_frames_per_s",
              "sessions_per_s", "peak_rss_mb"]


def quartiles(values):
    """(q1, median, q3), inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change, higher_is_better=False):
    """Compare paired samples: parent[i] and change[i] form pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of samples a side")
    wins = losses = ties = 0
    for p, c in zip(parent, change):
        if c == p:
            ties += 1
        elif (c > p) == higher_is_better:
            wins += 1
        else:
            losses += 1
    pq = quartiles(parent)
    cq = quartiles(change)
    iqr = pq[2] - pq[0]
    delta = cq[1] - pq[1]
    better = delta > 0 if higher_is_better else delta < 0
    gain = wins * 10 >= 9 * len(parent) and better and abs(delta) > iqr
    return {
        "pairs": len(parent), "wins": wins, "losses": losses, "ties": ties,
        "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
        "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
        "parent_iqr": iqr,
        "median_delta": delta,
        "median_delta_frac": delta / pq[1] if pq[1] else 0.0,
        "gain": gain,
    }


def run_once(binary, workload, seed, dump):
    """One fresh benchmark process: its result JSON and dump digest."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--size", "full", "--mode", "timed", "--dump", dump]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab_pairs: {binary} exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-400:]}")
    with open(dump, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    return json.loads(lines[-1]), digest


def run_pairs(args):
    parent, change, digests = [], [], {"parent": set(), "change": set()}
    results = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        dump = os.path.join(tmp, "result.dump")
        for i in range(args.pairs):
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            got = {}
            for side, binary in order:
                result, digest = run_once(binary, args.workload, args.seed,
                                          dump)
                got[side] = result[args.metric]
                digests[side].add(digest)
                results[side].append(result)
            parent.append(got["parent"])
            change.append(got["change"])
            print(f"pair {i + 1}/{args.pairs} ({order[0][0]} first): "
                  f"parent {got['parent']:.4f}  change {got['change']:.4f}",
                  file=sys.stderr, flush=True)
    report = summarize(parent, change, args.metric in HIGHER_IS_BETTER)
    report.update({"workload": args.workload, "seed": args.seed,
                   "metric": args.metric, "parent_samples": parent,
                   "change_samples": change,
                   "same_dump": (len(digests["parent"]) == 1 and
                                 digests["parent"] == digests["change"]),
                   "medians": {
                       m: [statistics.median(r[m] for r in results[side])
                           for side in ("parent", "change")]
                       for m in END_TO_END if m in results["parent"][0]}})
    return report


def print_report(r):
    p, c = r["parent"], r["change"]
    print(f"{r['workload']} seed {r['seed']}, {r['metric']}, "
          f"{r['pairs']} alternating pairs")
    print(f"  parent  median {p['median']:.4f}  "
          f"quartiles {p['q1']:.4f} .. {p['q3']:.4f}")
    print(f"  change  median {c['median']:.4f}  "
          f"quartiles {c['q1']:.4f} .. {c['q3']:.4f}")
    print(f"  change won {r['wins']} of {r['pairs']} pairs "
          f"({r['ties']} ties); median {r['median_delta_frac']:+.1%}, "
          f"parent IQR {r['parent_iqr']:.4f}")
    print(f"  dumps {'identical' if r['same_dump'] else 'DIFFER'}; "
          f"{'gain' if r['gain'] else 'no claimable gain'}")
    for m, (pm, cm) in r.get("medians", {}).items():
        print(f"  median {m}: parent {pm:.4g}  change {cm:.4g}")
    print(json.dumps(r))


def self_test():
    checks = 0

    def expect(cond, what):
        nonlocal checks
        checks += 1
        if not cond:
            sys.exit(f"ab_pairs self-test failed: {what}")

    # Quartiles, inclusive method: 1..5 -> 2, 3, 4.
    expect(quartiles([5, 1, 4, 2, 3]) == (2, 3, 4), "quartiles of 1..5")
    expect(quartiles([7]) == (7, 7, 7), "one sample")

    # Ten pairs, change faster in all ten, well outside the IQR.
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 9.9]
    change = [v - 1.5 for v in parent]
    r = summarize(parent, change)
    expect(r["wins"] == 10 and r["losses"] == 0, "ten wins")
    expect(abs(r["parent_iqr"] - (10.1 - 9.9)) < 1e-9, "parent IQR")
    expect(r["gain"], "clear gain is claimed")

    # Ties count for neither side: 9 wins + 1 tie still passes 9/10,
    # 8 wins + 2 ties does not.
    tied = list(change)
    tied[0] = parent[0]
    r = summarize(parent, tied)
    expect((r["wins"], r["ties"]) == (9, 1) and r["gain"], "9 wins, 1 tie")
    tied[1] = parent[1]
    r = summarize(parent, tied)
    expect((r["wins"], r["ties"]) == (8, 2) and not r["gain"],
           "8 wins, 2 ties")

    # Wins in every pair but a median shift inside the parent's IQR.
    small = [v - 0.05 for v in parent]
    r = summarize(parent, small)
    expect(r["wins"] == 10 and not r["gain"], "shift inside the IQR")

    # Higher-is-better metrics invert the comparison.
    r = summarize([100.0] * 10, [120.0] * 10, higher_is_better=True)
    expect(r["wins"] == 10 and r["gain"], "throughput gain")
    r = summarize([100.0] * 10, [120.0] * 10)
    expect(r["losses"] == 10 and not r["gain"], "cost regression")

    # Mismatched samples are an error.
    try:
        summarize([1.0], [1.0, 2.0])
        expect(False, "mismatched lengths rejected")
    except ValueError:
        expect(True, "mismatched lengths rejected")
    print(f"ab_pairs self-test: {checks} checks passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--metric", default="wall_s")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if not (args.parent and args.change and args.workload):
        ap.error("--parent, --change and --workload are required")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    print_report(run_pairs(args))


if __name__ == "__main__":
    main()
