#!/usr/bin/env python3
"""Benchmark runner for the vstream simulator (stdlib only).

Builds benchmark/build/vstream_bench from source, runs workloads in
fresh processes, checks their result dumps and prints every metric by
name and unit.  Modes (README.md has the details):

  run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last stdout line is one JSON object with
        correct/attempted/failed/metrics (end-to-end metrics, or the
        per-layer ones with --trace 1)
  run.py [--reps 5] [--out FILE]   all workloads round-robin, timed
  run.py --trace                   all workloads, traced per-layer run
  run.py --compare A.json B.json   two --out files, metric by metric
  run.py --smoke | --selftest | --bless
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = BENCH / "build"
OUT = BUILD / "out"
BINARY = BUILD / "vstream_bench"
EXPECTED = BENCH / "expected"
WORKLOADS = ["fig11-sweep", "gab-large", "fleet-churn", "fleet-dedup"]
FLEETS = {"fleet-churn", "fleet-dedup"}
# One pass is 7-11 s on a 4-vCPU host; the traced fleet pass ~35 s.
PASS_TIMEOUT_S = 170
# Host-time spans of the layer replay, in the order they nest.
LAYER_SPANS = {
    "video.generate": "video.generate_us_per_frame",
    "decoder.decode": "decoder.decode_self_us_per_frame",
    "core.writeback_begin": "core.writeback_begin_us_per_frame",
    "core.writeback_write": "core.writeback_write_us_per_frame",
    "core.writeback_finish": "core.writeback_finish_us_per_frame",
    "display.scanout": "display.scanout_us_per_frame",
}
SERVE_HOST_METRICS = ["serve.rehearse_ms_p50", "serve.rehearse_ms_p99",
                      "serve.factory_ms", "serve.timeline_s",
                      "serve.report_ms", "serve.arrivals_ms"]
# How far the layer replay's summed time may stray from the stepped
# pipeline's before the attribution is rejected (--selftest).
REPLAY_TOLERANCE = 0.25


class PassError(Exception):
    """A benchmark process failed or printed no result."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Configure once, then build incrementally; exit 2 on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--parallel",
                  str(min(4, os.cpu_count() or 1))])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = BUILD / "build.log"
    with open(log_path, "w") as f:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                    env=env, timeout=840).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = str(e)
            if rc != 0:
                log(log_path.read_text()[-4000:])
                log(f"benchmark build failed ({rc}): {' '.join(cmd)}")
                sys.exit(2)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected_digest(workload, size):
    suffix = ".smoke.sha256" if size == "smoke" else ".sha256"
    path = EXPECTED / (workload + suffix)
    return path.read_text().split()[0] if path.exists() else None


def run_pass(workload, seed, size="full", mode="timed", jobs=None):
    """One fresh benchmark process; its JSON result plus the dump digest."""
    tag = f"{workload}-{size}-{seed}-{mode}" + (f"-j{jobs}" if jobs else "")
    dump = OUT / (tag + ".dump")
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--size", size, "--mode", mode, "--dump", str(dump)]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    if mode == "trace":
        cmd += ["--trace-out", str(OUT / (tag + ".trace.json"))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise PassError(f"{tag}: timed out") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{tag}: exit {proc.returncode}: "
                        f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    result["digest"] = sha256(dump)
    if mode == "trace":
        result["trace_file"] = str(OUT / (tag + ".trace.json"))
    return result


def digest_ok(passes, workload, seed, size):
    """Every pass produced the same bytes, and seed 0 the blessed ones."""
    digests = {p["digest"] for p in passes}
    want = expected_digest(workload, size) if seed == 0 else None
    return len(digests) == 1 and (want is None or want in digests)


# ---- end-to-end metrics --------------------------------------------------

def pass_metrics(p):
    """The end-to-end metrics of one timed pass."""
    return {
        "setup_s": p["setup_s"],
        "wall_s": p["wall_s"],
        "cpu_s": p["cpu_s"],
        "sim_frames_per_s": p["frames"] / p["wall_s"],
        "sessions_per_s": p["sessions"] / p["wall_s"],
        "peak_rss_mb": p["peak_rss_mb"],
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values, unit):
    """Median, quartiles, sample count and raw values of one metric."""
    q1, q3 = quartiles(values)
    return {"unit": unit, "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values), "values": values}


def summarize(passes, metric_specs):
    return {m["name"]: summary([pass_metrics(p)[m["name"]] for p in passes],
                               m["unit"])
            for m in metric_specs}


def best_of(passes):
    """A --workload run's end-to-end metrics.  The host slows every pass
    at times, and never speeds one up, so the time metrics come from
    the fastest pass; set-up time and memory are medians."""
    m = pass_metrics(min(passes, key=lambda p: p["wall_s"]))
    m["cpu_s"] = min(p["cpu_s"] for p in passes)
    m["setup_s"] = statistics.median(p["setup_s"] for p in passes)
    m["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    return m


def timed_run(workload, seed, seconds, size="full"):
    """Fresh passes back to back while the next one is expected to end
    within half a pass of @p seconds; at least one pass."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(workload, seed, size))
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / len(passes) > seconds:
            return passes


# ---- per-layer metrics from the trace ------------------------------------

def load_spans(path):
    """Spans with children and self time (duration minus the union of
    the children's intervals), in microseconds."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    spans = [{"id": i, "name": e["name"], "start": e["ts"], "dur": e["dur"],
              "end": e["ts"] + e["dur"], "parent": e["args"]["parent"],
              "children": []} for i, e in enumerate(events)]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            spans[s["parent"]]["children"].append(i)
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(s["children"], key=lambda i: spans[i]["start"]):
            lo = max(spans[c]["start"], reach)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        s["self"] = s["dur"] - covered
    return spans


def percentile(values, p):
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[min(len(v) - 1, max(0, math.ceil(p * len(v)) - 1))]


def layer_metrics(spans, traced, timed, serial):
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durs(name):
        return [s["dur"] for s in by_name.get(name, [])]

    def self_sum(name):
        return sum(s["self"] for s in by_name.get(name, []))

    frames = len(by_name.get("video.generate", []))
    step_us = sum(durs("pipeline.step"))
    m = {}
    for name, metric in LAYER_SPANS.items():
        m[metric] = self_sum(name) / frames
    m["video.generate_share"] = self_sum("video.generate") / step_us
    m["pipeline.unattributed_frac"] = (
        1.0 - sum(self_sum(n) for n in LAYER_SPANS) / step_us)
    m["pipeline.setup_ms"] = statistics.mean(durs("pipeline.setup")) / 1e3
    m["pipeline.finish_ms"] = statistics.mean(durs("pipeline.finish")) / 1e3
    m["pipeline.step_us_p50"] = percentile(durs("pipeline.step"), 0.50)
    m["pipeline.step_us_p99"] = percentile(durs("pipeline.step"), 0.99)
    if "serve.run" in by_name:
        rehearse = durs("serve.rehearse")
        m["serve.rehearse_ms_p50"] = percentile(rehearse, 0.50) / 1e3
        m["serve.rehearse_ms_p99"] = percentile(rehearse, 0.99) / 1e3
        m["serve.factory_ms"] = sum(durs("serve.factory")) / 1e3
        # Placer::run rehearsed every session that was replayed after
        # it; the rest of its self time is the timeline's.
        run = by_name["serve.run"][0]
        m["serve.timeline_s"] = (run["self"] - sum(rehearse)) / 1e6
        m["serve.report_ms"] = sum(durs("serve.report")) / 1e3
        m["serve.arrivals_ms"] = sum(durs("serve.arrivals")) / 1e3
        traced_pass_s = (run["dur"] + sum(durs("serve.report"))) / 1e6
    else:
        # A sweep has no serving layer; its traced pass is the stepped
        # pipelines, without the layer replays.
        for name in SERVE_HOST_METRICS:
            m[name] = 0.0
        traced_pass_s = sum(s["dur"] for s in spans if s["parent"] < 0 and
                            s["name"].startswith("pipeline.")) / 1e6
    m["sim.parallel_speedup"] = serial["wall_s"] / timed["wall_s"]
    m["sim.threads_spawned"] = timed["threads_spawned"]
    # The traced pass is not scaled (spans read the clock), so neither
    # is its base.
    m["trace.overhead_frac"] = traced_pass_s / serial["wall_raw_s"] - 1.0
    m.update(traced["counts"])
    return m


def trace_run(workload, seed, size="full"):
    """Traced serial pass, the timed pass it is compared with, and for
    fleets an untraced serial pass (the tracing-overhead base)."""
    traced = run_pass(workload, seed, size, mode="trace")
    timed = run_pass(workload, seed, size)
    serial = (run_pass(workload, seed, size, jobs=1)
              if workload in FLEETS else timed)
    metrics = layer_metrics(load_spans(traced["trace_file"]), traced, timed,
                            serial)
    ok = (digest_ok([traced, timed, serial], workload, seed, size)
          and traced["replay_mismatches"] == 0)
    return traced, metrics, ok


# ---- modes ---------------------------------------------------------------

def workload_mode(args):
    """One workload, one result line: the interface BENCHMARK.json names."""
    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    attempted, failed, correct, metrics = 1, 1, False, {}
    try:
        if args.trace:
            traced, values, correct = trace_run(args.workload, args.seed)
            attempted = traced["sessions"]
            failed = traced["failed"] if correct else attempted
            metrics = {m["name"]: {"value": values[m["name"]],
                                   "unit": m["unit"]}
                       for m in bench["per_layer"]}
        else:
            passes = timed_run(args.workload, args.seed, seconds)
            correct = digest_ok(passes, args.workload, args.seed, "full")
            attempted = sum(p["sessions"] for p in passes)
            failed = (sum(p["failed"] for p in passes) if correct
                      else attempted)
            values = best_of(passes)
            metrics = {m["name"]: {"value": values[m["name"]],
                                   "unit": m["unit"]}
                       for m in bench["end_to_end"]}
            log(f"{args.workload} seed {args.seed}: {len(passes)} pass(es), "
                f"digest {passes[0]['digest'][:16]}")
        correct = correct and failed == 0
    except PassError as e:
        log(e)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_table(title, rows):
    print(title)
    print(f"  {'metric':36} {'unit':12} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'n':>3}")
    for name, r in rows.items():
        print(f"  {name:36} {r['unit']:12} {r['median']:14.6g} "
              f"{r['q1']:14.6g} {r['q3']:14.6g} {r['n']:3d}")


def suite_mode(args):
    """Every workload, --reps fresh passes each, round-robin."""
    bench = spec()
    ok = True
    if args.trace:
        for w in WORKLOADS:
            _, values, good = trace_run(w, args.seed, args.size)
            ok = ok and good
            print(f"{w}: traced run {'ok' if good else 'FAILED'}")
            for m in bench["per_layer"]:
                print(f"  {m['name']:36} {m['unit']:12} "
                      f"{values[m['name']]:14.6g}")
        return 0 if ok else 1
    passes = {w: [] for w in WORKLOADS}
    for rep in range(args.reps):
        for w in WORKLOADS:
            log(f"rep {rep + 1}/{args.reps}: {w}")
            passes[w].append(run_pass(w, args.seed, args.size))
    results = {"seed": args.seed, "size": args.size, "workloads": {}}
    for w in WORKLOADS:
        ps = passes[w]
        good = (digest_ok(ps, w, args.seed, args.size)
                and all(p["failed"] == 0 for p in ps)
                and all(p["counts"] == ps[0]["counts"] for p in ps))
        ok = ok and good
        metrics = summarize(ps, bench["end_to_end"])
        results["workloads"][w] = {
            "correct": good, "digest": ps[0]["digest"],
            "attempted": sum(p["sessions"] for p in ps),
            "failed": sum(p["failed"] for p in ps),
            "metrics": metrics, "counts": ps[0]["counts"]}
        print_table(f"{w}: {'ok' if good else 'FAILED'}, "
                    f"digest {ps[0]['digest'][:16]}, failed "
                    f"{results['workloads'][w]['failed']} of "
                    f"{results['workloads'][w]['attempted']} units", metrics)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name, value in ps[0]["counts"].items():
            print(f"  {name:36} {units[name]:12} {value:14.6g}")
    out = Path(args.out) if args.out else BUILD / "results.json"
    out.write_text(json.dumps(results, indent=1))
    print(f"results: {out}")
    return 0 if ok else 1


def verdict(m, x, y):
    """ok, worse or unresolved for metric spec @p m, baseline summary
    @p x and candidate summary @p y (as summarize() writes them)."""
    sign = 1.0 if m["better"] == "lower" else -1.0
    # Signed so that lower is better for every metric.
    if max(sign * v for v in y["values"]) < min(sign * v for v in x["values"]):
        return "ok"  # every B run beats every A run
    spread = max((r["q3"] - r["q1"]) / r["median"] for r in (x, y))
    if spread > m["bound"]:
        return "unresolved"
    worse = sign * (y["median"] - x["median"]) / x["median"]
    return "worse" if worse > m["bound"] else "ok"


def compare_mode(args):
    """Per workload and metric: medians, IQRs, delta, bound, verdict."""
    bench = spec()
    a = json.loads(Path(args.compare[0]).read_text())["workloads"]
    b = json.loads(Path(args.compare[1]).read_text())["workloads"]
    bad = False
    for w in WORKLOADS:
        if w not in a or w not in b:
            continue
        print(w)
        for m in bench["end_to_end"]:
            x, y = a[w]["metrics"][m["name"]], b[w]["metrics"][m["name"]]
            v = verdict(m, x, y)
            bad = bad or v == "worse"
            print(f"  {m['name']:18} A {x['median']:12.6g} "
                  f"(IQR {x['q3'] - x['q1']:.3g})  B {y['median']:12.6g} "
                  f"(IQR {y['q3'] - y['q1']:.3g})  delta "
                  f"{(y['median'] - x['median']) / x['median']:+7.2%}  "
                  f"bound {m['bound']:.0%}  {v}")
        same = a[w]["counts"] == b[w]["counts"]
        bad = bad or not same
        print(f"  counts {'identical' if same else 'DIFFER'}")
    return 1 if bad else 0


def smoke_mode(_args):
    ok = True
    for w in WORKLOADS:
        p = run_pass(w, 0, "smoke")
        good = digest_ok([p], w, 0, "smoke") and p["failed"] == 0
        ok = ok and good
        print(f"{w}: smoke {'ok' if good else 'FAILED'} "
              f"({p['wall_s']:.2f} s, digest {p['digest'][:16]})")
    return 0 if ok else 1


def bless_mode(_args):
    EXPECTED.mkdir(exist_ok=True)
    for w in WORKLOADS:
        for size, suffix in (("full", ".sha256"), ("smoke", ".smoke.sha256")):
            p = run_pass(w, 0, size)
            if p["failed"]:
                log(f"{w} {size}: {p['failed']} failed units; not blessed")
                return 1
            (EXPECTED / (w + suffix)).write_text(p["digest"] + "\n")
            print(f"{w} {size}: {p['digest']}")
    return 0


def check_accounting(spans, metrics):
    """Children nest in their parents; each replayed unit's self times
    add up to its duration; the replay covers the frames the pipeline
    stepped; and the replay's summed layer time is within
    REPLAY_TOLERANCE of the stepped pipeline's stepVsync time."""
    tol = 1e-3  # microseconds of rounding per span
    for s in spans:
        for c in s["children"]:
            child = spans[c]
            if child["start"] < s["start"] - tol or \
                    child["end"] > s["end"] + tol:
                return f"{child['name']} escapes its parent {s['name']}"

    def tree_self(i):
        return spans[i]["self"] + sum(tree_self(c)
                                      for c in spans[i]["children"])

    replays = [s for s in spans if s["name"] == "replay.unit"]
    if not replays:
        return "no replay.unit spans"
    for s in replays:
        if abs(tree_self(s["id"]) - s["dur"]) > tol * (1 + len(s["children"])):
            return f"replay.unit {s['id']}: self times do not sum to duration"
    steps = [s["dur"] for s in spans if s["name"] == "pipeline.step"]
    frames = sum(1 for s in spans if s["name"] == "video.generate")
    if frames != len(steps):
        return f"{frames} frames replayed for {len(steps)} stepVsync calls"
    # The replay and the stepped run are separate executions of the same
    # frames; a wide gap means the layers no longer stand for stepVsync.
    gap = metrics["pipeline.unattributed_frac"]
    if abs(gap) > REPLAY_TOLERANCE:
        return (f"the layer replay's time differs from stepVsync's by "
                f"{-gap:+.1%}, more than {REPLAY_TOLERANCE:.0%}")
    return None


def check_verdicts():
    """--compare's verdict on hand-made pairs, both metric directions."""
    up = [758, 759, 760, 761, 762]
    down = [1.00, 1.01, 1.02, 1.03, 1.04]
    cases = [  # better, A, B, expected verdict at a 15% bound
        ("higher", up, [600, 601, 602, 603, 761], "worse"),
        ("higher", up, [800, 801, 802, 803, 804], "ok"),
        ("lower", down, [1.20, 1.21, 1.22, 1.23, 0.99], "worse"),
        ("lower", [1.0, 1.5, 2.0, 2.5, 3.0], [0.1, 0.2, 0.3, 0.4, 0.5], "ok"),
        ("lower", down, [0.5, 1.0, 1.5, 2.0, 2.5], "unresolved"),
    ]
    failures = []
    for better, a, b, want in cases:
        m = {"name": "m", "better": better, "bound": 0.15}
        got = verdict(m, summary(a, "u"), summary(b, "u"))
        if got != want:
            failures.append(f"--compare says {got}, not {want}, for "
                            f"{better}-is-better A={a} B={b}")
    return failures


def selftest_mode(_args):
    failures = check_verdicts()
    for w in WORKLOADS:
        if w in FLEETS:
            traced = run_pass(w, 0, "smoke", mode="trace")
            timed = run_pass(w, 0, "smoke")
            if traced["digest"] != timed["digest"]:
                failures.append(f"{w}: traced --jobs 1 report differs from "
                                f"timed --jobs {timed['jobs']}")
            continue
        traced = run_pass(w, 0, "smoke", mode="trace")
        timed = run_pass(w, 0, "smoke")
        if traced["replay_mismatches"]:
            failures.append(f"{w}: {traced['replay_mismatches']} units' "
                            "layer replay differs from simulateScheme")
        if not digest_ok([traced, timed], w, 0, "smoke"):
            failures.append(f"{w}: traced dump differs from the timed one")
        spans = load_spans(traced["trace_file"])
        problem = check_accounting(
            spans, layer_metrics(spans, traced, timed, timed))
        if problem:
            failures.append(f"{w}: {problem}")
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--bless", action="store_true")
    args = ap.parse_args()
    if args.compare:
        return compare_mode(args)
    build()
    if args.workload:
        return workload_mode(args)
    if args.smoke:
        return smoke_mode(args)
    if args.selftest:
        return selftest_mode(args)
    if args.bless:
        return bless_mode(args)
    return suite_mode(args)


if __name__ == "__main__":
    sys.exit(main())
