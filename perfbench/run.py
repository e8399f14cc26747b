#!/usr/bin/env python3
"""End-to-end benchmark of the capture -> trace -> report/query chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  Builds perfbench/chainbench (and the
repository libraries it links) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then:

  1. set-up: simulates the workload and writes its pcap (eecs-query also
     builds its v2 trace), SETUP_REPS times; setup_s is the median;
  2. --trace 0: one untraced run of every stage for S seconds, giving
     the end-to-end metrics;
     --trace 1: one run per stage (S split evenly) in which untraced and
     traced iterations alternate, giving the per-layer metrics, the
     ledger and the tracing overhead, and checking that traced outputs
     equal untraced ones;
  3. after each run, outside the timed region, the oracle checks.

Prints a human-readable table, then as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Metric definitions and
the layer each belongs to are in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPS = 3
# Seed the benchmark was developed and tuned on, and the held-out seed
# it was also checked on (see README.md).
DEV_SEED = 1
HELDOUT_SEED = 7
# campus-email is single-threaded end to end: its layers' self times
# must account for each phase's wall time to within this share.
LEDGER_TOLERANCE = 0.05
# Whole-run deadline after the build: a run must end within 180 s.
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 840.0

END_TO_END = [
    ("capture_rps", "records/s"),
    ("analyze_rps", "records/s"),
    ("chain_rps", "records/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("trace_bytes_per_record", "B/record"),
    ("setup_s", "s"),
]

PASSES = ("summary", "hourly", "users", "reorder", "runs", "names",
          "blocklife", "pathrec")

PER_LAYER = [
    ("pcap.frames", "count"),
    ("pcap.ns_per_frame", "ns"),
    ("sniffer.ns_per_record", "ns"),
    ("sniffer.frames_undecodable", "count"),
    ("sniffer.orphan_replies", "count"),
    ("sniffer.expired_calls", "count"),
    ("sniffer.flushed_calls", "count"),
    ("sniffer.loss_estimate", "fraction"),
    ("sniffer.pending_peak", "count"),
    ("sniffer.tcp_flows_peak", "count"),
    ("pipeline.feed_ns_per_frame", "ns"),
    ("pipeline.finish_ms", "ms"),
    ("pipeline.sink_busy_frac", "fraction"),
    ("pipeline.frames_shed", "count"),
    ("pipeline.records_merged", "count"),
    ("trace.write_ns_per_record", "ns"),
    ("trace.finalize_ms", "ms"),
    ("trace.extents", "count"),
    ("trace.io_retries", "count"),
    ("engine.scan_ms", "ms"),
    ("engine.finalize_ms", "ms"),
    ("engine.batches", "count"),
    ("engine.extents_total", "count"),
    ("engine.extents_pruned", "count"),
    ("engine.prune_frac", "fraction"),
    ("engine.records_filtered", "count"),
    ("engine.filter_waste_frac", "fraction"),
] + [(f"pass.{p}.{k}", "ms") for p in PASSES
     for k in ("observe_ms", "finalize_ms")] + [
    ("pass.blocklife.deferred_records", "count"),
    ("report.render_ms", "ms"),
    ("capture.peak_rss_mb", "MB"),
    ("analyze.peak_rss_mb", "MB"),
    ("query.peak_rss_mb", "MB"),
    ("query.samples", "count"),
    ("tracing.capture_overhead_frac", "fraction"),
    ("tracing.analyze_overhead_frac", "fraction"),
    ("tracing.query_overhead_frac", "fraction"),
    ("ledger.capture_unattributed_frac", "fraction"),
    ("ledger.analyze_unattributed_frac", "fraction"),
]


class BenchError(Exception):
    pass


def build(build_dir):
    """Configure (once) and build chainbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no repository sources at {ROOT}/src: the benchmark "
                         "builds the program from them")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--target", "chainbench",
                      "-j", str(len(os.sched_getaffinity(0)))])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                raise BenchError(f"build failed: {' '.join(cmd)}\n{tail}")
    return os.path.join(build_dir, "chainbench")


class Runner:
    """Runs chainbench subcommands under one overall deadline."""

    def __init__(self, exe, deadline):
        self.exe = exe
        self.deadline = deadline

    def __call__(self, *args):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before: chainbench " + " ".join(args))
        try:
            p = subprocess.run([self.exe, *args], stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("timed out: chainbench " + " ".join(args))
        if p.returncode != 0:
            raise BenchError(f"chainbench {' '.join(args)} exited "
                             f"{p.returncode}:\n{p.stderr.strip()}")
        return json.loads(p.stdout.strip().splitlines()[-1])


class Books:
    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, out):
        self.correct = self.correct and out["correct"]
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.problems += out.get("problems", [])

    def mismatch(self, what):
        self.correct = False
        self.failed += 1
        self.problems.append(what)


def run_workload(args, run):
    w = args.workload
    common = ["--workload", w, "--seed", str(args.seed), "--dir", args.work]
    books = Books()

    # Each set-up in a fresh process: a set-up's inputs must depend on
    # the seed alone, and the median damps one slow repetition.
    setups = [run("setup", *common, *(["--oracle"] if r == 0 else []))
              for r in range(SETUP_REPS)]
    for out in setups:
        books.add(out)
        if out["digests"] != setups[0]["digests"]:
            books.mismatch("set-up outputs differ between repetitions")
    setup = setups[0]
    sm = dict(setup["metrics"])
    sm["setup_s"] = statistics.median(o["metrics"]["setup_s"] for o in setups)
    # Workloads whose trace is built in set-up (eecs-query) time it there.
    in_setup = "capture_s" in sm
    if in_setup:
        sm["capture_s"] = statistics.median(
            o["metrics"]["capture_s"] for o in setups)

    if args.trace:
        # One process per stage, untraced and traced iterations alternating.
        stages = ["capture", "analyze", "query"]
        outs = {}
        for stage in stages:
            outs[stage] = run("measure", *common, "--seconds",
                              str(args.seconds / len(stages)),
                              "--stages", stage, "--traced")
            books.add(outs[stage])
        pm = {}
        for out in outs.values():
            pm.update(out["metrics"])
        pm["peak_rss_mb"] = max(o["metrics"]["peak_rss_mb"] for o in outs.values())
        if not in_setup:
            pm["chain_rps"] = pm["records"] / (pm["capture_s"] + pm["analyze_s"])
        ledgers = [(stage, o["ledger"]) for stage, o in outs.items() if o["ledger"]]
    else:
        plain = run("measure", *common, "--seconds", str(args.seconds))
        books.add(plain)
        pm = plain["metrics"]
        outs, ledgers = {}, []

    e2e = {name: pm.get(name) for name, _ in END_TO_END}
    e2e["setup_s"] = sm["setup_s"]
    counts = pm
    if in_setup:
        # The capture is the set-up's trace build (median of its reps).
        records = sm["records"]
        e2e["capture_rps"] = records / sm["capture_s"]
        e2e["chain_rps"] = records / (sm["capture_s"] + pm["analyze_s"])
        e2e["trace_bytes_per_record"] = sm["trace_bytes"] / records
        counts = sm
    info = {
        "records": pm["records"],
        "frames": sm["frames"],
        "mirror_drop_rate": sm["mirror_drop_rate"],
        "pcap_bytes": sm["pcap_bytes"],
        "query_samples": pm["query.samples"],
        "query_passes": pm["query.passes"],
        "setup_samples_s": [o["metrics"]["setup_s"] for o in setups],
    }

    layers = {}
    if args.trace:
        names = {name for name, _ in PER_LAYER}
        layers = {k: v for k, v in pm.items() if k in names}
        layers.update({k: v for k, v in counts.items() if k in names})
        for stage, out in outs.items():
            layers[f"{stage}.peak_rss_mb"] = out["metrics"]["peak_rss_mb"]
        for key in ("ledger.capture_unattributed_frac",
                    "ledger.analyze_unattributed_frac"):
            if key in layers and abs(layers[key]) > LEDGER_TOLERANCE:
                books.mismatch(f"{key} = {layers[key]:.4f} exceeds the "
                               f"{LEDGER_TOLERANCE} ledger tolerance")
        for name in names:
            layers.setdefault(name, 0)  # 0: layer not exercised here

    info["error_frac"] = books.failed / max(books.attempted, 1)
    provenance = dict(setup["provenance"])
    provenance.update({"workload": w, "records": info["records"],
                       "frames": sm["frames"], "dev_seed": DEV_SEED,
                       "heldout_seed": HELDOUT_SEED,
                       "run_seconds": args.seconds})
    return books, e2e, layers, ledgers, info, provenance


def print_human(args, books, e2e, layers, ledgers, info, provenance):
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(f"records={info['records']} frames={info['frames']} "
          f"mirror_drop_rate={info['mirror_drop_rate']:.4f} "
          f"pcap_bytes={info['pcap_bytes']} "
          f"query_samples={info['query_samples']} "
          f"query_passes={info['query_passes']} "
          f"setup_samples_s={info['setup_samples_s']}")
    print(f"attempted={books.attempted} failed={books.failed} "
          f"error_frac={info['error_frac']:.6g} correct={books.correct}")
    for p in books.problems:
        print("  problem: " + p)
    print("end-to-end" + (" (untraced iterations of the per-stage runs; "
                          "peak_rss_mb is the largest stage's):"
                          if args.trace else ":"))
    for name, unit in END_TO_END:
        print(f"  {name:<28} {e2e[name]:>16.6g} {unit}")
    if not args.trace:
        return
    print("per-layer (0 = layer not exercised by this workload):")
    for name, unit in PER_LAYER:
        print(f"  {name:<36} {layers[name]:>16.6g} {unit}")
    for stage, ledger in ledgers:
        rows = sorted(ledger["layers"].items(), key=lambda kv: -kv[1])
        total = sum(v for _, v in rows)
        wall = ledger["wall_ms"]
        kind = ("single-threaded: self times tile the wall"
                if ledger["serial"] else "threads overlap: busy times, not tiled")
        print(f"ledger {stage} (ms per iteration; {kind}):")
        for name, ms in rows:
            print(f"  {name:<40} {ms:>12.3f}  {100 * ms / wall:6.1f}%")
        print(f"  {'sum of layers':<40} {total:>12.3f}")
        print(f"  {'phase wall':<40} {wall:>12.3f}")
        print(f"  largest layer: {rows[0][0]}")


def terminate(signum, _frame):
    # Raising here makes subprocess.run kill and reap the running child;
    # the work directory is removed on the way out.
    raise BenchError(f"terminated by signal {signum}")


def main():
    signal.signal(signal.SIGTERM, terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    help="eecs-research, campus-email or eecs-query")
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check the pass decorator and traced/untraced "
                         "identity on miniature workloads, then exit")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
        "perfbench")
    work = None
    try:
        exe = build(build_dir)
        run = Runner(exe, time.monotonic() + RUN_DEADLINE_S)
        tag = "selftest" if args.selftest else f"{args.workload}-{args.seed}"
        work = os.path.join(build_dir, f"work-{tag}-{os.getpid()}")
        os.makedirs(work)
        args.work = work
        if args.selftest:
            out = run("selftest", "--dir", work)
            print(json.dumps(out))
            return 0 if out.get("failures") == 0 else 1
        books, e2e, layers, ledgers, info, provenance = run_workload(args, run)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        if work:
            shutil.rmtree(work, ignore_errors=True)

    print_human(args, books, e2e, layers, ledgers, info, provenance)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    values = layers if args.trace else e2e
    result = {
        "correct": books.correct,
        "attempted": books.attempted,
        "failed": books.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
