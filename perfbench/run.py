#!/usr/bin/env python3
"""Benchmark entry point: builds the harness, runs one workload, prints the result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lp-disk --seed 1 --seconds 24 --trace 0

The harness and the library are built from source into .bench_build/ (the
first run builds; later runs reuse the build). Human-readable lines come first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics; a traced run
also writes .bench_build/results/<workload>-seed<N>/trace.json (Chrome
trace-event format) and layers.tsv. The exit code is 0 only when every
correctness check passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

TIME_BUDGET_S = 170.0  # a run must end within 180 s
PHASES = {"lp-disk": ["measure"], "nc-disk": ["measure"], "serve-lp": ["prepare", "measure"]}

# End-to-end metric -> the harness metric that supplies it, per kind of workload.
# Training measures epochs (seconds, converted to ms); serving measures queries.
END_TO_END_SOURCES = {
    "training": {
        "setup_s": ("setup_s", 1.0),
        "latency_ms": ("epoch_s", 1e3),
        "tail_latency_ms": ("epoch_max_s", 1e3),
        "throughput_per_s": ("examples_per_s", 1.0),
        "quality": ("quality", 1.0),
        "peak_rss_mb": ("peak_rss_mb", 1.0),
    },
    "serving": {
        "setup_s": ("setup_s", 1.0),
        "latency_ms": ("serve_p50_ms", 1.0),
        "tail_latency_ms": ("serve_p90_ms", 1.0),
        "throughput_per_s": ("serve_max_qps", 1.0),
        "quality": ("quality", 1.0),
        "peak_rss_mb": ("peak_rss_mb", 1.0),
    },
}

# Every per-layer metric the traced run can produce, in the order of the
# README's layer map; a workload that never calls a layer shows "n/a".
LAYER_TABLE = [
    "policy.plan_s", "policy.partition_loads", "policy.sets",
    "storage.swap_s", "storage.prefetch_s", "storage.flush_s", "storage.read_mb",
    "storage.write_mb", "storage.inflight_peak", "storage.modeled_io_s",
    "storage.gather_s", "storage.apply_grads_s", "storage.init_image_s",
    "graph.partition_s", "graph.index_build_s", "graph.index_edges",
    "sampler.dense_s", "sampler.nodes_per_batch", "sampler.edges_per_batch",
    "sampler.negatives_s",
    "nn.encoder_fwd_s", "nn.encoder_bwd_s", "nn.decoder_s", "nn.head_s",
    "nn.task_head_s", "nn.optimizer_s",
    "pipeline.sample_busy_s", "pipeline.compute_wait_s", "pipeline.queue_occupancy",
    "pipeline.resizes", "compute.par_eff",
    "core.checkpoint_save_s", "core.checkpoint_peak_mb", "core.reported_epoch_s",
    "serve.server_ms", "serve.generator_lag_ms", "serve.queries_per_batch",
    "serve.swap_s", "serve.infer_s", "serve.gather_s", "serve.decode_s",
    "serve.replay_coverage",
    "replay.epoch_s", "replay.coverage", "trainer.epoch_s", "trace.overhead_frac",
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def source_digest(root):
    """Digest of the sources the harness is built from (the commit may be unknown)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_of(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def build(root, bench_dir, jobs):
    build_dir = os.path.join(bench_dir, "cmake")
    log_path = os.path.join(bench_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_harness",
                  "-j", str(jobs)])
    with open(log_path, "w") as log_file:
        for step in steps:
            if subprocess.run(step, cwd=root, stdout=log_file, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                return None
    return os.path.join(build_dir, "perfbench_harness")


def run_harness(args, cwd, env, deadline):
    """Runs one harness process; returns its report or None."""
    try:
        out = subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("harness timed out: " + " ".join(args))
        return None
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("harness printed no report (exit %d): %s" % (out.returncode, " ".join(args)))
        return None
    report["exit"] = out.returncode
    return report


def fmt(value):
    return "n/a" if value is None else "%.6g" % value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PHASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("run from the root of a checkout that holds the library sources")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    bench_dir = os.path.join(root, ".bench_build")
    os.makedirs(bench_dir, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    harness = build(root, bench_dir, nproc)
    if harness is None:
        log("build failed; see .bench_build/build.log")
        return 3

    name = "%s-seed%d" % (args.workload, args.seed)
    work = os.path.join(bench_dir, "work", "%s-%d" % (name, os.getpid()))
    out_dir = os.path.join(bench_dir, "results", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=work)  # any library temp file stays in the checkout
    # A first run in a checkout also builds; its phases still get two minutes.
    deadline = max(started + TIME_BUDGET_S, time.monotonic() + 120.0)

    reports = []
    try:
        reports.append(run_harness([harness, "--selftest"], root, env, deadline))
        for phase in PHASES[args.workload]:
            if reports[-1] is None:
                break
            reports.append(run_harness(
                [harness, "--workload", args.workload, "--phase", phase,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--work", work, "--out", out_dir],
                root, env, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = []
    attempted = failed = 0
    metrics, units, info = {}, {}, {}
    for report in reports:
        if report is None:
            failures.append("a harness process produced no report")
            continue
        attempted += report["attempted"]
        failed += report["failed"]
        failures += report["failures"]
        if report["exit"] != 0 and not report["failures"]:
            failures.append("harness exited with %d" % report["exit"])
        metrics.update({k: v["value"] for k, v in report["metrics"].items()})
        units.update({k: v["unit"] for k, v in report["metrics"].items()})
        info.update(report["info"])
    if len(reports) < 1 + len(PHASES[args.workload]):
        failures.append("workload did not run to completion")

    # The determinism fold must repeat whenever this seed runs again on the
    # same sources; a mismatch means the batch stream itself diverged.
    fold = info.get("determinism_fold")
    if fold is not None:
        ledger_path = os.path.join(bench_dir, "determinism.json")
        ledger = {}
        if os.path.exists(ledger_path):
            with open(ledger_path) as f:
                ledger = json.load(f)
        key = "%s seed=%d seconds=%d source=%s" % (args.workload, args.seed, args.seconds,
                                                   source_digest(root))
        attempted += 1
        if ledger.setdefault(key, fold) != fold:
            failed += 1
            failures.append("determinism fold %s differs from %s recorded earlier" %
                            (fold, ledger[key]))
        with open(ledger_path, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)

    print("# host: nproc=%s compiler=%s build=%s commit=%s source=%s" % (
        info.get("nproc"), info.get("compiler"), info.get("build_type"), commit_of(root),
        source_digest(root)))
    print("# workload %s seed %d seconds %d trace %d" % (args.workload, args.seed,
                                                       args.seconds, args.trace))
    for key in sorted(info):
        if key not in ("nproc", "compiler", "build_type"):
            print("#   %s: %s" % (key, info[key]))

    result = {}
    if args.trace == 0:
        sources = END_TO_END_SOURCES["serving" if args.workload == "serve-lp" else "training"]
        for metric in spec["end_to_end"]:
            source, scale = sources[metric["name"]]
            value = metrics.get(source)
            if value is None or not math.isfinite(value) or value <= 0:
                failures.append("end-to-end metric %s (%s) missing or not positive"
                                % (metric["name"], source))
                continue
            result[metric["name"]] = {"value": value * scale, "unit": metric["unit"]}
        # Every figure under the name the harness measured it by.
        for key in sorted(metrics):
            print("%-22s %-12s %s" % (key, fmt(metrics[key]), units[key]))
        print("%-22s %-12s %s" % ("failed_frac", fmt(failed / max(1, attempted)), "fraction"))
    else:
        with open(os.path.join(out_dir, "layers.tsv"), "w") as f:
            f.write("metric\tvalue\tunit\n")
            for key in LAYER_TABLE:
                f.write("%s\t%s\t%s\n" % (key, fmt(metrics.get(key)), units.get(key, "")))
                print("%-26s %-12s %s" % (key, fmt(metrics.get(key)), units.get(key, "")))
        traces = []
        for part in ("trace_train.json", "trace_serve.json"):
            path = os.path.join(out_dir, part)
            if os.path.exists(path):
                with open(path) as f:
                    traces += json.load(f)["traceEvents"]
                os.remove(path)
        with open(os.path.join(out_dir, "trace.json"), "w") as f:
            json.dump({"displayTimeUnit": "ms", "traceEvents": traces}, f)
        print("# trace: %s" % os.path.relpath(os.path.join(out_dir, "trace.json"), root))
        for metric in spec["per_layer"]:
            value = metrics.get(metric["name"])
            if value is None or not math.isfinite(value):
                failures.append("per-layer metric %s missing" % metric["name"])
                continue
            result[metric["name"]] = {"value": value, "unit": metric["unit"]}

    for failure in failures:
        print("# FAILED: %s" % failure)
    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed if correct else max(1, failed), "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
