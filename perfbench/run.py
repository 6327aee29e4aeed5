#!/usr/bin/env python3
"""Benchmark of the tcfrag serving stack (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/ (and the library
from source) into .bench_build/perfbench on first use, runs one workload
through perfbench_driver, prints the configuration and every metric by
name and unit, and as its last line one JSON object:

    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits non-zero, without a result, when the build or the run fails, and
exits 1 after printing the result when any answer or check was wrong.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("uniform-resident", "hot-readwrite", "paged-wide-ds")
DRIVER_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import metrics  # noqa: E402


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring the two binaries up to date."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD, "build.ninja")) and \
                not os.path.exists(os.path.join(BUILD, "Makefile")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("configure failed (is this a tcfrag source checkout?)")
        jobs = str(os.cpu_count() or 1)
        if subprocess.call(["cmake", "--build", BUILD, "-j", jobs, "--target",
                            "perfbench_server", "perfbench_driver"],
                           stdout=log, stderr=subprocess.STDOUT) != 0:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            fail("build failed; log in " + log_path)


def run_driver(args, workdir):
    raw_path = os.path.join(workdir, "raw.json")
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(BUILD, "perfbench_server"),
           "--workdir", workdir, "--out", raw_path]
    # Own process group, so a timeout or a signal stops the driver and the
    # server it started together.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(3)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        rc = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("driver timed out")
    if rc != 0:
        # A driver that gave up may leave its server behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        fail("driver failed with exit code %d" % rc)
    with open(raw_path) as f:
        return json.load(f)


def print_config(raw):
    c = raw["config"]
    print("perfbench %s seed=%d seconds=%g (graph seed %d)" % (
        c["workload"], c["seed"], c["seconds"], c["graph_seed"]))
    print("  graph: %d nodes, %d edges, %d clusters in a ring, %d edges per link" % (
        c["nodes"], c["edges"], c["clusters"], c["link_edges"]))
    print("  fragmentation: %s, %d fragments, %d disconnection sets, "
          "avg DS %.2f nodes, %d border nodes" % (
              c["fragmenter"], c["fragments"], c["disconnection_sets"],
              c["avg_ds_nodes"], c["border_nodes"]))
    print("  storage: %d shortcut tuples in %d pages of %d bytes, %s open, "
          "%d pool frames (%d bytes), file %d bytes" % (
              c["shortcut_tuples"], c["shortcut_pages"], c["page_size"],
              c["open_mode"], c["pool_frames"], c["pool_budget_bytes"],
              raw["db_bytes"]))
    print("  server: max_batch=%d max_wait_ms=%g flush_workers=%d "
          "admission_shards=%d queue_capacity=%d" % (
              c["max_batch"], c["max_wait_ms"], c["flush_workers"],
              c["admission_shards"], c["queue_capacity"]))
    print("  loops: bulk %d pipelined connections x %d in flight for %.1f s; "
          "interactive %d blocking callers, 0-%g ms think time, for %.1f s; "
          "1 updater, %g ms pause, %s%s" % (
              c["bulk_connections"], c["bulk_depth"], c["bulk_s"], c["callers"],
              c["max_think_ms"], c["interactive_s"], c["update_pause_ms"], c["updates"],
              " (%.1f s)" % c["update_s"] if c["update_s"] else ""))
    print("  mix: %s%s; %d builds, %d server starts, one in every %d (%d in "
          "all) serving one round of the read phases; nproc=%d" % (
              c["mix"], " (%d hot pairs)" % c["hot_pairs"] if c["hot_pairs"] else "",
              c["builds"], c["setup_starts"], c["setup_starts"] // c["rounds"],
              c["rounds"], c["nproc"]))


def check(raw):
    """All correctness checks of one run; returns a list of failures."""
    ops, checks = raw["ops"], raw["checks"]
    problems = []
    for key in ("failed", "refused", "wrong"):
        if ops[key]:
            problems.append("%d %s operations" % (ops[key], key))
    if not checks["epochs_monotonic"]:
        problems.append("update ack epochs decreased")
    if checks["script_acked"] == 0:
        problems.append("no update was acknowledged")
    mismatches = sum(c["replay_mismatches"] for c in metrics.servers(raw)) + \
        checks["inproc_replay_mismatches"]
    if mismatches:
        problems.append("%d replayed answers differ from served ones" % mismatches)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    # Keep the compiler's and the programs' scratch files inside the
    # checkout as well.
    os.environ["TMPDIR"] = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    build()
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    try:
        started = time.time()
        raw = run_driver(args, workdir)
        if args.trace:
            spans = [metrics.read_spans(raw[key]) if raw[key] else [] for key in
                     ("server_spans", "update_spans", "inproc_spans", "driver_spans")]
            values, notes = metrics.per_layer(raw, *spans)
            ungated = {}
            catalogue = metrics.PER_LAYER
        else:
            values, ungated, notes = metrics.end_to_end(raw)
            catalogue = metrics.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_config(raw)
    ops = raw["ops"]
    print("  operations: %d attempted, %d failed, %d refused, %d wrong; "
          "error_rate=%g; update script: %d ops acked, %d-pair check after "
          "the last ack" % (ops["attempted"], ops["failed"], ops["refused"],
                            ops["wrong"], metrics.error_rate(ops),
                            raw["checks"]["script_acked"],
                            raw["checks"]["check_pairs"]))
    for key, note in sorted(notes.items()):
        print("  %s: %s" % (key, json.dumps(note, sort_keys=True)))
    names = [entry[0] for entry in catalogue]
    if sorted(values) != sorted(names):
        fail("metric set differs from the catalogue: %s" %
             sorted(set(values) ^ set(names)))
    for name in names:
        print("metric %s = %.6g %s" % (name, values[name], metrics.UNITS[name]))
    for name, value in ungated.items():
        print("metric %s = %.6g %s (no bound; traced runs report it)" % (
            name, value, metrics.UNITS[name]))
    print("  run took %.1f s" % (time.time() - started))

    problems = check(raw)
    for p in problems:
        print("perfbench: CHECK FAILED: " + p, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": int(ops["attempted"]),
        "failed": int(ops["failed"] + ops["refused"] + ops["wrong"]),
        "metrics": {name: {"value": values[name], "unit": metrics.UNITS[name]}
                    for name in names},
    }
    print(json.dumps(result))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
