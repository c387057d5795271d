#!/usr/bin/env python3
"""End-to-end benchmark of hetsched: one command, one workload per run.

Builds the program under test (the hetsched libraries and `hetsched_cli`)
and the benchmark runner from this source tree, runs one workload, checks
every decision it saw, prints each metric with its unit, and prints one
JSON object as the last line of stdout.  See perfbench/README.md.

    python3 perfbench/run.py --workload svc-edf-wal [--seed 1] \
        [--seconds 20] [--trace 0|1]
    python3 perfbench/run.py --smoke     # every workload briefly, asserted

Run it from the root of the source tree.  Build output goes to
$CARGO_TARGET_DIR (default .bench_build) under the tree.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["svc-edf-wal", "svc-edf-xloop", "svc-deadline-auto", "batch-alpha"]
DEFAULT_SEED = 1
CONFIRM_SEED = 20261017  # for confirming a claim on unseen inputs
RUNNER_TIMEOUT_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build(out_dir):
    """Configures once, then builds the runner and the CLI (a no-op when
    nothing changed).  Returns (runner, cli) paths or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: %s is not a hetsched source tree (src/ is missing)" % ROOT)
        return None
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        rc = subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
            stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            log("error: configuring the benchmark failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.run(
        ["cmake", "--build", out_dir, "--target", "perfbench_runner",
         "hetsched_cli", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        log("error: building the benchmark failed")
        return None
    return (os.path.join(out_dir, "perfbench_runner"),
            os.path.join(out_dir, "hetsched", "tools", "hetsched_cli"))


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def reap_session(sid):
    """Kills whatever the runner left in its session (a server it could not
    stop) and waits until none of it is left."""
    try:
        os.killpg(sid, signal.SIGKILL)
        deadline = time.time() + 5
        while time.time() < deadline:
            os.killpg(sid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass


def run_workload(binaries, workload, seed, seconds, trace, smoke):
    """Runs one workload; returns the runner's report dict or None."""
    runner, cli = binaries
    workdir = os.path.join(build_dir(), "run")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)
    cmd = [runner, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--cli", cli, "--workdir", workdir]
    if smoke:
        cmd.append("--smoke")
    # Own session, so a timeout takes down the runner and its server alike.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("error: %s did not finish in %d s" % (workload, RUNNER_TIMEOUT_S))
        out = None
    reap_session(proc.pid)
    if out is None:
        return None
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log("error: runner exited %d on %s" % (proc.returncode, workload))
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("error: the runner's last line on %s is not a report: %s"
            % (workload, lines[-1][:200]))
        return None


def show(workload, report):
    for m in report["metrics"]:
        print("%-18s %-34s %16.6g %s"
              % (workload, m["name"], m["value"], m["unit"]))
    for c in report["checks_passed"]:
        print("%-18s check ok:   %s" % (workload, c))
    for c in report["check_failures"]:
        print("%-18s CHECK FAIL: %s" % (workload, c))
    for v in report["validity"]:
        print("%-18s note: %s" % (workload, v))


def smoke(binaries):
    """Every workload briefly, untraced and traced: every declared metric is
    emitted with its unit and every check passes."""
    e2e, layers = declared_metrics()
    e2e = dict(e2e, failed_ratio="ratio")
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            report = run_workload(binaries, workload, DEFAULT_SEED, 1, trace,
                                True)
            if report is None:
                problems.append("%s trace=%d: runner failed"
                                % (workload, trace))
                continue
            show(workload, report)
            got = {m["name"]: m["unit"] for m in report["metrics"]}
            for name, unit in (layers if trace else e2e).items():
                if got.get(name) != unit:
                    problems.append(
                        "%s trace=%d: metric %s [%s] missing or mislabelled"
                        % (workload, trace, name, unit))
            for c in report["check_failures"]:
                problems.append("%s trace=%d: check failed: %s"
                                % (workload, trace, c))
            if report["failed"] != 0:
                problems.append("%s trace=%d: %d failed operations"
                                % (workload, trace, report["failed"]))
    for p in problems:
        print("SMOKE FAIL: " + p)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input seed (default %d; confirm claims on %d)"
                    % (DEFAULT_SEED, CONFIRM_SEED))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload or --smoke is required")

    binaries = build(build_dir())
    if binaries is None:
        return 1
    if args.smoke:
        return smoke(binaries)

    report = run_workload(binaries, args.workload, args.seed, args.seconds,
                        bool(args.trace), False)
    if report is None:
        return 1
    show(args.workload, report)
    e2e, layers = declared_metrics()
    wanted = layers if args.trace else e2e
    got = {m["name"]: m for m in report["metrics"]}
    missing = [n for n in wanted if n not in got]
    if missing:
        log("error: runner did not report %s" % ", ".join(missing))
        return 1
    result = {
        "correct": not report["check_failures"],
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {n: {"value": got[n]["value"], "unit": got[n]["unit"]}
                    for n in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
