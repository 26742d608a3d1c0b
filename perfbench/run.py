#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Builds the otged library and the perfbench program from source (CMake,
Release) into .bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench
when that is set, then runs one workload. The program's standard output is
passed through unchanged; its last line is the JSON result. Records and
span dumps go to .bench_out/. Exit status: the program's (0 correct, 1 a
wrong answer or FAIL line), 2 when the build or the arguments fail.

--self-check builds, validates BENCHMARK.json against the benchmark
contract, runs every workload in both modes at a tiny scale for one
second and checks each result line against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "search",
                                       "query_engine.hpp")):
        print("perfbench: otged sources not found under src/",
              file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return None
        if r.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def src_digest():
    """sha256 over the measured sources (src/ and perfbench/), so a record
    names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def program_cmd(binary, workload, seed, seconds, trace, extra=()):
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", os.path.join(ROOT, ".bench_out"),
            "--git-rev", git_rev(), "--src-digest", src_digest(),
            *extra]


# ------------------------------------------------------------- self-check

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_contract(bench, problems):
    """Static checks of BENCHMARK.json against the benchmark contract."""
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(bench)}")
        return
    cmd = bench["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command must be 1..32 strings of <= 200 chars")
    if any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        problems.append("command names an absolute path or leaves the repo")
    paths = bench["paths"]
    if not (1 <= len(paths) <= 16 and
            all(PATH_RE.match(p) and ".." not in p.split("/")
                for p in paths)):
        problems.append("paths must be 1..16 relative directories")
    rs = bench["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    wl = bench["workloads"]
    if not 2 <= len(wl) <= 8:
        problems.append("need 2..8 workloads")
    for w in wl:
        if set(w) != {"name", "why"} or not NAME_RE.match(w["name"]) or \
                len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"bad workload entry {w}")
    e2e = bench["end_to_end"]
    if not 1 <= len(e2e) <= 16:
        problems.append("need 1..16 end-to-end metrics")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not NAME_RE.match(m["name"]) or \
                not UNIT_RE.match(m["unit"]) or \
                m["better"] not in ("lower", "higher") or \
                not 0 < m["bound"] <= 0.25:
            problems.append(f"bad end-to-end metric {m}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and
               m["better"] == "lower" for m in e2e):
        problems.append("end_to_end lacks setup_s (s, lower)")
    pl = bench["per_layer"]
    if not 1 <= len(pl) <= 128:
        problems.append("need 1..128 per-layer metrics")
    for m in pl:
        if set(m) != {"name", "unit", "better"} or \
                not NAME_RE.match(m["name"]) or \
                not UNIT_RE.match(m["unit"]) or \
                m["better"] not in ("lower", "higher"):
            problems.append(f"bad per-layer metric {m}")
    all_names = [w["name"] for w in wl] + [m["name"] for m in e2e + pl]
    if len(all_names) != len(set(all_names)):
        problems.append("a name is used twice")
    print(f"  contract: {len(wl)} workloads, {rs} s measured per run")


def check_result_line(line, expected, problems, label):
    try:
        res = json.loads(line)
    except ValueError:
        problems.append(f"{label}: last line is not JSON")
        return
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(res)}")
        return
    if res["correct"] is not True or res["failed"] != 0 or \
            not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append(f"{label}: correct={res['correct']} "
                        f"attempted={res['attempted']} "
                        f"failed={res['failed']}")
    got = [(k, v.get("unit")) for k, v in res["metrics"].items()]
    want = [(m["name"], m["unit"]) for m in expected]
    if got != want:
        problems.append(f"{label}: metrics {got} != BENCHMARK.json {want}")
    for k, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)) or \
                not math.isfinite(v["value"]):
            problems.append(f"{label}: {k} is not a finite number")


def self_check():
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_contract(bench, problems)
    binary = build()
    if binary is None:
        print("FAIL: build")
        return 1
    for w in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            label = f"{w['name']} trace {trace}"
            cmd = program_cmd(binary, w["name"], 1, 1, trace, ("--small",))
            r = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=RUN_TIMEOUT_S)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                problems.append(f"{label}: exit {r.returncode}")
                continue
            check_result_line(lines[-1], expected, problems, label)
            print(f"  {label}: ran, {len(lines)} lines")
    # Bad input must fail fast without a result line.
    r = subprocess.run([binary, "--workload", "no_such_workload", "--seed",
                        "1", "--seconds", "1", "--trace", "0"],
                       capture_output=True, text=True, timeout=60)
    if r.returncode == 0 or r.stdout.strip():
        problems.append("unknown workload did not fail cleanly")
    for p in problems:
        print(f"FAIL: {p}")
    print("self-check: " + ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None or args.seed is None or \
            args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if binary is None:
        return 2
    cmd = program_cmd(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the run exceeded its time limit", file=sys.stderr)
        return 2
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
