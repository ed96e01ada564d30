#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see README.md here).

Run from the root of a checkout:

    python3 perfbench/run.py --workload offline-apps --seed 1 --seconds 15 --trace 0

The first call configures and builds `perfbench` from ../src into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild incrementally. The build log goes to stderr. The run's
human-readable report goes to stdout and its last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A full record (provenance, every sample, per-app rows, per-layer bases) is
written to .bench_results/<workload>-seed<N>-trace<T>.json. The exit code
is non-zero when the build fails or any output check fails.

Other modes:

    python3 perfbench/run.py --write-plans
        regenerates perfbench/expected_plans/ from a fresh profile.
    python3 perfbench/run.py --compare BASE.json [...] --against NEW.json [...]
        compares the medians of two sets of records, metric by metric,
        against the bounds in BENCHMARK.json; refuses (exit 3) when the
        records come from different hosts.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline-apps", "replay-zipf", "replay-adapt")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "apps", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", out, "-j", "4"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_describe():
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                           capture_output=True, text=True)
    except OSError:
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none (not a git checkout)"


def provenance():
    return {
        "git_describe": git_describe(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def run(args):
    binary = build()
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    record = os.path.join(results, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--record", record, "--plans", os.path.join(HERE, "expected_plans")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("perfbench exited %d without a result" % proc.returncode)

    prov = provenance()
    with open(record) as f:
        rec = json.load(f)
    rec["provenance"] = prov
    with open(record, "w") as f:
        json.dump(rec, f, indent=2)
        f.write("\n")

    for line in lines[:-1]:
        print(line)
    print("provenance: " + " ".join("%s=%s" % kv for kv in prov.items()))
    print("record: " + os.path.relpath(record, ROOT))
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


def write_plans():
    binary = build()
    plans = os.path.join(HERE, "expected_plans")
    os.makedirs(plans, exist_ok=True)
    return subprocess.run([binary, "--workload", "offline-apps",
                           "--plans", plans, "--write-plans"]).returncode


def compare(base_paths, new_paths):
    def load(paths):
        return [json.load(open(p)) for p in paths]
    base, new = load(base_paths), load(new_paths)
    hosts = {(r["provenance"]["cpu_model"], r["provenance"]["nproc"])
             for r in base + new}
    if len(hosts) != 1:
        print("INVALID: the records come from different hosts or core counts:")
        for model, nproc in sorted(hosts, key=str):
            print("  %s, nproc=%s" % (model, nproc))
        return 3
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worse = 0
    print("%-14s %-16s %14s %14s %8s %6s" % ("workload", "metric", "base", "new",
                                             "change", "bound"))
    for workload in WORKLOADS:
        b = [r for r in base if r["workload"] == workload and not r["trace"]]
        n = [r for r in new if r["workload"] == workload and not r["trace"]]
        if not b or not n:
            continue
        for name, m in bounds.items():
            bv = statistics.median(r["metrics"][name]["value"] for r in b)
            nv = statistics.median(r["metrics"][name]["value"] for r in n)
            change = (nv - bv) / bv if bv else 0.0
            regress = change if m["better"] == "lower" else -change
            flag = " REGRESSION" if regress > m["bound"] else ""
            worse += bool(flag)
            print("%-14s %-16s %14.6g %14.6g %+7.1f%% %5.0f%%%s"
                  % (workload, name, bv, nv, 100 * change, 100 * m["bound"], flag))
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-plans", action="store_true")
    p.add_argument("--compare", nargs="+", metavar="BASE")
    p.add_argument("--against", nargs="+", metavar="NEW")
    args = p.parse_args()
    if args.write_plans:
        return write_plans()
    if args.compare or args.against:
        if not (args.compare and args.against):
            p.error("--compare needs --against")
        return compare(args.compare, args.against)
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
