#!/usr/bin/env python3
"""Builds and runs charlie's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper-grid --seed 12648430 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it records
the host context. The exit code is nonzero when the build or any check
fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run that has not finished after this long is stopped.
RUN_TIMEOUT_S = 170


def clean_env():
    """The environment minus every CHARLIE_* knob, so nothing outside the
    benchmark's arguments changes what the program simulates or how."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHARLIE_")}
    env["CARGO_TARGET_DIR"] = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    )
    return env


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the sources and manifests the benchmark builds, so two
    results from trees without git metadata can still be told apart."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".json", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    for name in ("Cargo.toml", "Cargo.lock"):
        path = os.path.join(ROOT, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def host_context(load_before):
    """What the result was measured on. A context that cannot be read is
    reported as such; it never fails a run that passed its checks."""
    try:
        return {
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": list(load_before),
            "loadavg_after": list(os.getloadavg()),
            "git_rev": command_output(["git", "rev-parse", "HEAD"]),
            "rustc": command_output(["rustc", "-V"]),
            "source_sha256": source_digest(),
        }
    except (OSError, ValueError) as e:
        return {"error": str(e)}


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def self_test(env):
    cmd = ["cargo", "test", "--release", "--offline", "--manifest-path", MANIFEST]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--refs", type=int, help="override the pinned refs/proc")
    ap.add_argument("--self-test", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args()
    env = clean_env()
    if args.self_test:
        return self_test(env)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    load_before = os.getloadavg()
    rc = build(env)
    if rc != 0:
        print(f"error: building the benchmark failed (exit {rc})", file=sys.stderr)
        return rc
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "charlie-perfbench")
    scratch = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    argv = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--pins", os.path.join(HERE, "pins.json"),
        "--scratch", scratch,
        "--golden", os.path.join(ROOT, "experiments_output.txt"),
    ]
    if args.refs:
        argv += ["--refs", str(args.refs)]
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, errors="replace"
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        out = None
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(scratch))
    except OSError:
        pass  # another run still uses it
    if out is None:
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 and not (lines and lines[-1].startswith('{"correct"')):
        return proc.returncode
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"context": host_context(load_before)}))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
