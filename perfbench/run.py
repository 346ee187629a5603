#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <campaign|hunt|durable-sql> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build` in the checkout), runs one
measurement and passes its output through. The last stdout line is the
result object: `correct`, `attempted`, `failed` and `metrics`. Spans and a
summary with provenance go to `<target dir>/perfbench-out/`.

Exits non-zero, without a result line, when the build or the run fails,
and with code 1 (after the result line) when a correctness check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_timeout_s(seconds):
    """How long one run may take: the measured time twice over (a traced
    run alternates traced and untraced rounds until `seconds` have passed,
    then repeats round 0), plus set-ups and round-0 checks."""
    return 2 * seconds + 110


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            rel = os.path.relpath(f, ROOT)
            if rel.endswith("Cargo.lock") or "__pycache__" in rel:
                continue
            h.update(rel.encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["campaign", "hunt", "durable-sql"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    for needed in ["crates/coddb/Cargo.toml", "crates/core/Cargo.toml", "crates/sqlgen/Cargo.toml"]:
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0:
        fail("build failed", 3)

    provenance = {
        "commit": (os.path.isdir(os.path.join(ROOT, ".git"))
                   and command_output(["git", "rev-parse", "HEAD"])) or "unknown",
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "build_profile": "release",
    }
    out_dir = os.path.join(target, "perfbench-out")
    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir, "--provenance", json.dumps(provenance)]
    timeout = run_timeout_s(args.seconds)
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout} s", 4)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stdout.write(run.stdout)
        fail(f"run failed with exit code {run.returncode}", 5)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(run.stdout)
        fail("the run printed no result line", 5)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result keys {sorted(result)}", 5)
    # Pass the output through unchanged, the result line last.
    print(run.stdout.rstrip("\n"))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
