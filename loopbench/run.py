#!/usr/bin/env python3
"""Closed-loop benchmark runner.

Usage, from the repository root:

    python3 loopbench/run.py --workload credit-paper --seed 2002 --seconds 10 --trace 0

Builds the `loopbench` binary from source (release profile, offline,
into $CARGO_TARGET_DIR or `.bench_build`), then:

* with `--trace 0`, times the set-up SETUP_LAUNCHES times — each a fresh
  process that starts, builds its inputs and runs one warm-up iteration —
  and reports the median as `setup_s` next to the binary's end-to-end
  metrics; `peak_rss_mb` becomes the median of the peak resident sets of
  all the run's processes (the set-up launches and the measuring one),
  since one process's peak moves with how many allocator arenas its
  threads happened to create;
* with `--trace 1`, reports the binary's per-layer metrics.

The last line of standard output is the JSON result. Exits 2 when the
eqimpact workspace is not next to this directory, 1 when the build or
the run fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_LAUNCHES = 3
# Per-process limits, seconds: a set-up launch, and the measured run on
# top of its --seconds.
SETUP_TIMEOUT = 60
RUN_SLACK = 120


def fail(message, code=1):
    print(f"loopbench: {message}", file=sys.stderr)
    return code


def command_output(cmd, env):
    """First line of a command's output, or 'unknown' when it fails."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def source_digest():
    """SHA-256 over the workspace's manifests and Rust sources (a git rev
    is not available in every checkout)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml")]
    for top in ("crates", "src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml"))]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        return fail(f"no eqimpact workspace at {ROOT} (Cargo.toml and crates/ are missing)", 2)

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    # Keep git from searching above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)

    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return fail(f"cargo build failed with status {build.returncode}")

    binary = os.path.join(target, "release", "loopbench")
    base = [binary, "--workload", args.workload, "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.seed is not None:
        base += ["--seed", str(args.seed)]

    setups = []
    peaks = []
    if args.trace == 0:
        for _ in range(SETUP_LAUNCHES):
            start = time.perf_counter()
            try:
                launch = subprocess.run(base + ["--setup-only"], cwd=ROOT, env=env,
                                        stdout=subprocess.PIPE, text=True,
                                        timeout=SETUP_TIMEOUT)
            except subprocess.TimeoutExpired:
                return fail("set-up launch timed out")
            setups.append(time.perf_counter() - start)
            if launch.returncode != 0:
                return fail(f"set-up launch exited with status {launch.returncode}")
            peaks += [float(line.split()[1]) for line in launch.stdout.splitlines()
                      if line.startswith("peak_rss_mb ")]

    try:
        run = subprocess.run(base, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_SLACK)
    except subprocess.TimeoutExpired:
        return fail("measured run timed out")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return fail(f"measured run exited with status {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return fail(f"measured run ended without a JSON result: {lines[-1]!r}")

    rustc = command_output(["rustc", "--version"], env)
    rev = command_output(["git", "rev-parse", "--short=12", "HEAD"], env)
    print(f"host: nproc={os.cpu_count()} rustc=\"{rustc}\" git_rev={rev} "
          f"source_digest={source_digest()} profile=release seed={'default' if args.seed is None else args.seed}")
    for line in lines[:-1]:
        print(line)
    if setups:
        setup_s = statistics.median(setups)
        print(f"setup_s: median {setup_s:.6f} s of {len(setups)} launches "
              f"({', '.join(f'{s:.4f}' for s in setups)})")
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        rss = result["metrics"].get("peak_rss_mb")
        if rss is not None:
            peaks.append(rss["value"])
            rss["value"] = statistics.median(peaks)
            print(f"peak_rss_mb: median {rss['value']:.4f} MB of {len(peaks)} processes "
                  f"({', '.join(f'{p:.2f}' for p in peaks)})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
