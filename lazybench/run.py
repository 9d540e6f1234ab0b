#!/usr/bin/env python3
"""Build and run the lazydram benchmark.

    python3 lazybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds two variants of the benchmark binary
(plain, and with the simulator's `prof` phase profiler) under
$CARGO_TARGET_DIR (default .bench_build), then runs one workload:

* --trace 0: the plain build; prints the end-to-end metrics.
* --trace 1: the plain build once (its wall_s is the untraced reference),
  then the prof build, which times the calls into each layer; prints the
  per-layer metrics.

The last line of standard output is the result object. The workload inputs
are fixed inside lazydram-workloads, whose public API takes no seed; --seed
is recorded in the manifest line and changes nothing else.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig12_sweep", "gemm_dms", "mvt_lazy", "fig12_warm")


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """A digest of the simulator's sources (the checkout need not be a git
    repository), with the git revision in front when there is one."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "src"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.suffix in (".rs", ".toml"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    rev = f"src:{h.hexdigest()[:12]}"
    git = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return f"{git.stdout.strip()} {rev}" if git.returncode == 0 else rev


def build(target, variant, features):
    tdir = target / f"lazybench-{variant}"
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml"), "--target-dir", str(tdir)] + features
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die(f"building the {variant} benchmark failed")
    return tdir / "release" / "lazybench"


def run(binary, args):
    """Runs one benchmark process; returns its stdout lines and the parsed result."""
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        die(f"{binary.name} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"{binary.name} printed no result")
    return lines, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    knobs = sorted(k for k in os.environ if k.startswith("LAZYDRAM_"))
    if knobs:
        die(f"refusing to run with {', '.join(knobs)} set: the benchmark pins every "
            "simulator knob itself; unset it and run again")
    if a.seed < 0 or not a.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    plain = build(target, "plain", [])
    prof = build(target, "prof", ["--features", "prof"])
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    work = target / "lazybench-work" / str(os.getpid())
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--work-dir", str(work), "--rev", source_rev(), "--rustc", rustc or "unknown"]
    try:
        if a.trace == "0":
            lines, _ = run(plain, common + ["--trace", "0"])
        else:
            _, untraced = run(plain, common + ["--trace", "0"])
            wall = untraced["metrics"]["wall_s"]["value"]
            lines, traced = run(prof, common + ["--trace", "1", "--untraced-wall-s", repr(wall)])
            traced["attempted"] += untraced["attempted"]
            traced["failed"] += untraced["failed"]
            traced["correct"] = traced["correct"] and untraced["correct"]
            lines[-1] = json.dumps(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
