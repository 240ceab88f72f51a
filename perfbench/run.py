#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload lu|bt-fault|stream --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (a standalone CMake package compiling ../src) into
.bench_build/perfbench; later calls only rebuild what changed.  Build output
goes to stderr, so the last line of stdout is always the result object the
perfbench binary prints (or nothing, when the run could not start).  The
exit status is the binary's: 0 only when every job's outputs were correct.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
WORKLOADS = ("lu", "bt-fault", "stream")
BUILD_TYPE = "Release"
RUN_TIMEOUT_CAP_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def build():
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in (
        cache.read_text(errors="replace")
    ):
        shutil.rmtree(BUILD)  # configured from another checkout
    if not cache.exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD / "perfbench"


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """Identifies the measured code when the checkout is not a git tree."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    args = parse_args()
    windar_env = sorted(k for k in os.environ if k.startswith("WINDAR_"))
    if windar_env:
        die("refusing to run with " + ", ".join(windar_env) +
            " set: the benchmark measures library defaults only")
    if not (ROOT / "src").is_dir() or not any((ROOT / "src").rglob("*.cc")):
        die(f"library sources not found under {ROOT / 'src'}")
    if args.seconds <= 0:
        die("--seconds must be positive")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build failed: {e}")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT), "--commit", commit(),
           "--source-digest", source_digest()]
    timeout = min(RUN_TIMEOUT_CAP_S, 3 * args.seconds + 60)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        # subprocess.run killed and reaped the binary; a hang is a failure.
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        print(f"perfbench: run exceeded {timeout:.0f} s", file=sys.stderr)
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
        sys.exit(3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
