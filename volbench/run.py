#!/usr/bin/env python3
"""Builds the volbench binary from this checkout's sources and runs one workload.

    python3 volbench/run.py --workload serve-leaf|serve-ball \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository.  The first run configures and builds
volbench/CMakeLists.txt (which compiles ../src) in Release mode under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs rebuild
only what changed.  Build output goes to standard error, so the last line of
standard output stays volbench's JSON result.  Exits with volbench's
exit code, or 2 if the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds volbench; returns the executable or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "volbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        return None
    exe = os.path.join(build_dir, "volbench")
    return exe if os.access(exe, os.X_OK) else None


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    exe = build(os.path.join(build_root, "volbench"))
    if exe is None:
        print("volbench: build failed", file=sys.stderr)
        return 2
    # Unix socket paths are short; pass the work directory relative to ROOT.
    work_dir = os.path.relpath(os.path.join(build_root, "run"), ROOT)
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:] + ["--work-dir", work_dir], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
