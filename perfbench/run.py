#!/usr/bin/env python3
"""Build the camult libraries and the perfbench driver, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tall|square|svc --seed N \
        --seconds S --trace 0|1

Everything is built from source under .bench_build/ in the repository root:
the libraries with the repository's own CMakeLists.txt and default options,
the driver with perfbench/CMakeLists.txt. The driver's last stdout line is
the JSON result; its exit code is this script's exit code. See README.md.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
LIB_TARGETS = ["camult_svc", "camult_sim", "camult_core"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    with open(log, "w") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(Path(log).read_text()[-4000:])
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no camult sources next to {BENCH_DIR.name}/ (need CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    lib = BUILD / "camult"
    bench = BUILD / "perfbench"
    BUILD.mkdir(exist_ok=True)
    if not (lib / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", ROOT, "-B", lib,
                    "-DCAMULT_BUILD_TESTS=OFF", "-DCAMULT_BUILD_BENCH=OFF",
                    "-DCAMULT_BUILD_EXAMPLES=OFF"], BUILD / "camult-configure.log")
    run_logged(["cmake", "--build", lib, "-j", jobs, "--target", *LIB_TARGETS],
               BUILD / "camult-build.log")
    if not (bench / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", BENCH_DIR, "-B", bench,
                    f"-DCAMULT_SOURCE_DIR={ROOT}", f"-DCAMULT_BINARY_DIR={lib}"],
                   BUILD / "perfbench-configure.log")
    run_logged(["cmake", "--build", bench, "-j", jobs],
               BUILD / "perfbench-build.log")
    return bench


def revision():
    """git revision when the tree is a git checkout, else a digest of the
    library sources (a checkout exported without .git still identifies the
    code it measured)."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return "git:" + proc.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    bench = build()
    env = dict(os.environ, PERFBENCH_REV=revision())
    proc = subprocess.run([bench / "perfbench", *sys.argv[1:]], cwd=ROOT, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
