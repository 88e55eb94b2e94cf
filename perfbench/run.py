#!/usr/bin/env python3
"""Build the benchmark driver from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <testbed_sweep|dense1k|city_hopping> \
        --seed <n> --seconds <s> --trace <0|1>

The repository's top-level CMake project is configured unchanged (default
build type; tests, benches and examples off) into .bench_build/bicord, and
only the bicord_* libraries are built. The driver in perfbench/ is a CMake
project of its own, built into .bench_build/perfbench against those
libraries. Both steps are no-ops when nothing changed. Build output goes to
.bench_build/*.log and, on failure, to stderr; stdout carries only the
driver's output, whose last line is the JSON result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(check, detail):
    print(f"perfbench: check failed: {check}: {detail}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log_path, check):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail(check, f"'{' '.join(cmd)}' exited {proc.returncode} (log: {log_path})")


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_rev():
    """git revision when the tree is a git checkout, plus a digest of src/."""
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    rev = "src-sha256:" + digest.hexdigest()[:12]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            rev = "git:" + git.stdout.strip() + " " + rev
    return rev


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("build", f"no repository sources (CMakeLists.txt, src/) in {ROOT}")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    lib_dir = os.path.join(out, "bicord")
    drv_dir = os.path.join(out, "perfbench")
    log = os.path.join(out, "build.log")

    if not os.path.isfile(os.path.join(lib_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", lib_dir, "-DBICORD_BUILD_TESTS=OFF",
                    "-DBICORD_BUILD_BENCHES=OFF", "-DBICORD_BUILD_EXAMPLES=OFF"],
                   log, "build: configure repository")
    run_logged(["cmake", "--build", lib_dir, "--target", "bicord_coex", "-j", jobs],
               log, "build: repository libraries")
    # The top-level CMakeLists turns an empty build type into RelWithDebInfo
    # without caching it; the driver is compiled the same way.
    build_type = cache_value(lib_dir, "CMAKE_BUILD_TYPE") or "RelWithDebInfo"
    if not os.path.isfile(os.path.join(drv_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", drv_dir, "-DBICORD_SOURCE_DIR=" + ROOT,
                    "-DBICORD_BUILD_DIR=" + lib_dir, "-DCMAKE_BUILD_TYPE=" + build_type],
                   log, "build: configure driver")
    run_logged(["cmake", "--build", drv_dir, "-j", jobs], log, "build: driver")
    return os.path.join(drv_dir, "perfbench")


def main():
    binary = build()
    proc = subprocess.run([binary] + sys.argv[1:] + ["--rev", source_rev()], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
