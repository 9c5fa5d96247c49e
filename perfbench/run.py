#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Any further flags (--scale smoke,
--corrupt-digest) go to the binary unchanged. A traced run writes its
spans to <build>/traces/<workload>-seed<N>.json.

Exit status: the binary's (0 ok, 1 output check failed, 2 bad
arguments); 3 when the build fails, in which case nothing is printed on
stdout.
"""

import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory):
    """Configure (once) and build the binary; return its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", directory, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return None
    return os.path.join(directory, "perfbench")


def main(argv):
    directory = build_dir()
    binary = build(directory)
    if binary is None or not os.path.exists(binary):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    args = list(argv)

    def value(flag, default):
        i = args.index(flag) if flag in args else -1
        return args[i + 1] if 0 <= i < len(args) - 1 else default

    if value("--trace", "0") == "1" and "--trace-out" not in args:
        traces = os.path.join(directory, "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{value('--workload', 'unknown')}-seed{value('--seed', '1')}"
        name = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
        args += ["--trace-out", os.path.join(traces, name + ".json")]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
