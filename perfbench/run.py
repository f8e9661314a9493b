#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-web --seed 42 --seconds 38 --trace 0

Run from the root of a checkout. The benchmark is built in release mode
into .perfbench/build (kept apart from the developer's _build) and then
replaces this process, so its stdout is the benchmark's: "# " lines of
information and, last, one JSON result. Exits non-zero without a result
when the simulator's sources are not next to it.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".perfbench", "build")
TARGET = os.path.join("perfbench", "perfbench.exe")


def commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def no_aslr():
    """Run the benchmark without address-space randomisation.

    Some of the simulator's allocation depends on where the executable
    is loaded: with randomisation on, paper-web's allocated words vary
    by up to ~0.5% between identical runs. Off, they repeat exactly.
    The setting is inherited across exec; where it cannot be changed,
    the benchmark runs as is and says so in its provenance line.
    """
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | 0x0040000)  # ADDR_NO_RANDOMIZE
    except (OSError, AttributeError):
        pass


def build():
    """Build the benchmark; the build's own output goes to stderr."""
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write(f"perfbench: {needed} not found in {ROOT}; "
                             "run from a full checkout of the simulator\n")
            return None
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    # No shared dune cache: the build writes inside the checkout only.
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache=disabled", TARGET]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return None
    return os.path.join(BUILD_DIR, "default", TARGET)


def main():
    exe = build()
    if exe is None:
        return 2
    os.chdir(ROOT)
    no_aslr()
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:] + ["--commit", commit()])


if __name__ == "__main__":
    sys.exit(main())
