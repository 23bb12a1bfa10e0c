#!/usr/bin/env python3
"""End-to-end benchmark of a real blobseer_serverd over TCP loopback.

Builds the daemon and the benchmark driver from this checkout's sources
(perfbench/CMakeLists.txt), then runs one workload and prints one JSON
result line as the last line of stdout:

    python3 perfbench/run.py --workload vm_boot --seed 1 --seconds 20 --trace 0

Run it from the root of the checkout. Build output goes to
$CARGO_TARGET_DIR (default .bench_build), daemon data to .bench_run;
both are disposable. Workloads and metrics are described in
perfbench/README.md. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("vm_boot", "tiered_read", "append_ingest")
RUN_TIMEOUT_S = 160


def build(src: Path, build_dir: Path) -> None:
    """Configure (a no-op when nothing changed), then (re)build the
    daemon and the driver."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", str(src), "-B", str(build_dir), *gen],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "blobseer_serverd", "perfbench_driver"],
                   check=True, stdout=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    here = Path(__file__).resolve().parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "perfbench"
    work_dir = root / ".bench_run" / f"run-{os.getpid()}"
    serverd = build_dir / "blobseer" / "blobseer_serverd"
    driver = build_dir / "perfbench_driver"
    try:
        build(here, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(driver), "--serverd", str(serverd), "--work-dir",
           str(work_dir), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    # Own process group: the daemon the driver forks is in it too, so one
    # killpg stops everything whatever state the driver ends in.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed driver result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
