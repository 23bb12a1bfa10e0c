#!/usr/bin/env python3
"""Record one benchmark-trajectory entry per workload.

Runs perfbench (perfbench/run.py) for seeds 1..5 x each workload x
--trace 0 and --trace 1 on one checkout, each run as long as
BENCHMARK.json's run_seconds, then appends one entry per workload to
BENCH_<workload>.json at the root of this repo:

    python3 tools/bench_trajectory.py --label "what changed"
    python3 tools/bench_trajectory.py --checkout ../parent --label parent

An entry holds every run's value and the median, quartiles and IQR of
every metric over the seeds (end-to-end metrics from the --trace 0
runs, per-layer metrics from the --trace 1 runs), the checkout's git
sha, the git tree id of its src/ as measured (uncommitted edits
included; equal to `git rev-parse <commit>:src` of any commit with the
same sources), nproc, and the host's CPU steal share during the runs
(from /proc/stat; on a shared VM, steal is the first thing to check
when an entry looks off). Compare entries by their medians and IQRs,
never by a single run.

Exits non-zero if any run fails to produce a result; the entries of the
workloads that completed are still written.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("vm_boot", "tiered_read", "append_ingest")
SEEDS = list(range(1, 6))


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies of the aggregate `cpu` line of /proc/stat;
    (0, 0) where there is no /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0, 0
    # cpu user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user/nice.
    values = [int(v) for v in fields[1:9]]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values)


def git_ids(checkout: Path) -> tuple[str, str]:
    """(HEAD sha, with "-dirty" if tracked files differ; tree id of the
    working copy of src/), or "unknown" for either that git can't give."""
    def git(*args: str, env: dict | None = None) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True, check=True,
                              env=env).stdout.strip()
    try:
        sha = git("rev-parse", "HEAD")
        if git("status", "--porcelain", "--untracked-files=no"):
            sha += "-dirty"
    except (subprocess.CalledProcessError, OSError):
        return "unknown", "unknown"
    # Stage src/ into a throwaway index so the real one is left alone.
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        try:
            git("read-tree", "HEAD", env=env)
            git("add", "-A", "--", "src", env=env)
            src_tree = git("write-tree", "--prefix=src/", env=env)
        except (subprocess.CalledProcessError, OSError):
            src_tree = "unknown"
    return sha, src_tree


def summarize(samples: list[float], unit: str) -> dict:
    if len(samples) == 1:
        q1 = med = q3 = samples[0]
    else:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "unit": unit, "values": samples}


def run_one(checkout: Path, workload: str, seed: int, seconds: float,
            trace: int) -> dict | None:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    default=list(WORKLOADS))
    ap.add_argument("--checkout", type=Path, default=REPO,
                    help="checkout to benchmark (default: this one)")
    ap.add_argument("--label", default="",
                    help="free-text note stored with the entry")
    args = ap.parse_args()

    checkout = args.checkout.resolve()
    seconds = json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]
    sha, src_tree = git_ids(checkout)
    ok = True
    for workload in args.workloads:
        steal0, total0 = cpu_jiffies()
        results: dict[int, list[dict]] = {0: [], 1: []}
        failed_runs = 0
        for trace in (0, 1):
            for seed in SEEDS:
                r = run_one(checkout, workload, seed, seconds, trace)
                print(f"{workload} trace={trace} seed={seed}: "
                      f"{json.dumps(r) if r else 'FAILED'}",
                      file=sys.stderr)
                if r is None:
                    failed_runs += 1
                else:
                    results[trace].append(r)
        steal1, total1 = cpu_jiffies()
        if failed_runs:
            ok = False
        runs = results[0] + results[1]

        def stats(trace: int, skip: set[str]) -> dict:
            names = sorted({m for r in results[trace] for m in r["metrics"]}
                           - skip)
            out = {}
            for m in names:
                got = [r["metrics"][m] for r in results[trace]
                       if m in r["metrics"]]
                out[m] = summarize([g["value"] for g in got], got[0]["unit"])
            return out

        end_to_end = stats(0, set())
        entry = {
            "sha": sha,
            "src_tree": src_tree,
            "label": args.label,
            "date": datetime.datetime.now(datetime.timezone.utc)
                    .isoformat(timespec="seconds"),
            "nproc": os.cpu_count(),
            "cpu_steal_pct": round(100.0 * (steal1 - steal0)
                                   / max(1, total1 - total0), 3),
            "seconds": seconds,
            "seeds": SEEDS,
            "runs": len(runs),
            "failed_runs": failed_runs,
            "all_correct": all(r["correct"] for r in runs),
            "failed_ops": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": stats(1, set(end_to_end)),
        }
        out = REPO / f"BENCH_{workload}.json"
        history = json.loads(out.read_text()) if out.exists() else []
        history.append(entry)
        out.write_text(json.dumps(history, indent=1) + "\n")
        print(f"appended entry {len(history)} to {out}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
