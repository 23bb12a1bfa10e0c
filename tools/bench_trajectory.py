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

Steal-aware: each run's host CPU steal is measured on its own, and a run
whose steal exceeds 5% is re-run, at most twice; the last attempt is
the one kept. The entry's `run_log` lists every attempt (trace, seed,
steal, whether it was a re-run, whether it was kept, its wall time
including build, set-up and teardown, the driver's summary line with
its teardown time, its metrics). A run that outlasts run.py's timeout
shows up there as a failed attempt with a wall time near the limit.
Medians and quartiles come from the kept runs only, but `all_correct`
and `failed_ops` count every attempt, discarded ones included.

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
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("vm_boot", "tiered_read", "append_ingest")
SEEDS = list(range(1, 6))
STEAL_RERUN_PCT = 5.0
MAX_RERUNS = 2


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


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time stolen by the host between two cpu_jiffies()."""
    return round(100.0 * (after[0] - before[0])
                 / max(1, after[1] - before[1]), 3)


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
            trace: int) -> tuple[dict | None, str]:
    """(the run's result or None, the driver's summary line or "")."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stderr)
    summary = next((l for l in reversed(proc.stderr.splitlines())
                    if l.startswith("perfbench: ") and "teardown" in l), "")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, summary
    return json.loads(lines[-1]), summary


def run_kept(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int, log: list[dict]) -> dict | None:
    """Run once, re-running (at most MAX_RERUNS times) while the run's
    host steal exceeds STEAL_RERUN_PCT. Appends every attempt to `log`
    and returns the kept (last) attempt's result, None if it failed."""
    for attempt in range(1 + MAX_RERUNS):
        before = cpu_jiffies()
        t0 = time.monotonic()
        r, summary = run_one(checkout, workload, seed, seconds, trace)
        wall_s = round(time.monotonic() - t0, 1)
        steal = steal_pct(before, cpu_jiffies())
        last = (r is None or steal <= STEAL_RERUN_PCT
                or attempt == MAX_RERUNS)
        log.append({
            "trace": trace, "seed": seed, "steal_pct": steal,
            "rerun": attempt > 0, "kept": last,
            "wall_s": wall_s, "driver": summary,
            "correct": r["correct"] if r else None,
            "failed": r["failed"] if r else None,
            "metrics": ({m: v["value"] for m, v in r["metrics"].items()}
                        if r else None),
        })
        print(f"{workload} trace={trace} seed={seed} steal={steal}%"
              f"{' (rerun)' if attempt else ''}: "
              f"{json.dumps(r) if r else 'FAILED'}", file=sys.stderr)
        if last:
            return r


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
        start = cpu_jiffies()
        results: dict[int, list[dict]] = {0: [], 1: []}
        log: list[dict] = []
        failed_runs = 0
        for trace in (0, 1):
            for seed in SEEDS:
                r = run_kept(checkout, workload, seed, seconds, trace, log)
                if r is None:
                    failed_runs += 1
                else:
                    results[trace].append(r)
        end = cpu_jiffies()
        if failed_runs:
            ok = False
        attempts = [a for a in log if a["metrics"] is not None]

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
            "cpu_steal_pct": steal_pct(start, end),
            "seconds": seconds,
            "seeds": SEEDS,
            "runs": len(log),
            "reruns": sum(a["rerun"] for a in log),
            "failed_runs": failed_runs,
            "all_correct": all(a["correct"] for a in attempts),
            "failed_ops": sum(a["failed"] for a in attempts),
            "end_to_end": end_to_end,
            "per_layer": stats(1, set(end_to_end)),
            "run_log": log,
        }
        out = REPO / f"BENCH_{workload}.json"
        history = json.loads(out.read_text()) if out.exists() else []
        history.append(entry)
        out.write_text(json.dumps(history, indent=1) + "\n")
        print(f"appended entry {len(history)} to {out}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
