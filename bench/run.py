"""Benchmark of the enaqt library, one workload at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all

Run from anywhere; the library is imported from the ``src`` directory next
to this one, so nothing needs installing. Each workload runs in its own
fresh process (workloads.py), because a process pool's speed depends on
what ran earlier in the same process. Set-up is timed from process start
to the moment the inputs are built, in ``SETUP_SAMPLES`` extra fresh
processes plus the measured one, and reported as the median.

With ``--trace 0`` the last line of output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics":
     {"setup_s": ..., "solves_per_s": ..., "peak_rss_mb": ...}}

and with ``--trace 1`` the metrics are the per-layer ones of layers.py.
The line before it holds the details: the environment record, the share
of failed solves, the check maxima and, when traced, each layer metric's
sample count. The BLAS thread variables are recorded, never set.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("sweep-tree5", "sweep-hypercube4-2w", "solve-hypercube6",
             "oracle-tree5")
SETUP_SAMPLES = 6
REFERENCE_SEED = 424242  # the seed reference.json holds results for


class ChildFailed(RuntimeError):
    pass


def _child(args, mode: str) -> tuple[float, str]:
    """Run one fresh workload process; (seconds until READY, rest of stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.communicate()[0]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first.strip() != "READY" or proc.returncode != 0:
        raise ChildFailed(f"{args.workload} {mode} process exited with "
                          f"{proc.returncode}")
    return ready, rest


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(args) -> tuple[dict, dict]:
    """(detail, result) of one workload run."""
    setups = [] if args.trace else [_child(args, "setup")[0]
                                    for _ in range(SETUP_SAMPLES)]
    ready, out = _child(args, "run")
    result = json.loads(out.strip().splitlines()[-1])
    detail = result.pop("detail")
    detail["environment"]["git_commit"] = _git_commit()
    if not args.trace:
        setups.append(ready)
        detail["setup_s_samples"] = setups
        result["metrics"] = {"setup_s": {"value": statistics.median(setups),
                                         "unit": "s"},
                             **result["metrics"]}
    return detail, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED,
                   help=f"workload seed; {REFERENCE_SEED} is also checked "
                        "against reference.json")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.child:
        import workloads
        return workloads.main(args)
    if not (SRC / "enaqt" / "__init__.py").is_file():
        print(f"error: no enaqt sources at {SRC}", file=sys.stderr)
        return 2
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = name
        try:
            detail, result = measure(args)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(detail))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
