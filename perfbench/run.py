"""waylab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload readout --seed 1 --seconds 15 --trace 0

Run from the repository root (any checkout that holds ``src/waylab`` and
``tests/oracles.py``).  Set-up is timed in three fresh processes (two probes
and the worker that then runs the workload); the worker reports raw numbers
and this script turns them into metrics.  It prints a table, then as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

WORKLOADS = ("readout", "convert_sweep", "circuits", "cli_cold")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 2          # plus the worker itself: set-up is a median of three
RUN_LIMIT_S = 170         # a run ends within 180 s or fails
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout()


def blas_env() -> dict:
    """The child environment: waylab from src/, BLAS threads capped at nproc."""
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def spawn(args, probe: bool) -> tuple[float, dict | None]:
    """Start a worker; returns (seconds from spawn to READY, its result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--probe"] if probe else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=blas_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready, result = None, None
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        if proc.poll() is None:      # SIGTERM lets the worker stop its own children
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if code != 0 or ready is None or (result is None and not probe):
        raise RuntimeError(f"worker exited with code {code} "
                           f"({'no READY line' if ready is None else 'no result'})")
    return ready, result


def tail_percentile(batch_ops: int) -> float:
    """Highest listed percentile with at least ten of the batch's ops beyond it."""
    return next((p for p in TAIL_PERCENTILES if batch_ops * (1 - p / 100) >= 10),
                TAIL_PERCENTILES[-1])


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description="waylab benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [ROOT / "src" / "waylab" / "__init__.py", ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from a waylab checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        setup = [spawn(args, probe=True)[0] for _ in range(SETUP_PROBES)]
        ready, res = spawn(args, probe=False)
        setup.append(ready)
    except (RunTimeout, RuntimeError) as exc:
        print(f"error: {str(exc) or f'run passed its {RUN_LIMIT_S} s limit'}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    lines, result = report(args, setup, res)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def report(args, setup: list[float], res: dict) -> tuple[list[str], dict]:
    """The printed table and the final result object of one run."""
    # one latency per op of the batch: its median over the passes, so that one
    # slow pass does not move the percentiles
    lat_ms = [statistics.median(op) * 1e3 for op in zip(*res["latencies"])]
    passes = len(res["latencies"])
    pct = tail_percentile(res["batch_ops"])
    beyond = sum(t > nearest_rank(lat_ms, pct) for t in lat_ms)
    failed, attempted = len(res["failures"]), res["attempted"]
    e2e = {
        "setup_s": (statistics.median(setup), len(setup), "median of fresh processes"),
        "wall_s": (statistics.median(res["walls"]), passes,
                   f"median pass of {res['batch_ops']} ops + {res['edge_probes']} edge probes"),
        "op_p50_ms": (statistics.median(lat_ms), len(lat_ms),
                      f"median over ops of each op's median over {passes} passes"),
        "op_tail_ms": (nearest_rank(lat_ms, pct), len(lat_ms),
                       f"p{pct:g} of the same, {beyond} ops beyond"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, 1,
                        "largest child process" if args.workload == "cli_cold"
                        and not args.trace else "worker process"),
        "fail_ratio": (failed / attempted, attempted, f"{failed} of {attempted} ops failed"),
    }
    units = dict(END_TO_END, fail_ratio="1")
    shown = ["fail_ratio"] if args.trace else units
    rows = [(name, *e2e[name], units[name]) for name in shown]
    if args.trace:
        per_layer = res["per_layer"]
        rows += [(name, per_layer[name], res["traced_passes"], "per traced pass", unit)
                 for name, unit in spans.per_layer_spec()]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
              **res["library"], "commit": git_commit()}
    lines = ["waylab benchmark  " + "  ".join(f"{k}={v}" for k, v in record.items()),
             f"{'metric':52} {'value':>14} {'unit':6} {'samples':>7}  note"]
    lines += [f"{name:52} {value:14.6g} {unit:6} {samples:7d}  {note}"
              for name, value, samples, note, unit in rows]
    lines += [f"FAILED {reason}" for reason in res["failures"][:20]]
    if res["edge_probes"]:
        edge = res["edge_failures"]
        lines.append(f"edge probes: {len(edge)} of {res['edge_probes']} failed in the first "
                     f"pass ({res['edge_failures_at_seed']} at the commit that defined this "
                     "benchmark)")
        lines += [f"  edge {reason}" for reason in edge]
    if "spans_file" in res:
        lines.append(f"spans: {res['spans_file']}")

    if args.trace:
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in spans.per_layer_spec()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}
    return lines, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
