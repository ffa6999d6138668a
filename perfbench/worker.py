"""One benchmark process: set up a workload, run its passes, report raw numbers.

run.py starts this script in a fresh interpreter.  Set-up is ``import
waylab``, a BLAS/LAPACK warm-up, input generation and one warm-up op; the line
``READY`` marks its end (run.py times set-up from spawn to that line).  With
``--probe`` the process then exits.  Otherwise it runs whole passes of the
workload's batch, one op at a time (a closed loop with one caller), until the
next pass would end after ``--seconds``, and prints one ``RESULT <json>`` line.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
record spans (see spans.py) and the result carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import waylab  # noqa: E402,F401
import spans  # noqa: E402
import workloads  # noqa: E402


class Deadline(BaseException):
    """Raised by SIGALRM when an op passes its deadline.

    A BaseException, so that no ``except Exception`` inside the library can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise Deadline()


def run_op(op: workloads.Op, call) -> tuple[float, str | None]:
    """Time one call under the op's deadline, then check it untimed."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return time.perf_counter() - t0, f"passed its {op.deadline_s:g} s deadline"
    except Exception as exc:  # a failing op is counted, the run goes on
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, op.check(result)
    except Exception as exc:
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


def run_pass(workload: workloads.Workload, tracer: spans.Tracer | None = None) -> dict:
    """One pass over the batch.  ``wall`` is the sum of the timed calls."""
    out = {"wall": 0.0, "latencies": [], "failures": [], "edge_failures": []}
    for i, op in enumerate(workload.batch):
        call = op.call if tracer is None else (lambda i=i, op=op: tracer.op(i, op.call))
        elapsed, reason = run_op(op, call)
        out["wall"] += elapsed
        if op.edge:
            if reason:
                out["edge_failures"].append(f"{op.label}: {reason}")
            continue
        out["latencies"].append(elapsed)
        if reason:
            out["failures"].append(f"{op.label}: {reason}")
    return out


def measure(workload, seconds: float, tracer: spans.Tracer | None) -> tuple[list, list]:
    """Whole passes until the next one would end after ``seconds``.

    With a tracer, every untraced pass is followed by a traced one, after one
    untimed untraced pass that keeps first-pass costs out of the comparison.
    """
    plain, traced = [], []
    if tracer is not None:
        run_pass(workload)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(workload))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(workload, tracer))
            finally:
                tracer.uninstall()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return plain, traced


def warm_blas() -> None:
    """Take the one-off cost of the first mid-size BLAS/LAPACK calls here."""
    rng = np.random.default_rng(0)
    for n in (64, 200, 300, 500):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = a + a.conj().T
        np.linalg.eigvalsh(h)
        np.linalg.eigh(h)
        np.linalg.svd(h, compute_uv=False)
        h @ h


def _importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) / 1e6
    return out


def import_metrics(repeats: int = 3) -> dict[str, float]:
    """Fresh-interpreter start and import costs (medians of ``repeats``)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    py = sys.executable
    samples: dict[str, list] = {name: [] for name, _ in spans.IMPORT_METRICS}
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        p, q = Path(tmp) / "p.json", Path(tmp) / "q.json"
        p.write_text('{"0": 0.5, "3": 0.5}')
        q.write_text('{"0": 0.5, "1": 0.5}')
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([py, "-c", "pass"], env=env, check=True)
            samples["cli.interpreter_s"].append(time.perf_counter() - t0)
            cum = _importtime(subprocess.run(
                [py, "-X", "importtime", "-c", "import waylab"], env=env, check=True,
                stderr=subprocess.PIPE, text=True).stderr)
            samples["cli.import_s"].append(cum["waylab"])
            samples["cli.import_scipy_optimize_share"].append(
                cum.get("scipy.optimize", 0.0) / cum["waylab"])
            # the convert command needs the LP solver, however it is imported
            cum = _importtime(subprocess.run(
                [py, "-X", "importtime", "-m", "waylab", "convert", str(p), str(q)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True).stderr)
            samples["cli.import_scipy_optimize_s"].append(cum["scipy.optimize"])
    return {name: statistics.median(v) for name, v in samples.items()}


def write_spans(tracer: spans.Tracer, workload: str, seed: int) -> str:
    """Write the recorded spans and per-function totals; returns the path."""
    path = BENCH / "out" / f"spans-{workload}-seed{seed}.json"
    fields = ("name", "start", "end", "parent", "op_id", "error")
    path.write_text(json.dumps({"fields": fields, "spans": tracer.spans,
                                "self_s": tracer.self_times(),
                                "summary": tracer.summary()}))
    return str(path.relative_to(ROOT))


def library_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"blas": blas_name, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def collect(workload, plain: list, traced: list, tracer: spans.Tracer | None,
            in_process: bool, import_repeats: int = 3) -> dict:
    """The raw numbers run.py turns into metrics."""
    passes = plain + traced
    result = {
        "batch_ops": sum(not op.edge for op in workload.batch),
        "edge_probes": sum(op.edge for op in workload.batch),
        "walls": [p["wall"] for p in plain],
        "latencies": [p["latencies"] for p in plain],
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "edge_failures": plain[0]["edge_failures"],
        "edge_failures_at_seed": workloads.EDGE_FAILURES_AT_SEED,
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN).ru_maxrss,
        "library": library_record(),
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer, len(traced))
        layers.update(import_metrics(import_repeats))
        layers["trace.overhead_ratio"] = (statistics.median(p["wall"] for p in traced)
                                          / statistics.median(p["wall"] for p in plain) - 1.0)
        result["per_layer"] = layers
        result["traced_passes"] = len(traced)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)
    # on SIGTERM, unwind: subprocess.run stops a running CLI child on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    (BENCH / "out").mkdir(exist_ok=True)

    warm_blas()
    # cli_cold runs fresh processes, except in the traced run, which calls
    # waylab.cli.main in-process so that spans can be recorded
    in_process = args.workload != "cli_cold" or bool(args.trace)
    workload = workloads.WORKLOADS[args.workload](args.seed, in_process=in_process)
    try:
        _, reason = run_op(workload.warmup, workload.warmup.call)
        if reason:
            print(f"warm-up op failed: {reason}", file=sys.stderr)
            return 1
        gc.collect()
        gc.freeze()        # keep the benchmark's own objects out of later collections
        print("READY", flush=True)
        if args.probe:
            return 0

        tracer = spans.Tracer() if args.trace else None
        plain, traced = measure(workload, args.seconds, tracer)
        result = collect(workload, plain, traced, tracer, in_process)
        if tracer is not None:
            result["spans_file"] = write_spans(tracer, args.workload, args.seed)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        workload.cleanup()


if __name__ == "__main__":
    sys.exit(main())
