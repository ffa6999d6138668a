"""Self-test of the benchmark at tiny size (about 15 s on two cores).

    python3 perfbench/selftest.py

Runs a few cheap ops of every workload through the same pass, tracing and
report code as run.py, and checks that:

* every op passes its outside check, untraced and traced;
* every end-to-end and per-layer metric is reported with its unit, the last
  line is the result object the benchmark promises, and BENCHMARK.json names
  the same metrics, units and workloads;
* spans nest inside their parent and op, self times are >= 0 and sum to at
  most the op's wall time, each workload's own layer is called, and the
  tracer puts every original function back;
* a wrong result, a raising op and a wrong CLI output are counted as failed,
  and an edge probe past its deadline as an edge failure;
* ``python -m waylab`` prints the recorded bytes for a few CLI variants;
* in a directory holding only BENCHMARK.json and perfbench/, run.py fails
  without printing a result.

Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from waylab.discrimination import Criterion  # noqa: E402

OWN_LAYER = {"readout": ("graded", "discrimination", "models"), "convert_sweep": ("convert",),
             "circuits": ("circuits",), "cli_cold": ("cli",)}


def _size(label: str) -> float:
    match = re.search(r"\((?:nbar|M|m)=([0-9.e+]+)\)", label)
    return float(match.group(1)) if match else 0.0


def tiny(name: str, seed: int) -> workloads.Workload:
    """A few cheap ops of the real workload (circuit groups kept whole)."""
    full = workloads.WORKLOADS[name](seed, in_process=True)
    batch = full.batch
    if name == "readout":
        ops = ([op for op in batch if op.label.startswith("coherent") and _size(op.label) < 3][:4]
               + [op for op in batch if op.label.startswith(("uniform", "opt_phase"))
                  and _size(op.label) <= 4][:3]
               + [op for op in batch if op.label.startswith("way")][:6]
               + [op for op in batch if op.edge])
    elif name == "circuits":
        ops = [op for op in batch if _size(op.label) <= 3][:20]
    else:
        ops = batch[:12]
    return workloads.Workload(ops, full.warmup, full.cleanup)


def check_spans(tracer: spans.Tracer, errors: list, name: str) -> None:
    own = tracer.self_times()
    ops: dict[int, list] = {}
    for i, s in enumerate(tracer.spans):
        if own[i] < -1e-9:
            errors.append(f"{name}: span {s[0]} has self time {own[i]}")
        if s[3] >= 0:
            parent = tracer.spans[s[3]]
            if not (parent[1] <= s[1] <= s[2] <= parent[2] and parent[4] == s[4]):
                errors.append(f"{name}: span {s[0]} does not nest in {parent[0]}")
        ops.setdefault(s[4], []).append(i)
    for op_id, members in ops.items():
        roots = [i for i in members if tracer.spans[i][0] == "op"]
        if len(roots) != 1:
            errors.append(f"{name}: op {op_id} has {len(roots)} root spans")
            continue
        root = tracer.spans[roots[0]]
        inner = math.fsum(own[i] for i in members if i != roots[0])
        if inner > root[2] - root[1] + 1e-9:
            errors.append(f"{name}: op {op_id} self times {inner} exceed its wall time")


def check_report(name: str, res: dict, trace: int, errors: list) -> None:
    args = SimpleNamespace(workload=name, seed=1, seconds=0.0, trace=trace)
    lines, obj = run.report(args, [1.0, 1.1, 1.2], res)
    text = json.loads(json.dumps(obj))
    if set(text) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{name}: result keys {sorted(text)}")
    spec = spans.per_layer_spec() if trace else list(run.END_TO_END)
    if [(k, v["unit"]) for k, v in text["metrics"].items()] != spec:
        errors.append(f"{name}: metrics of trace={trace} differ from the spec")
    for metric, unit in spec:
        value = text["metrics"][metric]["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{name}: {metric} = {value!r}")
        if not any(line.split()[:1] == [metric] and f" {unit} " in line for line in lines):
            errors.append(f"{name}: {metric} not printed with its unit")


def check_workloads(errors: list) -> None:
    for name in run.WORKLOADS:
        work = tiny(name, seed=3)
        snapshot = {(m, p): spans._resolve(m, p)[2] for _, m, p in spans.WRAPPED}
        tracer = spans.Tracer()
        try:
            plain, traced = worker.measure(work, 0.0, tracer)
        finally:
            work.cleanup()
        for p in plain + traced:
            errors += [f"{name}: {f}" for f in p["failures"]]
        restored = all(spans._resolve(m, p)[2] is fn for (m, p), fn in snapshot.items())
        if not restored:
            errors.append(f"{name}: tracer left a wrapper installed")
        check_spans(tracer, errors, name)
        summary = tracer.summary()["functions"]
        for layer in OWN_LAYER[name]:
            if not any(e["calls"] for k, e in summary.items() if k.startswith(layer + ".")):
                errors.append(f"{name}: layer {layer} never called")
        res = worker.collect(work, plain, traced, tracer, in_process=True, import_repeats=1)
        check_report(name, res, 0, errors)
        check_report(name, res, 1, errors)
        print(f"ok  {name}: {len(work.batch)} ops, {len(tracer.spans)} spans")


def check_failures_counted(errors: list) -> None:
    good = workloads.Op("uniform_model.ud(M=2)",
                        workloads._late(workloads.models, "uniform_model", 2, Criterion.UD),
                        workloads._check_model(2 / 3))
    wrong = workloads.Op("wrong", lambda: SimpleNamespace(success_numeric=0.5), good.check)
    raising = workloads.Op("raising", lambda: 1 / 0, lambda _: None)
    digests = json.loads(workloads.DIGESTS.read_text())
    cli_wrong = workloads.Op("cli.wrong", lambda: (0, b"not the recorded output\n"),
                             workloads._check_cli("twirl/0", digests))
    slow_edge = workloads.Op("edge.slow", lambda: time.sleep(1.0), lambda _: None, edge=True)
    work = workloads.Workload([good, wrong, raising, cli_wrong, slow_edge], good)
    out = worker.run_pass(work)
    if len(out["failures"]) != 3 or len(out["edge_failures"]) != 1:
        errors.append(f"failures not counted: {out['failures']} {out['edge_failures']}")
    res = worker.collect(work, [out], [], None, in_process=True)
    _, obj = run.report(SimpleNamespace(workload="readout", seed=1, seconds=0.0, trace=0),
                        [1.0], res)
    if (obj["correct"], obj["attempted"], obj["failed"]) != (False, 4, 3):
        errors.append(f"result does not count the failures: {obj}")
    print("ok  wrong result, raising op and wrong CLI output counted; edge deadline enforced")


def check_cli_subprocess(errors: list) -> None:
    digests = json.loads(workloads.DIGESTS.read_text())
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        for key in ("convert_infeasible/0", "discriminate_effects/0", "circuit/0"):
            form, i = key.split("/")
            argv, files = workloads.cli_variant(form, int(i))
            paths = {}
            for name, content in files.items():
                paths[name] = str(Path(tmp) / f"{name}.json")
                Path(paths[name]).write_text(content)
            out = workloads.cli_subprocess([a.format(**paths) for a in argv])
            reason = workloads._check_cli(key, digests)(out)
            if reason:
                errors.append(f"python -m waylab, {key}: {reason}")
    print("ok  python -m waylab prints the recorded bytes")


def check_benchmark_json(errors: list) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != spans.per_layer_spec():
        errors.append("BENCHMARK.json per_layer differs from spans.per_layer_spec()")
    print("ok  BENCHMARK.json matches the metrics the benchmark prints")


def check_bare_directory(errors: list) -> None:
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "readout",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("run.py did not fail in a directory without the program")
    print("ok  run.py fails without printing a result where waylab is missing")


def main() -> int:
    signal.signal(signal.SIGALRM, worker._on_alarm)
    (BENCH / "out").mkdir(exist_ok=True)
    worker.warm_blas()
    errors: list[str] = []
    for check in (check_benchmark_json, check_failures_counted, check_workloads,
                  check_cli_subprocess, check_bare_directory):
        check(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("self-test passed" if not errors else f"self-test failed: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
