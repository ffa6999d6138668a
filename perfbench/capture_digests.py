"""Record the exit code and stdout sha256 of every CLI variant the cli_cold
workload can pick, into cli_digests.json beside this file.

Run it from the repository root, on the commit whose CLI output is the
reference (CLI output is meant to stay byte-identical across changes):

    PYTHONPATH=src python3 perfbench/capture_digests.py

It runs ``waylab.cli.main`` in-process; ``selftest.py`` checks that a fresh
``python -m waylab`` prints the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def capture() -> dict:
    out = {}
    with tempfile.TemporaryDirectory(dir=workloads.BENCH) as tmp:
        for form in workloads.CLI_FORMS:
            for i in range(workloads.CLI_POOL_SIZE):
                argv, files = workloads.cli_variant(form, i)
                paths = {}
                for name, text in files.items():
                    path = Path(tmp) / f"{name}.json"
                    path.write_text(text)
                    paths[name] = str(path)
                code, stdout = workloads.cli_in_process([a.format(**paths) for a in argv])
                if code != workloads.CLI_EXIT.get(form, 0):
                    raise SystemExit(f"{form}/{i}: exit {code}, README documents "
                                     f"{workloads.CLI_EXIT.get(form, 0)}")
                out[f"{form}/{i}"] = {"exit": code,
                                      "sha256": hashlib.sha256(stdout).hexdigest()}
    return out


if __name__ == "__main__":
    digests = capture()
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} CLI outputs in {workloads.DIGESTS}")
