#!/usr/bin/env python3
"""Fast self-check of the benchmark: every workload at a tiny size, both modes.

    python3 bench/selfcheck.py

For each workload run.py defines (large-dense too, which BENCHMARK.json does
not list), it runs ``run.py --tiny`` untraced and traced and asserts
that the last line is the result object, that it names exactly the metrics
``BENCHMARK.json`` lists (end-to-end untraced, per-layer traced) with their
units, that every value is a finite number, and that every output check
passed or failed only through a known, attributed defect. Takes a few
seconds; exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


class SelfCheckError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfCheckError(message)


def check_run(spec: dict, workload: str, trace: int) -> str:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "0.2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, timeout=170, cwd=ROOT)
    where = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr.decode()}")
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    expect(got == wanted, f"{where}: metrics or units differ: {sorted(set(got.items()) ^ set(wanted.items()))}")
    for name, m in result["metrics"].items():
        value = m["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name} = {value!r}")
    expect(1 <= result["attempted"] and 0 <= result["failed"] <= result["attempted"], f"{where}: counts")
    report = next(line for line in lines if " report " in line)
    expect(result["correct"], f"{where}: an output check failed without a known cause: {report}")
    return f"{where}: ok, {result['attempted']} inputs, {result['failed']} failed through known defects"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                print(check_run(spec, workload, trace), flush=True)
    except SelfCheckError as exc:
        print(f"selfcheck FAILED: {exc}")
        return 1
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
