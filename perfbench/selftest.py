"""Self-test of the benchmark: run it small and check what it reports.

    python3 perfbench/selftest.py

Runs each workload with tiny cycles.  Checks that it reports exactly the
metrics named in BENCHMARK.json, with their units, in both modes; that a payload corrupted on its way back
to the client is caught by the output check; and that cycles of one
seed that diverge in simulated time are reported as nondeterminism.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from xcache import daemon  # noqa: E402

# Timed operations per cycle (named-churn: groups of four), enough that
# every rate window holds a fetch.
TINY_OPS = {"bulk-lossy": 24, "small-zipf": 24, "named-churn": 6}


def bench(*args: str) -> tuple[int, list[str], dict]:
    out = io.StringIO()
    cycle_ops, run.CYCLE_OPS = run.CYCLE_OPS, TINY_OPS
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--seconds", "0", *args])
    finally:
        run.CYCLE_OPS = cycle_ops
    lines = out.getvalue().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_metrics(workload: str, trace: int, spec: list[dict]) -> None:
    """The JSON holds the declared metrics; every metric the run computed,
    declared or only printed, is printed with its unit."""
    name = "per_layer" if trace else "end_to_end"
    compute, computed = getattr(run, name), {}

    def recording(*args):
        computed.update(compute(*args))
        return computed

    setattr(run, name, recording)
    try:
        code, lines, report = bench("--workload", workload, "--trace", str(trace))
    finally:
        setattr(run, name, compute)
    check(code == 0 and report["correct"] and report["failed"] == 0,
          f"{workload} trace={trace} runs clean")
    wanted = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    check(got == wanted, f"{workload} trace={trace} JSON has exactly the declared metrics")
    missing = [
        name for name, (_, unit, _) in computed.items()
        if not any(line.startswith(f"{name} = ") and f" {unit}  (" in line for line in lines)
    ]
    check(not missing, f"{workload} trace={trace} prints every metric with its unit"
          + (f", missing {missing}" if missing else ""))


def corrupting(call_number: int):
    """Flip one payload byte in the client's n-th fetch answer."""
    original = daemon.Xcached.fetch_entry
    calls = {"n": 0}

    def fetch_entry(self, *args, **kwargs):
        chunk, stats = original(self, *args, **kwargs)
        calls["n"] += 1
        if calls["n"] == call_number:
            bad = bytes([chunk.payload[0] ^ 0xFF]) + chunk.payload[1:]
            chunk = dataclasses.replace(chunk, payload=bad)
        return chunk, stats

    return original, fetch_entry


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in TINY_OPS:
        check_metrics(workload, 0, declared["end_to_end"])
        check_metrics(workload, 1, declared["per_layer"])

    # A call inside the first cycle's timed pass.
    warmup = workloads.small_zipf(1, TINY_OPS["small-zipf"]).warmup
    original, patched = corrupting(call_number=warmup + 10)
    daemon.Xcached.fetch_entry = patched
    try:
        code, lines, report = bench("--workload", "small-zipf")
    finally:
        daemon.Xcached.fetch_entry = original
    check(code != 0 and not report["correct"] and report["failed"] == 1,
          "a corrupted payload fails the run")
    check(any(line.startswith("failed_share = ") and not line.startswith("failed_share = 0 ")
              for line in lines), "failed_share counts the corrupted payload")

    build = workloads.build_simulator
    seeds = iter(range(10**6))
    workloads.build_simulator = lambda text, **kw: build(text, seed=next(seeds), **kw)
    try:
        code, lines, report = bench("--workload", "bulk-lossy")
    finally:
        workloads.build_simulator = build
    check(code != 0 and not report["correct"] and any("nondeterminism" in x for x in lines),
          "diverging cycles of one seed are reported as nondeterminism")
    return 0


if __name__ == "__main__":
    sys.exit(main())
