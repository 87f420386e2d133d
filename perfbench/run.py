"""xcache benchmark: one closed-loop client against simulated topologies.

Usage (from the repository root):

    python3 perfbench/run.py --workload small-zipf --seed 1 --seconds 20 --trace 0

A run repeats cycles until ``--seconds`` have passed, and makes at least
two.  A cycle builds the deployment from the seed's inputs several times
(each timed as set-up, all but the last closed again), runs an untimed
warm-up, then a fixed sequence of timed operations, one in flight at a
time.  Every cycle of a run sees the same
inputs, so everything counted in simulated time must repeat exactly;
any difference is reported as nondeterminism.  Every fetched payload is
checked against the digest of the bytes published under its address.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles and prints per-layer metrics from spans
recorded around calls into each module (see ``spans.py``).  The last
line of output is one JSON object; the lines before it are the same
metrics for people, with sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# Timed operations per cycle, sized so one cycle takes a few seconds;
# named-churn counts groups of one publish and three reads.
CYCLE_OPS = {"bulk-lossy": 300, "small-zipf": 6000, "named-churn": 1000}
# Set-ups timed per cycle; setup_s is their median over the run.
SETUPS_PER_CYCLE = 4
# Rates and mean latency are medians over windows of consecutive ops, so
# that a few seconds in which the machine runs slow move them little.
WINDOWS_PER_CYCLE = 10
MIB = 1024 * 1024


@dataclass
class Cycle:
    """What one cycle measured; ``op_*`` lists hold one entry per timed op."""

    setup_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    sim_ms: int = 0
    attempted: int = 0
    failed: int = 0
    op_ms: list[float] = field(default_factory=list)
    op_bytes: list[int] = field(default_factory=list)
    op_fetch: list[bool] = field(default_factory=list)
    publish_ms: list[float] = field(default_factory=list)
    fetch_sim_ms: list[int] = field(default_factory=list)
    providers: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    def origin_share(self) -> float:
        return self.providers.count("pub") / len(self.providers)

    def signature(self) -> tuple:
        """Everything that must repeat exactly for one seed."""
        return (self.sim_ms, tuple(self.fetch_sim_ms), tuple(self.providers),
                tuple(sorted(self.counts.items())))


def run_cycle(wl, inputs, expected, index: int, tracer=None) -> Cycle:
    cycle = Cycle()
    for n in range(SETUPS_PER_CYCLE):
        if n:
            dep.close()
        gc.collect()
        start = perf_counter()
        dep = wl.Deployment(inputs, ROOT / ".perfbench_tmp" / f"{os.getpid()}-{index}-{n}")
        cycle.setup_s.append(perf_counter() - start)
        cycle.publish_ms.extend(dep.setup_publish_ms)
    try:
        for kind, arg in inputs.ops[: inputs.warmup]:
            _, chunk, provider = _timed(wl, dep, kind, arg, nullcontext())
            cycle.attempted += 1
            cycle.failed += not _correct(wl, expected, kind, arg, chunk, provider)
        if tracer is not None:
            tracer.install()
        base = _counts(dep)
        sim_start, wall_start = dep.sim.now, perf_counter()
        for kind, arg in inputs.ops[inputs.warmup :]:
            sim0 = dep.sim.now
            span = tracer.op(kind) if tracer is not None else nullcontext()
            elapsed_ms, chunk, provider = _timed(wl, dep, kind, arg, span)
            nbytes = len(chunk.payload) if chunk is not None else 0
            cycle.attempted += 1
            cycle.failed += not _correct(wl, expected, kind, arg, chunk, provider)
            cycle.op_ms.append(elapsed_ms)
            cycle.op_bytes.append(nbytes)
            cycle.op_fetch.append(kind != "publish")
            if kind == "publish":
                cycle.publish_ms.append(elapsed_ms)
                continue
            cycle.fetch_sim_ms.append(dep.sim.now - sim0)
            cycle.providers.append(provider)
        cycle.wall_s = perf_counter() - wall_start
        cycle.sim_ms = dep.sim.now - sim_start
        cycle.counts = {k: v - base[k] for k, v in _counts(dep).items()}
        cycle.counts["sessions_held"] = dep.sessions_held()
    finally:
        if tracer is not None:
            tracer.uninstall()
        dep.close()
    if tracer is not None:
        cycle.layers = tracer.summary()
    return cycle


def _counts(dep) -> dict[str, int]:
    return dict(
        dep.counters(),
        retransmits=dep.sim.stats["retransmits"],
        data_segments_sent=dep.sim.stats["data_segments_sent"],
    )


def _timed(wl, dep, kind: str, arg: int, span):
    """One operation through the client's or the publisher's handle;
    returns (wall ms, fetched chunk or None, provider)."""
    start = perf_counter()
    try:
        with span:
            if kind == "publish":
                dep.publish_name(arg)
                chunk, provider = None, "pub"
            elif kind == "fetch":
                chunk, stats = dep.client.fetch_entry(dep.client_handle, dep.corpus_urls[arg])
                provider = stats.provider
            else:
                chunk, stats = dep.client.get_named_entry(dep.client_handle, dep.name_urls[arg])
                provider = stats.provider
    except wl.XcacheError as exc:
        print(f"op failed: {kind} {arg}: {exc!r}", file=sys.stderr)
        chunk, provider = None, "error"
    return (perf_counter() - start) * 1e3, chunk, provider


def _correct(wl, expected, kind: str, arg: int, chunk, provider: str) -> bool:
    """Whether the op succeeded and a fetch returned the published bytes."""
    if provider == "error":
        return False
    if kind == "publish":
        return True
    want = expected["corpus" if kind == "fetch" else "names"][arg]
    return wl.digest(chunk.payload) == want


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_window(cycles: list[Cycle], value) -> list[float]:
    """``value(cycle, lo, hi)`` for each window of ops ``lo:hi``."""
    out = []
    for c in cycles:
        n = len(c.op_ms)
        for w in range(WINDOWS_PER_CYCLE):
            out.append(value(c, w * n // WINDOWS_PER_CYCLE, (w + 1) * n // WINDOWS_PER_CYCLE))
    return out


def _op_s(c: Cycle, lo: int, hi: int) -> float:
    return sum(c.op_ms[lo:hi]) / 1e3


def _fetch_mean_ms(c: Cycle, lo: int, hi: int) -> float:
    fetch = [ms for ms, f in zip(c.op_ms[lo:hi], c.op_fetch[lo:hi]) if f]
    return sum(fetch) / len(fetch)


def end_to_end(cycles: list[Cycle]) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, sample note)."""
    first = cycles[0]
    fetch_ms = [ms for c in cycles for ms, f in zip(c.op_ms, c.op_fetch) if f]
    publish_ms = [v for c in cycles for v in c.publish_ms]
    remote_sim = [t for t, p in zip(first.fetch_sim_ms, first.providers) if p != "local"]
    attempted = sum(c.attempted for c in cycles)
    op_rates = per_window(cycles, lambda c, lo, hi: (hi - lo) / _op_s(c, lo, hi))
    byte_rates = per_window(
        cycles, lambda c, lo, hi: sum(c.op_bytes[lo:hi]) / MIB / _op_s(c, lo, hi)
    )
    fetch_means = per_window(cycles, _fetch_mean_ms)
    n = len(cycles)
    return {
        "setup_s": (statistics.median(t for c in cycles for t in c.setup_s), "s",
                    f"median of {n * SETUPS_PER_CYCLE} set-ups"),
        "ops_per_s": (statistics.median(op_rates), "op/s",
                      f"median of {len(op_rates)} windows, {n} cycles of {len(first.op_ms)} ops"),
        "fetch_mean_ms": (statistics.median(fetch_means), "ms",
                          f"mean per window, median of {len(fetch_means)} windows"),
        "fetch_p50_ms": (percentile(fetch_ms, 0.5), "ms", f"n={len(fetch_ms)} fetches"),
        "fetch_p99_ms": (percentile(fetch_ms, 0.99), "ms", f"n={len(fetch_ms)} fetches"),
        "publish_p50_ms": (percentile(publish_ms, 0.5), "ms",
                           f"n={len(publish_ms)} publishes, set-up and timed"),
        "publish_p99_ms": (percentile(publish_ms, 0.99), "ms",
                           f"n={len(publish_ms)} publishes, set-up and timed"),
        "goodput_mib_s": (statistics.median(byte_rates), "MiB/s",
                          f"median of {len(byte_rates)} windows"),
        "sim_goodput_mib_s": (sum(first.op_bytes) / MIB / (first.sim_ms / 1e3), "MiB/s",
                              f"{first.sim_ms} simulated ms per cycle"),
        "sim_fetch_p50_ms": (percentile(remote_sim, 0.5), "ms",
                             f"n={len(remote_sim)} remote fetches per cycle"),
        "sim_fetch_p99_ms": (percentile(remote_sim, 0.99), "ms",
                             f"n={len(remote_sim)} remote fetches per cycle"),
        "origin_share": (first.origin_share(), "ratio",
                         f"of {len(first.providers)} fetches per cycle"),
        "failed_share": (sum(c.failed for c in cycles) / attempted, "ratio",
                         f"of {attempted} ops, warm-up included"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB",
                         "this process"),
    }


def per_layer(pairs: list[tuple[Cycle, Cycle]]) -> dict[str, tuple[float, str, str]]:
    """Medians over traced cycles; counts repeat exactly across cycles."""
    from spans import SPAN_NAMES

    n = len(pairs)
    traced = [t for _, t in pairs]
    first = traced[0]

    def med(key):
        return statistics.median(c.layers[key] for c in traced)

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (first.layers[f"{name}.calls"], "count", "per cycle")
        out[f"{name}.self_s"] = (med(f"{name}.self_s"), "s", f"median of {n} traced cycles")
    counts = first.counts
    sent = counts["data_segments_sent"]
    out.update({
        "store.evictions": (first.layers["store.evictions"], "count", "per cycle"),
        "store.get_hit_share": (first.layers["store.get_hit_share"], "ratio", "per cycle"),
        "netsim.retransmits": (counts["retransmits"], "count", "per cycle, whole simulator"),
        "netsim.data_segments_sent": (sent, "count", "per cycle, whole simulator"),
        "netsim.useful_segment_share": (
            (sent - counts["retransmits"]) / sent if sent else 0.0, "ratio", "per cycle"),
        "netsim.sessions_held": (counts["sessions_held"], "count", "all nodes at cycle end"),
        "daemon.fast_path": (counts["fast_path"], "count", "per cycle, all daemons"),
        "daemon.queued": (counts["queued"], "count", "per cycle, all daemons"),
        "daemon.key_fetches": (counts["key_fetches"], "count", "per cycle, all daemons"),
        "origin_share": (first.origin_share(), "ratio", "per cycle"),
        "trace.op_wall_s": (med("trace.op_wall_s"), "s", "traced ops, summed"),
        "trace.self_sum_s": (med("trace.self_sum_s"), "s", "all spans, all threads"),
        "trace.unlinked_spans": (first.layers["trace.unlinked_spans"], "count", "per cycle"),
        "trace.untraced_wall_s": (statistics.median(u.wall_s for u, _ in pairs), "s",
                                  f"median of {n} untraced cycles"),
        "trace.overhead_s": (statistics.median(t.wall_s - u.wall_s for u, t in pairs), "s",
                             "traced minus untraced cycle wall"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bulk-lossy", "small-zipf", "named-churn"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "xcache" / "__init__.py").is_file():
        print(f"no xcache sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    inputs = wl.GENERATORS[args.workload](args.seed, CYCLE_OPS[args.workload])
    expected = {
        "corpus": [wl.digest(p) for p in inputs.corpus],
        "names": [wl.digest(p) for p in inputs.names],
    }

    tracer_cls = None
    if args.trace:
        from spans import Tracer as tracer_cls
    cycles: list[Cycle] = []
    pairs: list[tuple[Cycle, Cycle]] = []
    begin = last = perf_counter()
    # Start another cycle only if one more, as long as the last, still
    # ends within --seconds; always make two, to compare them.
    while len(cycles) < 2 or 2 * perf_counter() - last - begin <= args.seconds:
        last = perf_counter()
        if tracer_cls is None:
            cycles.append(run_cycle(wl, inputs, expected, len(cycles)))
            continue
        untraced = run_cycle(wl, inputs, expected, len(cycles))
        traced = run_cycle(wl, inputs, expected, len(cycles) + 1, tracer_cls())
        cycles += [untraced, traced]
        pairs.append((untraced, traced))
    try:
        (ROOT / ".perfbench_tmp").rmdir()
    except OSError:
        pass  # absent, or another run still uses it

    problems = []
    failed = sum(c.failed for c in cycles)
    if failed:
        problems.append(f"{failed} operations failed or returned wrong bytes")
    if any(c.signature() != cycles[0].signature() for c in cycles[1:]):
        problems.append("nondeterminism: simulated-time results differ between cycles "
                        "of one seed")

    results = end_to_end(cycles) if not args.trace else per_layer(pairs)
    print(f"workload={args.workload} seed={args.seed} cycles={len(cycles)} "
          f"trace={args.trace}")
    for name, (value, unit, note) in results.items():
        print(f"{name} = {value:.6g} {unit}  ({note})")
    for problem in problems:
        print(f"FAIL: {problem}")
    # The metrics BENCHMARK.json declares for this mode; the others are
    # printed above, and perfbench/DESIGN.md says why each is not gated.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keep = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    report = {
        "correct": not problems,
        "attempted": sum(c.attempted for c in cycles),
        "failed": failed,
        "metrics": {k: {"value": results[k][0], "unit": results[k][1]} for k in keep},
    }
    print(json.dumps(report))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
