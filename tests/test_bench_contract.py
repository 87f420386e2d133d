"""The surface the benchmark in ``perfbench/`` reads, checked in about a
second: each workload's deployment is built at toy size and runs its
operations, and the tracer wraps and restores every name it lists.  A
rename that would break the benchmark fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import xcache.daemon

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")

TINY = {
    "bulk-lossy": lambda: workloads.bulk_lossy(1, 1, warmup=0),
    "small-zipf": lambda: workloads.small_zipf(1, 2, warmup=0, distinct=8),
    "named-churn": lambda: workloads.named_churn(1, 1, warmup_groups=0, initial=2),
}


def _run_op(dep, kind: str, arg: int):
    """One operation the way the benchmark runs it; returns the fetched
    chunk and the bytes published under its address, or (None, None)."""
    inputs = dep.inputs
    if kind == "publish":
        dep.publish_name(arg)
        return None, None
    if kind == "fetch":
        chunk, _ = dep.client.fetch_entry(dep.client_handle, dep.corpus_urls[arg])
        return chunk, inputs.corpus[arg]
    chunk, _ = dep.client.get_named_entry(dep.client_handle, dep.name_urls[arg])
    return chunk, inputs.names[arg]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_runs_through_the_traced_public_api(workload, tmp_path):
    inputs = TINY[workload]()
    assert set(workloads.GENERATORS) == set(TINY)
    tracer = spans.Tracer()
    dep = workloads.Deployment(inputs, tmp_path / "dep")
    try:
        assert dep.setup_publish_ms
        tracer.install()
        try:
            fetched = 0
            for kind, arg in inputs.ops:
                with tracer.op(kind):
                    chunk, published = _run_op(dep, kind, arg)
                if chunk is not None:
                    assert workloads.digest(chunk.payload) == workloads.digest(published)
                    fetched += 1
            assert fetched >= 1
        finally:
            tracer.uninstall()
        counters = dep.counters()
        sessions = dep.sessions_held()
    finally:
        dep.close()

    summary = tracer.summary()
    # every fetch_entry call takes the fast path or the queue
    fetch_calls = summary["daemon.Xcached.fetch_entry.calls"]
    assert fetch_calls >= fetched
    assert counters["fast_path"] + counters["queued"] == fetch_calls
    assert counters["key_fetches"] >= (1 if inputs.names else 0)
    assert sessions >= 1
    assert summary["trace.unlinked_spans"] == 0
    for name in spans.SPAN_NAMES:
        assert f"{name}.calls" in summary


def test_tracer_restores_every_wrapped_name():
    before = {name: getattr(home, attr) for name, home, attr in spans.FUNCTIONS}
    fetch_entry = xcache.daemon.Xcached.__dict__["fetch_entry"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert xcache.daemon.Xcached.__dict__["fetch_entry"] is not fetch_entry
    finally:
        tracer.uninstall()
    assert {name: getattr(home, attr) for name, home, attr in spans.FUNCTIONS} == before
    assert xcache.daemon.Xcached.__dict__["fetch_entry"] is fetch_entry
