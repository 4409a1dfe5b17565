"""The repairkit names the benchmark harness in ``perfbench/`` relies on.

``perfbench`` wraps repairkit functions by module and attribute name, and its
``ForwardProxy`` copies attributes off the backend it wraps.  A rename or
removal on the repairkit side would only show up as an ``AttributeError`` in
a traced benchmark run; these tests catch it in the suite instead.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repairkit.backends import (NGramBackend, SeededRandomBackend,
                                TargetOracleBackend)
from repairkit.decoding import repair_prompt

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def harness():
    """perfbench's ``workloads`` and ``tracing`` modules, imported read-only."""
    saved_path, saved_bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.append(str(PERFBENCH))
    sys.dont_write_bytecode = True   # leave no __pycache__ in the harness
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_bytecode


def test_every_workload_finds_its_trace_points(harness):
    workloads, tracing = harness
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        tracer = tracing.Tracer()
        try:
            workload.trace_points(tracer)
        finally:
            tracer.unwrap_all()


def _oracle(prompt):
    backend = TargetOracleBackend()
    backend.script(prompt, ["a", ";"])
    return backend


@pytest.mark.parametrize("make", [
    _oracle,
    lambda prompt: NGramBackend.from_texts(["a = 1; b = 2;"]),
    lambda prompt: SeededRandomBackend(3, sorted(set(prompt))),
], ids=["oracle", "ngram", "random"])
def test_forward_proxy_wraps_every_backend(harness, make):
    _, tracing = harness
    prompt = repair_prompt(["a", "=", "1", ";"])
    backend = make(prompt)
    proxy = tracing.ForwardProxy(backend, None, "backends.forward")
    assert proxy.forward(prompt) == backend.forward(prompt)
    assert (proxy.passes, proxy.positions) == (1, len(prompt))
