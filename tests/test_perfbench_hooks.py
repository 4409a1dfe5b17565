"""The repairkit names the benchmark harness in ``perfbench/`` relies on.

``perfbench`` wraps repairkit functions by module and attribute name, and its
``ForwardProxy`` copies attributes off the backend it wraps.  A rename or
removal on the repairkit side would only show up as an ``AttributeError`` in
a traced benchmark run; these tests catch it in the suite instead.  They also
run perfbench's selftest, so that output its checks would reject fails here
rather than at the benchmark.
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repairkit.backends import SeededRandomBackend, TargetOracleBackend
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
    lambda prompt: SeededRandomBackend(3, sorted(set(prompt))),
], ids=["oracle", "random"])
def test_forward_proxy_wraps_every_backend(harness, make):
    _, tracing = harness
    prompt = repair_prompt(["a", "=", "1", ";"])
    backend = make(prompt)
    proxy = tracing.ForwardProxy(backend, None, "backends.forward")
    assert proxy.forward(prompt) == backend.forward(prompt)
    assert (proxy.passes, proxy.positions) == (1, len(prompt))


def test_perfbench_selftest_accepts_real_output():
    # perfbench's checks must accept what repairkit writes now, and still
    # reject each corrupted copy; the selftest leaves an empty .work behind
    work = PERFBENCH / ".work"
    existed = work.exists()
    try:
        proc = subprocess.run([sys.executable, "-B", str(PERFBENCH / "selftest.py")],
                              cwd=PERFBENCH.parent, capture_output=True, text=True,
                              timeout=120)
    finally:
        if not existed:
            shutil.rmtree(work, ignore_errors=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: 36/36 as expected" in proc.stdout
