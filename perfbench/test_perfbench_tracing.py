"""The benchmark's wrappers must not change the program they measure.

A traced and a plain run of the same case give bit-identical factors (the
in-memory workloads) or byte-identical artifacts (the pipeline), and
leaving the tracer restores every wrapped function.
"""

import importlib
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench_cases import build_workloads, case_seed  # noqa: E402
from bench_tracing import TARGETS, Tracer  # noqa: E402

WORKLOADS = build_workloads(ROOT)


def _plain_then_traced(name, index):
    workload = WORKLOADS[name]
    seed = case_seed(1, list(WORKLOADS).index(name), index)
    tracer = Tracer()
    prints = []
    for traced in (False, True):
        inputs = workload.prepare(seed, index)
        try:
            if traced:
                with tracer.installed():
                    outputs = tracer.call("case", workload.run, inputs)
            else:
                outputs = workload.run(inputs)
            prints.append(workload.fingerprint(inputs, outputs))
        finally:
            workload.cleanup(inputs)
    return prints, tracer


@pytest.mark.parametrize("name,index", [
    ("pipeline_demo", 0),
    ("masked_residuals_demo", 0),
    ("masked_residuals_demo", 1),
    ("masked_residuals_demo", 2),
    ("large_array_dense", 2),
    ("large_array_dense", 1),
])
def test_traced_case_is_bit_identical(name, index):
    (plain, traced), tracer = _plain_then_traced(name, index)
    assert plain == traced
    names = {span[0] for span in tracer.spans}
    # the wrappers were live from the solver down to the kernels
    assert {"solvers.cpd", "core.reconstruct", "kernels.reconstruct3"} <= names


def test_leaving_the_tracer_restores_every_function():
    def current():
        return [getattr(importlib.import_module(f"cpdhr.{m}"), a) for m, a, _, _ in TARGETS]

    before = current()
    with Tracer().installed():
        assert all(w is not o for w, o in zip(current(), before))
    assert all(a is b for a, b in zip(current(), before))
