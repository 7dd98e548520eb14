"""Outside-in tracing of cpdhr: wrappers installed by attribute replacement.

Nothing inside the package is changed. While ``Tracer.installed()`` is
active, the public functions listed in ``TARGETS`` are replaced on their
modules by thin wrappers that append one span per call to an in-memory
list; leaving the context restores the originals. This works because the
package looks these functions up through module attributes at call time:
``core`` calls ``kernels.mttkrp3``, ``solvers.cpd`` calls ``cpd_nls`` as a
module global (so the warm start splits into its ALS and Gauss-Newton
phases), and ``pipeline`` calls its stages and the ``formats``/``scene``/
``metrics``/``charts`` functions the same way. ``pipeline`` binds ``cpd``
at import, so that binding is wrapped too, under the same span name.

A span is ``[name, start_ns, end_ns, parent_index, info]``; ``info`` holds
the few argument facts a layer metric needs (kernel shapes, solver
outcome, text sizes). ``layer_metrics`` derives the per-layer numbers.
"""

import contextlib
import functools
import importlib
import json
import statistics
import time

from cpdhr.solvers import ALGORITHMS

# bytes per complex128 value
_CPLX = 16


def _mttkrp3_info(args, result):
    t, u0 = args[0], args[1]
    return (t.shape, u0.shape[1], args[4])


def _reconstruct3_info(args, result):
    return (tuple(u.shape[0] for u in args[:3]), args[0].shape[1])


def _cpd_info(args, result):
    diag = result[1]
    return (args[1].algorithm, diag.iterations, diag.converged)


def _text_out_info(args, result):
    return len(result.encode("utf-8"))


def _text_in_info(args, result):
    return len(args[0].encode("utf-8"))


# (module, attribute, span name, info function)
TARGETS = (
    ("kernels", "mttkrp3", "kernels.mttkrp3", _mttkrp3_info),
    ("kernels", "reconstruct3", "kernels.reconstruct3", _reconstruct3_info),
    ("core", "mttkrp", "core.mttkrp", None),
    ("core", "reconstruct", "core.reconstruct", None),
    ("solvers", "cpd", "solvers.cpd", _cpd_info),
    ("pipeline", "cpd", "solvers.cpd", _cpd_info),
    ("solvers", "cpd_nls", "solvers.cpd_nls", None),
    ("scene", "synthetic_sources", "scene.synthetic_sources", None),
    ("scene", "build_scene_tensor", "scene.build_scene_tensor", None),
    ("scene", "add_noise", "scene.add_noise", None),
    ("scene", "apply_mask", "scene.apply_mask", None),
    ("scene", "estimate_doa", "scene.estimate_doa", None),
    ("metrics", "cpderr", "metrics.cpderr", None),
    ("metrics", "correlate_sources", "metrics.correlate_sources", None),
    ("formats", "serialize_tensor", "formats.serialize_tensor", _text_out_info),
    ("formats", "parse_tensor", "formats.parse_tensor", _text_in_info),
    ("formats", "save_tensor", "formats.save_tensor", None),
    ("formats", "load_tensor", "formats.load_tensor", None),
    ("formats", "save_signals", "formats.save_signals", None),
    ("formats", "load_signals", "formats.load_signals", None),
    ("formats", "load_config", "formats.load_config", None),
    ("formats", "config_digest", "formats.config_digest", None),
    ("formats", "save_report", "formats.save_report", None),
    ("formats", "load_report", "formats.load_report", None),
    ("formats", "slice_csv", "formats.slice_csv", None),
    ("charts", "save_chart", "charts.save_chart", None),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("pipeline", "simulate", "pipeline.simulate", None),
    ("pipeline", "decompose", "pipeline.decompose", None),
    ("pipeline", "evaluate", "pipeline.evaluate", None),
    ("pipeline", "plot_overlay", "pipeline.plot_overlay", None),
)

PIPELINE_STAGES = ("simulate", "decompose", "evaluate", "plot_overlay")
SCENE_SIMULATION = (
    "scene.synthetic_sources", "scene.build_scene_tensor", "scene.add_noise", "scene.apply_mask",
)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target with its traced wrapper, restore on exit."""
        saved = []
        try:
            for module_name, attr, name, info in TARGETS:
                module = importlib.import_module(f"cpdhr.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, info))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call(self, name, fn, *args):
        """Call fn inside a root span of the given name."""
        return self._wrap(name, fn, None)(*args)

    def write(self, path):
        """One JSON array per line: name, start_ns, end_ns, parent, info.

        A span's id is its line number, counted from 0; a root's parent is -1.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def kernel_work(name, info):
    """Computed (flops, bytes) of one kernel call from its shapes.

    A complex multiply-add counts 8 real flops and a complex multiply 6.
    Both kernels form the Khatri-Rao product of two factors and multiply
    it against the tensor (mttkrp) or the remaining factor (reconstruct).
    Bytes are the compulsory traffic: every operand read once, the result
    written once. Cache misses are ignored, so these are computed values,
    not measured ones.
    """
    if name == "kernels.mttkrp3":
        shape, rank, mode = info
        size = shape[0] * shape[1] * shape[2]
        others = size // shape[mode]
        flops = 6 * others * rank + 8 * size * rank
        rows = sum(shape) - shape[mode]
        nbytes = _CPLX * (size + rows * rank + shape[mode] * rank)
        return flops, nbytes
    shape, rank = info
    size = shape[0] * shape[1] * shape[2]
    flops = 6 * shape[1] * shape[2] * rank + 8 * size * rank
    nbytes = _CPLX * (sum(shape) * rank + size)
    return flops, nbytes


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics from the spans of a traced run.

    Each root span (parent -1) is one case. Times and counts are reported
    per case; a layer a workload never enters reads 0.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    layer = [s[0].split(".")[0] for s in spans]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    cases = [i for i in range(n) if spans[i][3] < 0]
    n_cases = len(cases)
    case_ns = sum(dur[i] for i in cases)

    by_name = {}
    layer_ns = {}
    for i, s in enumerate(spans):
        rec = by_name.setdefault(s[0], {"calls": 0, "ns": 0, "self_ns": 0})
        rec["calls"] += 1
        rec["ns"] += dur[i]
        rec["self_ns"] += dur[i] - child[i]
        if all(layer[a] != layer[i] for a in ancestors(i)):
            layer_ns[layer[i]] = layer_ns.get(layer[i], 0) + dur[i]

    def per_case_ms(ns):
        return _ratio(ns, n_cases) / 1e6

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    out = {}
    flops = nbytes = 0
    for kernel in ("mttkrp3", "reconstruct3"):
        name = f"kernels.{kernel}"
        calls, ns = get(name, "calls"), get(name, "ns")
        out[f"{name}.calls"] = _ratio(calls, n_cases)
        out[f"{name}.busy_ms"] = per_case_ms(ns)
        out[f"{name}.us_per_call"] = _ratio(ns, calls) / 1e3
    for i, s in enumerate(spans):
        if layer[i] == "kernels" and s[4] is not None:
            f, b = kernel_work(s[0], s[4])
            flops += f
            nbytes += b
    out["kernels.flop_per_byte"] = _ratio(flops, nbytes)
    out["kernels.share"] = _ratio(layer_ns.get("kernels", 0), case_ns)
    out["core.mttkrp.self_ms"] = per_case_ms(get("core.mttkrp", "self_ns"))
    out["core.reconstruct.self_ms"] = per_case_ms(get("core.reconstruct", "self_ns"))

    # one solve is one solvers.cpd span that returned (a raising call has
    # no info); kernel calls are charged to the solve they ran in
    solves = {i: {"kernel_calls": 0, "nls_ns": 0} for i in range(n)
              if spans[i][0] == "solvers.cpd" and spans[i][4] is not None}
    for i, s in enumerate(spans):
        if layer[i] == "kernels" or s[0] == "solvers.cpd_nls":
            owner = next((a for a in ancestors(i) if a in solves), None)
            if owner is None:
                continue
            if layer[i] == "kernels":
                solves[owner]["kernel_calls"] += 1
            else:
                solves[owner]["nls_ns"] += dur[i]
    for alg in ALGORITHMS:
        mine = [i for i in solves if spans[i][4][0] == alg]
        iters = sum(spans[i][4][1] for i in mine)
        ns = sum(dur[i] for i in mine)
        key = f"solvers.{alg}"
        out[f"{key}.solve_p50_ms"] = _median([dur[i] / 1e6 for i in mine])
        out[f"{key}.iterations_median"] = _median([spans[i][4][1] for i in mine])
        out[f"{key}.ms_per_iteration"] = _ratio(ns, iters) / 1e6
        out[f"{key}.converged_fraction"] = _ratio(sum(spans[i][4][2] for i in mine), len(mine))
        out[f"{key}.kernel_calls_per_iteration"] = _ratio(
            sum(solves[i]["kernel_calls"] for i in mine), iters)
    warm = [i for i in solves if spans[i][4][0] == "gauss_newton_als_warmstart"]
    out["solvers.warmstart.als_phase_ms"] = _median([(dur[i] - solves[i]["nls_ns"]) / 1e6 for i in warm])
    out["solvers.warmstart.gn_phase_ms"] = _median([solves[i]["nls_ns"] / 1e6 for i in warm])
    out["solvers.share"] = _ratio(layer_ns.get("solvers", 0), case_ns)

    written = sum(s[4] for s in spans if s[0] == "formats.serialize_tensor")
    read = sum(s[4] for s in spans if s[0] == "formats.parse_tensor")
    for name, nb in (("serialize_tensor", written), ("parse_tensor", read)):
        ns = get(f"formats.{name}", "ns")
        out[f"formats.{name}.ms"] = per_case_ms(ns)
        out[f"formats.{name}.mb_per_s"] = _ratio(nb / 1e6, ns / 1e9)
    out["formats.bytes_written"] = _ratio(written, n_cases)
    out["formats.bytes_read"] = _ratio(read, n_cases)
    out["formats.share"] = _ratio(layer_ns.get("formats", 0), case_ns)

    stage_ns = 0
    for stage in PIPELINE_STAGES:
        ns = get(f"pipeline.{stage}", "ns")
        stage_ns += ns
        out[f"pipeline.{stage}_ms"] = per_case_ms(ns)
    out["pipeline.other_ms"] = per_case_ms(get("pipeline.run_pipeline", "ns") - stage_ns)

    out["scene.simulate_ms"] = per_case_ms(sum(get(name, "ns") for name in SCENE_SIMULATION))
    out["scene.estimate_doa_ms"] = per_case_ms(get("scene.estimate_doa", "ns"))
    out["metrics.cpderr_ms"] = per_case_ms(get("metrics.cpderr", "ns"))
    out["metrics.correlate_ms"] = per_case_ms(get("metrics.correlate_sources", "ns"))
    out["charts.save_chart_ms"] = per_case_ms(get("charts.save_chart", "ns"))
    return out
