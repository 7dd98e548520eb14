"""The benchmark's workloads: case inputs, the call into cpdhr, output checks.

A case is one unit of work. ``prepare`` builds its inputs from the case
seed (not timed), ``run`` is the call into the program (timed), ``check``
compares the outputs with the truth generated from the same seed, and
``fingerprint`` reduces the outputs (factors, or every artifact file) to
bytes so that two runs of a case can be compared bit for bit.
"""

import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from cpdhr import cli, formats, metrics, scene, solvers
from cpdhr.core import CpdModel
from cpdhr.pipeline import INIT_SEED_OFFSET, NOISE_SEED_OFFSET
from cpdhr.solvers import CpdOptions

DEMO_CONFIG = os.path.join("configs", "demo_scene.json")

# Checks against the truth. At 0 dB most solves land at a worst-mode cpderr
# of 0.1-0.4 and a worst angle error below 0.6, but hard instances exist: a
# solve can stop in a poor local minimum, and the small first azimuth's
# phase can cross zero under noise. Missing these limits is a miss, which
# counts towards failed_fraction; it does not make the output wrong. Wrong
# means the outputs contradict each other or are incomplete.
CPDERR_LIMIT = 0.75
DOA_LIMIT = 1.0
RESIDUAL_RTOL = 1e-9

# Fixed instance used to warm caches during set-up, so set-up does the same
# work whatever the workload seed.
WARMUP_SEED = 7

LARGE_SOURCES = ((10, 20), (30, 30), (70, 40), (50, 15), (20, 55), (80, 25))
LARGE_FREQS = (8.0, 10.0, 12.0, 14.0, 17.0, 21.0)

PIPELINE_ARTIFACTS = (
    "truth/config.json", "truth/sources.csv", "truth/clean.tns", "truth/noisy.tns",
    "truth/masked.tns", "truth/truth_mode1.tns", "truth/truth_mode2.tns", "truth/truth_mode3.tns",
    *(f"{est}/{name}" for est in ("estimate", "estimate_masked")
      for name in ("factor_mode1.tns", "factor_mode2.tns", "factor_mode3.tns",
                   "diagnostics.json", "aligned_sources.csv")),
    "report.json", "report_masked.json", "slice_mode3_k1.csv", "fig_sources.svg",
)


@dataclass
class CaseOutcome:
    """problems: the output is wrong; misses: a check against the truth was
    not met."""

    converged: bool
    problems: list
    misses: list = field(default_factory=list)
    cpderr: float = None
    doa_err: float = None

    @property
    def failed(self):
        return bool(self.problems or self.misses) or not self.converged


def case_seed(workload_seed, workload_index, case_index):
    """Seed of one case, derived from the workload seed only."""
    seq = np.random.SeedSequence([workload_seed, workload_index, case_index])
    return int(seq.generate_state(1)[0] >> 1)


def _quality(truth, model, doa_scene):
    """(worst-mode cpderr, worst relative angle error, misses).

    A DOA that cannot be read off the model counts as an infinite error.
    """
    err = max(metrics.cpderr(truth, model).per_mode_relative_error)
    misses = [] if err <= CPDERR_LIMIT else [f"cpderr {err:.3f} above {CPDERR_LIMIT}"]
    try:
        doa = scene.estimate_doa(model, doa_scene)
    except ValueError as exc:
        return err, math.inf, misses + [f"DOA: {exc}"]
    doa_err = max(doa.azimuth_rel_err + doa.elevation_rel_err)
    if not doa_err <= DOA_LIMIT:
        misses.append(f"DOA relative error {doa_err:.3f} above {DOA_LIMIT}")
    return err, doa_err, misses


class SolveWorkload:
    """One in-memory ``solvers.cpd`` call per case, cycling the algorithms."""

    def __init__(self, name, doa_scene, algorithms, snr_db, freqs=None,
                 masks=(), strategy="expectation_imputation", trace_cases=12):
        self.name = name
        self.scene = doa_scene
        self.algorithms = algorithms
        self.snr_db = snr_db
        self.freqs = freqs
        self.masks = list(masks)
        self.strategy = strategy
        self.trace_cases = trace_cases

    def prepare(self, seed, index):
        extra = {} if self.freqs is None else {"freqs": self.freqs}
        sources = scene.synthetic_sources(self.scene.time_len, self.scene.rank, seed=seed, **extra)
        clean, truth = scene.build_scene_tensor(self.scene, sources)
        tensor = scene.add_noise(clean, self.snr_db, seed=seed + NOISE_SEED_OFFSET)
        if self.masks:
            tensor = scene.apply_mask(tensor, self.masks)
        opts = CpdOptions(rank=self.scene.rank, algorithm=self.algorithms[index % len(self.algorithms)],
                          init=seed + INIT_SEED_OFFSET, missing_data_strategy=self.strategy)
        return {"tensor": tensor, "opts": opts, "truth": truth}

    def run(self, inputs):
        return solvers.cpd(inputs["tensor"], inputs["opts"])

    def check(self, inputs, outputs):
        model, diag = outputs
        problems = []
        if not isinstance(diag.converged, bool):
            problems.append(f"converged is {diag.converged!r}, not a bool")
        reported = diag.final_relative_residual
        if not math.isfinite(reported):
            problems.append(f"residual {reported} is not finite")
        else:
            # recomputed here with plain numpy, independent of the kernels
            tensor = inputs["tensor"]
            values = getattr(tensor, "values", tensor)
            diff = np.einsum("ir,jr,kr->ijk", *model.factors) - values
            if hasattr(tensor, "mask"):
                diff = np.where(tensor.mask, diff, 0.0)
            actual = np.linalg.norm(diff.ravel()) / np.linalg.norm(values.ravel())
            if abs(actual - reported) > RESIDUAL_RTOL * max(1.0, reported):
                problems.append(f"reported residual {reported!r} but the model gives {actual!r}")
        err, doa_err, misses = _quality(inputs["truth"], model, self.scene)
        return CaseOutcome(diag.converged is True, problems, misses, err, doa_err)

    def fingerprint(self, inputs, outputs):
        model, diag = outputs
        summary = (diag.iterations, diag.converged, diag.final_relative_residual,
                   tuple(diag.objective_trace), model.normalized)
        return b"".join(f.tobytes() for f in model.factors) + repr(summary).encode()

    def cleanup(self, inputs):
        pass


class PipelineWorkload:
    """One ``cpdhr pipeline`` run per case, on the demo config with the
    case seed, into a fresh directory."""

    name = "pipeline_demo"
    trace_cases = 12

    def __init__(self, root):
        path = os.path.join(root, DEMO_CONFIG)
        with open(path, encoding="utf-8") as fh:
            self.base = json.load(fh)
        self.scene = formats.load_config(path).scene
        self.tmp_root = os.path.join(root, ".perfbench_tmp")
        self.algorithms = (self.base["algorithm"],)

    def prepare(self, seed, index):
        os.makedirs(self.tmp_root, exist_ok=True)
        work = tempfile.mkdtemp(prefix="case-", dir=self.tmp_root)
        config = os.path.join(work, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(dict(self.base, seed=seed), fh, indent=2, sort_keys=True)
        sources = scene.synthetic_sources(self.scene.time_len, self.scene.rank, seed=seed)
        _, truth = scene.build_scene_tensor(self.scene, sources)
        return {"dir": work, "config": config, "out": os.path.join(work, "out"), "truth": truth}

    def run(self, inputs):
        return cli.run(["pipeline", inputs["config"], inputs["out"]])

    def check(self, inputs, code):
        out = inputs["out"]
        problems = [] if code in (0, 2) else [f"exit status {code}"]
        missing = [p for p in PIPELINE_ARTIFACTS if not os.path.isfile(os.path.join(out, p))]
        if missing:
            return CaseOutcome(False, problems + [f"missing artifacts {missing}"])
        converged = True
        misses = []
        first = None
        for est in ("estimate", "estimate_masked"):
            with open(os.path.join(out, est, "diagnostics.json"), encoding="utf-8") as fh:
                diag = json.load(fh)
            if not isinstance(diag["converged"], bool):
                problems.append(f"{est}: converged is {diag['converged']!r}, not a bool")
            if not math.isfinite(diag["final_relative_residual"]):
                problems.append(f"{est}: residual is not finite")
            converged = converged and diag["converged"] is True
            model = CpdModel([formats.load_tensor(os.path.join(out, est, f"factor_mode{n}.tns"))
                              for n in (1, 2, 3)])
            err, doa_err, missed = _quality(inputs["truth"], model, self.scene)
            misses += [f"{est}: {m}" for m in missed]
            first = first or (err, doa_err)
        if (code == 0) != converged:
            problems.append(f"exit status {code} disagrees with converged={converged}")
        return CaseOutcome(converged, problems, misses, *first)

    def fingerprint(self, inputs, code):
        out = inputs["out"]
        files = []
        for base, _, names in os.walk(out):
            for name in names:
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    files.append((os.path.relpath(path, out), fh.read()))
        return code, sorted(files)

    def cleanup(self, inputs):
        shutil.rmtree(inputs["dir"], ignore_errors=True)


def build_workloads(root):
    """Every workload, by name, in a fixed order."""
    cfg = formats.load_config(os.path.join(root, DEMO_CONFIG))
    large = scene.DoaScene(sources=[scene.SourceSpec(a, e) for a, e in LARGE_SOURCES],
                           grid_m1=32, grid_m2=32, time_len=64)
    workloads = (
        PipelineWorkload(root),
        SolveWorkload("masked_residuals_demo", cfg.scene, solvers.ALGORITHMS, cfg.snr_db,
                      masks=cfg.masks, strategy="masked_residuals", trace_cases=18),
        SolveWorkload("large_array_dense", large, ("als", "gauss_newton_als_warmstart"), 0.0,
                      freqs=LARGE_FREQS, trace_cases=8),
    )
    return {w.name: w for w in workloads}
