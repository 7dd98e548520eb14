"""Staged simulation pipeline: simulate, decompose, evaluate, plot.

Each stage is one function that takes values, writes its files and
returns its values; the `cpdhr simulate`, `decompose`, `evaluate` and
`plot` commands load a stage's inputs from files and call it.
run_pipeline builds the scene once and hands every later stage the values
the stages before it returned. Those are what reading the written files
back gives, bitwise and in their C layout, so run_pipeline reads no
artifact back, and chaining the commands by hand produces exactly its
artifacts. All randomness is seeded from the config seed with fixed
offsets per purpose, making every file byte-reproducible: sources use the
seed itself, the noise draw uses seed + NOISE_SEED_OFFSET, solver
initialization uses seed + INIT_SEED_OFFSET.
"""

import json
import os

import numpy as np

from . import charts, formats, metrics, scene as scene_mod
from .solvers import CpdOptions, cpd

NOISE_SEED_OFFSET = 1_000_003
INIT_SEED_OFFSET = 2_000_003


def _scene(cfg):
    """(sources, clean, truth, noisy, masked) of a parsed config, masked
    None without masks: every value the config's simulation refuses is
    refused here, before anything is written."""
    if cfg.signals == "synthetic":
        sources = scene_mod.synthetic_sources(cfg.scene.time_len, cfg.scene.rank, seed=cfg.seed)
    else:
        sources = formats.load_signals(cfg.signals)
    clean, truth = scene_mod.build_scene_tensor(cfg.scene, sources)
    if cfg.snr_db is None:
        noisy = clean
    else:
        noisy = scene_mod.add_noise(clean, cfg.snr_db, seed=cfg.seed + NOISE_SEED_OFFSET)
    masked = scene_mod.apply_mask(noisy, cfg.masks) if cfg.masks else None
    return sources, clean, truth, noisy, masked


def simulate(raw_config, cfg, out_dir):
    """Build the scene of the parsed cfg, whose file bytes are raw_config,
    write the config bytes and the scene into out_dir, and return the
    scene's values as _scene gives them."""
    scene = _scene(cfg)
    sources, clean, truth, noisy, masked = scene
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "wb") as fh:
        fh.write(raw_config)
    formats.save_signals(sources, os.path.join(out_dir, "sources.csv"))
    formats.save_tensor(clean, os.path.join(out_dir, "clean.tns"))
    for n, factor in enumerate(truth.factors, start=1):
        formats.save_tensor(factor, os.path.join(out_dir, f"truth_mode{n}.tns"))
    noisy_text = formats.serialize_tensor(noisy)
    formats.write_text(os.path.join(out_dir, "noisy.tns"), noisy_text)
    if masked is not None:
        # the masked tensor is the noisy one with entries masked out
        formats.write_text(os.path.join(out_dir, "masked.tns"), formats.serialize_masked(noisy_text, masked.mask))
    return scene


def decompose(t, tensor_name, rank, algorithm, seed, out_dir):
    """Run the CPD solver on a tensor and write factors + diagnostics;
    returns (model, diag, the diagnostics document)."""
    opts = CpdOptions(rank=rank, algorithm=algorithm, init=seed)
    model, diag = cpd(t, opts)
    os.makedirs(out_dir, exist_ok=True)
    for n, factor in enumerate(model.factors, start=1):
        formats.save_tensor(factor, os.path.join(out_dir, f"factor_mode{n}.tns"))
    doc = {
        "tensor": tensor_name,
        "rank": rank,
        "algorithm": algorithm,
        "seed": seed,
        "iterations": diag.iterations,
        "converged": diag.converged,
        "stop_reason": diag.stop_reason,
        "final_relative_residual": diag.final_relative_residual,
        "objective_trace": list(diag.objective_trace),
    }
    formats.save_report(doc, os.path.join(out_dir, "diagnostics.json"))
    return model, diag, doc


def evaluate(cfg, digest, truth, sources, estimate, diagnostics, estimate_dir, out_path):
    """Compare an estimate model against the truth model and sources.

    Computes the report and the aligned sources first, then writes the
    report to out_path and aligned_sources.csv into estimate_dir, so a
    refusal or a failure on the way writes no file. Returns (report,
    aligned SourceSet).
    """
    if estimate.rank < truth.rank:
        raise ValueError(f"estimate rank {estimate.rank} is below the {truth.rank} sources: each needs a column")
    rep = metrics.cpderr(truth, estimate)
    aligned = metrics.align_sources(sources.signals, estimate.factors[-1], rep)
    aligned_set = scene_mod.SourceSet(aligned, [f"recovered {l}" for l in sources.labels])
    corr = metrics.correlate_sources(sources.signals, aligned)
    doa = scene_mod.estimate_doa(estimate, cfg.scene)
    report = {
        "provenance": {
            "config_sha256": digest,
            "seed": cfg.seed,
            "rank": cfg.rank,
            "algorithm": cfg.algorithm,
            "tensor": diagnostics.get("tensor"),
            "solver_seed": diagnostics.get("seed"),
        },
        "diagnostics": {
            "iterations": diagnostics["iterations"],
            "converged": diagnostics["converged"],
            "final_relative_residual": diagnostics["final_relative_residual"],
        },
        "cpderr": {
            "per_mode_relative_error": rep.per_mode_relative_error,
            "permutation": [None if p is None else p + 1 for p in rep.permutation],
        },
        "correlation": {
            "per_source_r": corr.per_source_r,
            "per_source_p": corr.per_source_p,
        },
        "doa": vars(doa),
    }
    aligned_text = formats.serialize_signals(aligned_set)
    report_text = formats.canonical_json(report)
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    formats.write_text(os.path.join(estimate_dir, "aligned_sources.csv"), aligned_text)
    formats.write_text(out_path, report_text)
    return report, aligned_set


def plot_overlay(named_sets, out_svg):
    """One panel per source column, one polyline per (name, SourceSet)."""
    if not named_sets:
        raise ValueError("no signals to plot")
    width = named_sets[0][1].signals.shape[1]
    for name, ss in named_sets:
        if ss.signals.shape[1] != width:
            raise ValueError(f"{name}: expected {width} columns, found {ss.signals.shape[1]}")
    panels = []
    for col in range(width):
        title = named_sets[0][1].labels[col]
        series = [(name, ss.signals[:, col]) for name, ss in named_sets]
        panels.append(charts.ChartPanel(title, series))
    charts.save_chart(panels, out_svg)


def _run_single(raw_config, cfg, out_dir):
    """One run of the parsed cfg, whose file bytes are raw_config, into
    out_dir: every stage gets the values the stages before it returned."""
    sources, _, truth, noisy, masked = simulate(raw_config, cfg, os.path.join(out_dir, "truth"))
    digest = formats.config_digest(raw_config)
    solver_seed = cfg.seed + INIT_SEED_OFFSET

    jobs = [("noisy.tns", noisy, "estimate", "report.json")]
    if masked is not None:
        jobs.append(("masked.tns", masked, "estimate_masked", "report_masked.json"))

    all_converged = True
    reports = {}
    aligned = {}
    for tensor_name, t, est_name, report_name in jobs:
        est_dir = os.path.join(out_dir, est_name)
        model, diag, doc = decompose(t, tensor_name, cfg.rank, cfg.algorithm, solver_seed, est_dir)
        all_converged = all_converged and diag.converged
        reports[report_name], aligned[est_name] = evaluate(
            cfg, digest, truth, sources, model, doc, est_dir, os.path.join(out_dir, report_name))

    # the last job's tensor: the masked one when masks exist
    formats.write_text(os.path.join(out_dir, "slice_mode3_k1.csv"),
                       formats.slice_csv(jobs[-1][1], mode=3, index=1))
    plot_overlay([("sources", sources), ("aligned_sources", aligned["estimate"])],
                 os.path.join(out_dir, "fig_sources.svg"))
    return reports, all_converged


def _median(values):
    return float(np.median(np.asarray(values, dtype=np.float64)))


def run_pipeline(config_path, out_dir, seeds=None):
    """Full run for one seed, or a sweep over an iterable of seeds.

    Returns (reports, all_converged). A sweep writes per-seed directories
    seed_<s>/ plus a summary.json of medians across seeds. A config that
    does not parse or whose first seed's scene is refused, an empty sweep,
    or one with a seed that is not a non-negative integer, is refused
    before anything is written.
    """
    if seeds is None:
        return _run_single(*formats.read_config(config_path), out_dir)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("a seed sweep needs at least one seed")
    for s in seeds:
        if type(s) is not int or s < 0:
            raise ValueError(f"sweep seed {s!r} must be a non-negative integer")

    # the derived configs differ from this one only by a validated seed, so
    # the first seed's scene shows a refusal of the others' values
    raw, cfg = formats.read_config(config_path)
    cfg.seed = seeds[0]
    _scene(cfg)
    base_doc = json.loads(raw)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    all_converged = True
    for s in seeds:
        seed_dir = os.path.join(out_dir, f"seed_{s}")
        os.makedirs(seed_dir, exist_ok=True)
        text = formats.canonical_json(dict(base_doc, seed=s))
        formats.write_text(os.path.join(seed_dir, "config.json"), text)
        cfg.seed = s
        reports, converged = _run_single(text.encode("utf-8"), cfg, seed_dir)
        all_converged = all_converged and converged
        row = {"seed": s, "converged": reports["report.json"]["diagnostics"]["converged"]}
        for name, report in reports.items():
            key = "masked" if name == "report_masked.json" else "unmasked"
            row[key] = {
                "cpderr": report["cpderr"]["per_mode_relative_error"],
                "min_correlation": min(report["correlation"]["per_source_r"]),
                "doa": report["doa"],
            }
        rows.append(row)

    n_modes = len(rows[0]["unmasked"]["cpderr"])
    summary = {
        "seeds": [r["seed"] for r in rows],
        "n_converged": sum(1 for r in rows if r["converged"]),
        "median_cpderr": [
            _median([r["unmasked"]["cpderr"][n] for r in rows]) for n in range(n_modes)
        ],
        "median_min_correlation": _median([r["unmasked"]["min_correlation"] for r in rows]),
        "per_seed": rows,
    }
    for key in ("azimuth_rel_err", "elevation_rel_err"):
        errs = [r["unmasked"]["doa"][key] for r in rows]
        summary[f"median_{key}"] = [_median(e) for e in zip(*errs)]
    if any("masked" in r for r in rows):
        masked_rows = [r for r in rows if "masked" in r]
        summary["median_cpderr_masked"] = [
            _median([r["masked"]["cpderr"][n] for r in masked_rows]) for n in range(n_modes)
        ]
    formats.save_report(summary, os.path.join(out_dir, "summary.json"))
    return summary, all_converged
