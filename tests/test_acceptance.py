"""Acceptance gate: eight numbered criteria with pinned tolerances.

Each criterion prints one PASS/FAIL line into the terminal summary (see
conftest.py) and then asserts. Criteria 2 and 4 encode target error bands
that sit below the statistical estimation floor of the default 10x10x15
scene at 0 dB, so they are expected to fail; the bands are kept as written
rather than widened to whatever the implementation achieves. The floor is
a property of the problem size: with noise power equal to signal power and
only 15 time samples, the per-mode factor errors cannot drop to the banded
values no matter the solver (measured against ideally conditioned sources
and against the linearized error of the exact truth).
"""

import json
import time

import numpy as np
import pytest

from cpdhr import (
    CpdModel,
    CpdOptions,
    cli,
    core,
    cpd,
    cpderr,
    formats,
    pipeline,
)
from cpdhr.core import IncompleteTensor
from cpdhr.scene import (
    build_scene_tensor,
    default_scene,
    estimate_doa,
    synthetic_sources,
)
from cpdhr.solvers import cpd_gradient, init_model, normalize_model

SCENE_CONFIG = {
    "grid_m1": 10,
    "grid_m2": 10,
    "time_len": 15,
    "snr_db": 0.0,
    "seed": 0,
    "rank": 3,
    "algorithm": "gauss_newton_als_warmstart",
    "signals": "synthetic",
    "sources": [
        {"azimuth_deg": 10.0, "elevation_deg": 20.0},
        {"azimuth_deg": 30.0, "elevation_deg": 30.0},
        {"azimuth_deg": 70.0, "elevation_deg": 40.0},
    ],
}

MASKS = [
    {"kind": "deactivated_sensor", "sensor": [3, 4]},
    {"kind": "breaks_at_half", "sensor": [6, 2]},
    {"kind": "starts_at_half", "sensor": [9, 8]},
]

N_SEEDS = 20


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def verdict(log, criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    log.append(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # one small solve up front, so one-time first-call costs stay out of
    # the timed sections below
    t = core.reconstruct(init_model((3, 3, 3), 2, seed=0))
    cpd(t, CpdOptions(rank=2, init=1))


def write_config(path, **overrides):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(formats.canonical_json(dict(SCENE_CONFIG, **overrides)))
    return str(path)


@pytest.fixture(scope="module")
def sweep_0db(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep0db")
    cfg = write_config(base / "config.json")
    t0 = time.perf_counter()
    summary, _ = pipeline.run_pipeline(cfg, str(base / "run"), seeds=range(N_SEEDS))
    elapsed = time.perf_counter() - t0
    return summary, elapsed, base / "run"


@pytest.fixture(scope="module")
def sweep_0db_masked(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep0db_masked")
    cfg = write_config(base / "config.json", masks=MASKS)
    t0 = time.perf_counter()
    summary, _ = pipeline.run_pipeline(cfg, str(base / "run"), seeds=range(N_SEEDS))
    elapsed = time.perf_counter() - t0
    return summary, elapsed, base / "run"


def test_criterion_1_noiseless_exact_recovery(acceptance_log):
    scene = default_scene()
    t0 = time.perf_counter()
    good = 0
    for s in range(N_SEEDS):
        sources = synthetic_sources(scene.time_len, scene.rank, seed=s)
        t, truth = build_scene_tensor(scene, sources)
        opts = CpdOptions(rank=3, algorithm="gauss_newton",
                          init=s + pipeline.INIT_SEED_OFFSET)
        model, diag = cpd(t, opts)
        err = max(cpderr(truth, model).per_mode_relative_error)
        doa = estimate_doa(model, scene)
        doa_err = max(max(doa.azimuth_rel_err), max(doa.elevation_rel_err))
        if diag.converged and err < 1e-6 and doa_err < 1e-6:
            good += 1
    elapsed = time.perf_counter() - t0
    ok = good >= 19 and elapsed < 5.0
    verdict(acceptance_log, 1, ok,
            f"noiseless recovery {good}/{N_SEEDS} seeds, {elapsed:.2f} s")


def test_criterion_2_0db_factor_error_bands(acceptance_log, sweep_0db):
    summary, elapsed, _ = sweep_0db
    med = summary["median_cpderr"]
    bands = (0.10, 0.10, 0.35)
    ok = all(m <= b for m, b in zip(med, bands)) and elapsed < 30.0
    detail = ("median cpderr [" + ", ".join(f"{m:.3f}" for m in med)
              + "] vs bands [0.10, 0.10, 0.35], " + f"{elapsed:.1f} s")
    verdict(acceptance_log, 2, ok, detail)


def test_criterion_3_source_correlation(acceptance_log, sweep_0db):
    summary, _, run_dir = sweep_0db
    median_min_r = summary["median_min_correlation"]
    worst_p = 0.0
    for row in summary["per_seed"]:
        if not row["converged"]:
            continue
        report = formats.load_report(run_dir / f"seed_{row['seed']}" / "report.json")
        worst_p = max(worst_p, max(report["correlation"]["per_source_p"]))
    ok = median_min_r >= 0.95 and worst_p < 0.05
    verdict(acceptance_log, 3, ok,
            f"median min r {median_min_r:.3f}, worst p {worst_p:.2e}")


def test_criterion_4_0db_doa_error_bands(acceptance_log, sweep_0db):
    summary, _, _ = sweep_0db
    az = summary["median_azimuth_rel_err"]
    el = summary["median_elevation_rel_err"]
    ok = max(az) <= 0.05 and max(el) <= 0.05
    detail = ("median az rel err [" + ", ".join(f"{x:.3f}" for x in az)
              + "], el [" + ", ".join(f"{x:.3f}" for x in el) + "] vs 0.05")
    verdict(acceptance_log, 4, ok, detail)


def test_criterion_5_incomplete_tensors(acceptance_log, sweep_0db, sweep_0db_masked,
                                        tmp_path_factory):
    # noiseless: every masked decomposition recovers the truth
    base = tmp_path_factory.mktemp("masked_noiseless")
    cfg = write_config(base / "config.json", snr_db=None, masks=MASKS)
    t0 = time.perf_counter()
    summary_nl, _ = pipeline.run_pipeline(cfg, str(base / "run"), seeds=range(N_SEEDS))
    worst_nl = max(
        max(row["masked"]["cpderr"]) for row in summary_nl["per_seed"]
    )
    elapsed_nl = time.perf_counter() - t0

    summary_0, elapsed_0, _ = sweep_0db_masked
    unmasked_med = sweep_0db[0]["median_cpderr"]
    masked_med = summary_0["median_cpderr_masked"]
    within = all(m <= 2.0 * u for m, u in zip(masked_med, unmasked_med))

    ok = worst_nl < 1e-4 and within and elapsed_nl < 30.0 and elapsed_0 < 30.0
    detail = (f"noiseless worst {worst_nl:.1e}, 0 dB masked ["
              + ", ".join(f"{m:.3f}" for m in masked_med)
              + "] vs 2x unmasked, {:.1f}+{:.1f} s".format(elapsed_nl, elapsed_0))
    verdict(acceptance_log, 5, ok, detail)


def naive_unfold(t, mode):
    dims = t.shape
    out = np.zeros((dims[mode], t.size // dims[mode]), dtype=t.dtype)
    other = [m for m in range(t.ndim) if m != mode]
    for idx in np.ndindex(*dims):
        col = 0
        stride = 1
        for m in other:
            col += idx[m] * stride
            stride *= dims[m]
        out[idx[mode], col] = t[idx]
    return out


def naive_khatri_rao(a, b):
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1]), dtype=np.complex128)
    for r in range(a.shape[1]):
        for j in range(a.shape[0]):
            for i in range(b.shape[0]):
                out[j * b.shape[0] + i, r] = a[j, r] * b[i, r]
    return out


def fd_gradient(t, factors, h=1e-6):
    tvals = np.asarray(t, dtype=complex)

    def f_of(fs):
        r = core.reconstruct(fs) - tvals
        return 0.5 * float(np.vdot(r, r).real)

    blocks = []
    for n, f in enumerate(factors):
        block = np.zeros_like(f)
        for idx in np.ndindex(*f.shape):
            for part in (1.0, 1.0j):
                fp = [x.copy() for x in factors]
                fm = [x.copy() for x in factors]
                fp[n][idx] += h * part
                fm[n][idx] -= h * part
                block[idx] += (f_of(fp) - f_of(fm)) / (2.0 * h) * part
        blocks.append(block)
    return blocks


def test_criterion_6_oracle_equivalence(acceptance_log):
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    worst_kernel = 0.0
    worst_recon = 0.0
    worst_grad = 0.0
    for case in range(50):
        dims = tuple(int(rng.integers(2, 7)) for _ in range(3))
        rank = int(rng.integers(1, 4))
        factors = [crandn(rng, d, rank) for d in dims]
        t = core.reconstruct(factors)

        mode = case % 3
        u = naive_unfold(t, mode)
        assert np.array_equal(core.unfold(t, mode), u)
        assert np.array_equal(core.fold(u, mode, dims), t)

        kr = naive_khatri_rao(factors[0], factors[1])
        d_kr = np.linalg.norm(core.khatri_rao(factors[0], factors[1]) - kr)
        worst_kernel = max(worst_kernel, d_kr / np.linalg.norm(kr))

        others = [m for m in range(3) if m != mode]
        naive_mt = naive_unfold(t, mode) @ naive_khatri_rao(
            factors[others[1]], factors[others[0]]
        )
        d_mt = np.linalg.norm(core.mttkrp(t, factors, mode) - naive_mt)
        worst_kernel = max(worst_kernel, d_mt / np.linalg.norm(naive_mt))

        # sum of outer products vs the unfolded matrix identity
        alt = core.fold(factors[0] @ core.kr_chain(factors, 0).T, 0, dims)
        worst_recon = max(
            worst_recon,
            np.linalg.norm(t - alt) / np.linalg.norm(t),
        )

        g = cpd_gradient(t * (1 + 0.1), factors)
        fd = fd_gradient(t * (1 + 0.1), factors)
        num = sum(np.linalg.norm(a - b) ** 2 for a, b in zip(g, fd)) ** 0.5
        den = sum(np.linalg.norm(b) ** 2 for b in fd) ** 0.5
        worst_grad = max(worst_grad, num / den)
    elapsed = time.perf_counter() - t0
    ok = (worst_kernel < 1e-10 and worst_recon < 1e-12
          and worst_grad < 1e-6 and elapsed < 10.0)
    verdict(acceptance_log, 6, ok,
            f"kernels {worst_kernel:.1e}, reconstruction {worst_recon:.1e}, "
            f"gradient {worst_grad:.1e}, {elapsed:.1f} s")


def test_criterion_7_cpderr_gauge_suite(acceptance_log):
    rng = np.random.default_rng(707)
    worst = 0.0
    for s in range(20):
        dims = tuple(int(rng.integers(3, 6)) for _ in range(3))
        rank = int(rng.integers(2, 4))
        truth = normalize_model(init_model(dims, rank, seed=s))
        perm = rng.permutation(rank)
        accumulated = np.ones(rank, dtype=complex)
        gauged = []
        for f in truth.factors[:-1]:
            scales = rng.uniform(0.5, 2.0, rank) * np.exp(2j * np.pi * rng.uniform(size=rank))
            accumulated = accumulated * scales
            gauged.append(f[:, perm] * scales[perm])
        gauged.append(truth.factors[-1][:, perm] / accumulated[perm])
        rep = cpderr(truth, CpdModel(gauged))
        worst = max(worst, max(rep.per_mode_relative_error))
    gauge_ok = worst < 1e-10

    # padding rules on a hand-built rank-2 truth
    rng = np.random.default_rng(11)
    truth = normalize_model(init_model((4, 5, 6), 2, seed=11))
    extra = CpdModel(
        [np.column_stack([f, crandn(rng, f.shape[0], 1) * 1e-3]) for f in truth.factors]
    )
    rep_extra = cpderr(truth, extra)
    extra_ok = (max(rep_extra.per_mode_relative_error) < 1e-10
                and sorted(rep_extra.permutation) == [0, 1])

    short = CpdModel([f[:, :1] for f in truth.factors])
    rep_short = cpderr(truth, short)
    missing = [r for r, c in enumerate(rep_short.permutation) if c is None]
    short_ok = (len(missing) == 1
                and abs(rep_short.per_mode_relative_error[0]
                        - np.linalg.norm(truth.factors[0][:, missing[0]])
                        / np.linalg.norm(truth.factors[0])) < 1e-12)

    ok = gauge_ok and extra_ok and short_ok
    verdict(acceptance_log, 7, ok,
            f"gauge worst {worst:.1e}, padding extra={extra_ok} missing={short_ok}")


def test_criterion_8_pipeline_determinism(acceptance_log, tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    cfg = write_config(base / "config.json", masks=MASKS, seed=7)
    out_a = base / "a"
    out_b = base / "b"
    assert cli.main(["pipeline", cfg, str(out_a)]) == 0
    assert cli.main(["pipeline", cfg, str(out_b)]) == 0
    names = ("report.json", "report_masked.json", "fig_sources.svg")
    same = all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names
    )
    verdict(acceptance_log, 8, same,
            "byte-identical " + ", ".join(names) if same else "outputs differ")
