"""The comparison code of tools/solver_parity.py, on hand-made records:
the gate for a solver change that moves iteration counts or minima."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "solver_parity.py"


@pytest.fixture(scope="module")
def parity():
    # the tool pins BLAS to one thread through the environment when it is
    # imported; keep that setting to the tool's own runs
    saved = dict(os.environ)
    spec = importlib.util.spec_from_file_location("solver_parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return module


def record(seed, residual, iterations=10, converged=True, condition="dense", algorithm="gauss_newton", **extra):
    return dict(seed=seed, condition=condition, algorithm=algorithm, iterations=iterations,
                converged=converged, residual=residual, **extra)


def test_residual_sign_is_equal_only_within_the_relative_tolerance(parity):
    old = record(0, 0.5)
    within = 0.5 * parity.RESIDUAL_RTOL
    assert parity._residual_sign(old, record(0, 0.5)) == 0
    assert parity._residual_sign(old, record(0, 0.5 * (1 + within))) == 0
    assert parity._residual_sign(old, record(0, 0.5 * (1 - within))) == 0
    assert parity._residual_sign(old, record(0, 0.5 * (1 - 4 * parity.RESIDUAL_RTOL))) == -1
    assert parity._residual_sign(old, record(0, 0.5 * (1 + 4 * parity.RESIDUAL_RTOL))) == 1
    # a NaN on either side is never equal: it counts as lower
    assert parity._residual_sign(old, record(0, float("nan"))) == -1
    assert parity._residual_sign(record(0, float("nan")), old) == -1
    assert parity._residual_sign(record(0, float("nan")), record(0, float("nan"))) == -1


def test_differences_list_each_solve_that_moved_or_is_missing(parity):
    tol = parity.RESIDUAL_RTOL
    reference = [record(0, 0.5), record(1, 0.5), record(2, 0.5), record(3, 0.5),
                 record(4, 0.5), record(5, 0.5), record(9, 0.5)]
    records = [record(0, 0.5 * (1 + 0.5 * tol)),           # equal within the tolerance
               record(1, 0.4),                             # lower
               record(2, 0.6),                             # higher
               record(3, float("nan")),                    # NaN
               record(4, 0.5, iterations=11),              # same residual, more iterations
               record(5, 0.5, converged=False),
               record(6, 0.5)]                             # not in the reference
    lines = parity.differences(records, reference)
    assert lines == [
        "(1, 'dense', 'gauss_newton'): residual 0.5 -> 0.4",
        "(2, 'dense', 'gauss_newton'): residual 0.5 -> 0.6",
        "(3, 'dense', 'gauss_newton'): residual 0.5 -> nan",
        "(4, 'dense', 'gauss_newton'): iterations 10 -> 11",
        "(5, 'dense', 'gauss_newton'): converged True -> False",
        "(6, 'dense', 'gauss_newton'): not in the reference",
        "(9, 'dense', 'gauss_newton'): missing here",
    ]
    assert parity.differences(reference, reference) == []


def test_cell_comparisons_count_lower_equal_and_higher_per_cell(parity):
    tol = parity.RESIDUAL_RTOL
    reference = [record(0, 0.5, iterations=10), record(1, 0.5, iterations=20, converged=False),
                 record(2, 0.5, iterations=30), record(3, 0.5, iterations=40),
                 record(4, 0.5, iterations=50), record(9, 0.5),
                 record(0, 0.2, condition="swamp", algorithm="als")]
    records = [record(0, 0.5 * (1 + 0.5 * tol), iterations=12),
               record(1, 0.4, iterations=25),
               record(2, 0.5 * (1 + 4 * tol), iterations=30),
               record(3, float("nan"), iterations=40),
               record(4, 0.25, iterations=50),
               record(6, 0.1, iterations=99),              # not in the reference: not compared
               record(0, 0.2, condition="swamp", algorithm="als")]
    lines = parity.cell_comparisons(records, reference)
    assert lines == [
        "dense gauss_newton: converged 4/5 -> 5/5, iterations total 150 -> 157, "
        "out of iterations 0 -> 0, residual lower/equal/higher 3/1/1, "
        "largest residual gap nan over 4 converged on both sides",
        "swamp als: converged 1/1 -> 1/1, iterations total 10 -> 10, out of iterations 0 -> 0, "
        "residual lower/equal/higher 0/1/0, largest residual gap 0 over 1 converged on both sides",
    ]


def test_cell_comparisons_count_solves_out_of_iterations_and_report_times(parity):
    limit = parity.CpdOptions(rank=1).max_iterations
    reference = [record(0, 0.5, iterations=limit, converged=False, scaled_ms=4.0),
                 record(1, 0.5, iterations=limit, converged=True, scaled_ms=2.0)]
    records = [record(0, 0.5, iterations=7, scaled_ms=1.0), record(1, 0.5, iterations=8, scaled_ms=3.0)]
    [line] = parity.cell_comparisons(records, reference)
    assert "converged 1/2 -> 2/2" in line and "out of iterations 1 -> 0" in line
    assert line.endswith("median/p90 3.00/3.80 ms -> 2.00/2.80 ms")
    # a reference without times is compared on everything else
    untimed = [{k: v for k, v in r.items() if k != "scaled_ms"} for r in reference]
    [line] = parity.cell_comparisons(records, untimed)
    assert "median/p90" not in line and "residual lower/equal/higher 0/2/0" in line


def test_largest_residual_gap_is_nan_when_any_gap_is(parity):
    # a NaN residual among the solves converged on both sides, first or
    # later in the cell, makes the largest gap nan: never hidden, never
    # skipped; without one it is the largest of the gaps 0, 0.1 and 0.2
    reference = [record(seed, 0.5) for seed in range(3)]
    for nan_seed, largest in [(None, "0.2"), (0, "nan"), (2, "nan")]:
        records = [record(seed, float("nan") if seed == nan_seed else 0.5 * (1 + 0.1 * seed))
                   for seed in range(3)]
        [line] = parity.cell_comparisons(records, reference)
        assert f"largest residual gap {largest} over 3 converged on both sides" in line, (nan_seed, line)


def test_matvec_totals_are_shown_where_the_reference_has_them_and_gate_nothing(parity):
    reference = [record(0, 0.5, matvecs=40), record(1, 0.5, matvecs=60)]
    records = [record(0, 0.5, matvecs=15), record(1, 0.5, matvecs=25)]
    [line] = parity.cell_comparisons(records, reference)
    assert line.endswith("matvecs total 100 -> 40")
    [summary] = parity.cell_summaries([dict(r, scaled_ms=1.0) for r in records])
    assert "matvecs total 40, median/p90" in summary
    # a reference without the field is compared on everything else
    untimed = [{k: v for k, v in r.items() if k != "matvecs"} for r in reference]
    [line] = parity.cell_comparisons(records, untimed)
    assert "matvecs" not in line and "residual lower/equal/higher 0/2/0" in line
    # the counts are information: a solve that moved only in them is no difference
    assert parity.differences(records, reference) == []


def test_counted_matvecs_counts_cg_applies_only_within_the_block(parity):
    solvers = parity.solvers
    real = solvers._pcg
    t = solvers.core.reconstruct(solvers.init_model((4, 5, 6), 2, 0))
    opts = parity.CpdOptions(rank=2, algorithm="gauss_newton", init=solvers.init_model((4, 5, 6), 2, 1))
    with parity.counted_matvecs() as count:
        _, counted = solvers.cpd(t, opts)
    assert count[0] > 0 and solvers._pcg is real
    # the count leaves the solve as it was, and ALS makes no CG solve
    assert solvers.cpd(t, opts)[1] == counted
    with parity.counted_matvecs() as count:
        solvers.cpd(t, parity.CpdOptions(rank=2, algorithm="als", init=1))
    assert count[0] == 0 and solvers._pcg is real


def test_cell_summaries_count_stop_reasons_where_the_records_have_them(parity):
    records = [record(0, 0.5, stop_reason="noise_floor", matvecs=1, scaled_ms=1.0),
               record(1, 0.5, stop_reason="stall", matvecs=1, scaled_ms=1.0),
               record(2, 0.5, stop_reason="noise_floor", matvecs=1, scaled_ms=1.0)]
    [summary] = parity.cell_summaries(records)
    assert summary.endswith(", stops noise_floor 2, stall 1")
    # records from before the field are summarized without the count
    [summary] = parity.cell_summaries([{k: v for k, v in r.items() if k != "stop_reason"} for r in records])
    assert "stops" not in summary
    # every solve records the stop reason of its diagnostics
    [rec] = [r for r in parity._solve_all(parity._ScaledTimer(), parity.solvers.core.reconstruct(
        parity.solvers.init_model((4, 5, 6), 2, 0)), 0, "noiseless", 2) if r["algorithm"] == "als"]
    assert rec["stop_reason"] == "stall" and rec["converged"]


def test_cell_comparisons_report_the_largest_objective_rise_in_noise_units(parity):
    # sigma^2 = ||r||^2 / dof of the reference solve, so a rise of the
    # relative residual from 0.5 to sqrt(0.25 (1 + 2e-3 / dof)) is a rise
    # of f = ||r||^2 / 2 by 1e-3 sigma^2, whatever the data's norm
    dof = 1000
    reference = [record(0, 0.5), record(1, 0.5), record(2, 0.5), record(3, 0.5, converged=False)]
    records = [record(0, 0.5 * np.sqrt(1 + 2e-3 / dof), dof=dof),
               record(1, 0.5 * np.sqrt(1 + 2e-5 / dof), dof=dof),
               record(2, 0.4, dof=dof),                        # a fall is no rise
               record(3, 0.9, dof=dof)]                        # not converged on both sides
    [line] = parity.cell_comparisons(records, reference)
    assert line.endswith("largest rise 0.001 sigma^2"), line
    assert parity._rise(reference[1], records[1]) == pytest.approx(1e-5, rel=1e-9)
    # only falls read 0; a NaN residual reads nan
    [line] = parity.cell_comparisons([records[2]], [reference[2]])
    assert line.endswith("largest rise 0 sigma^2"), line
    [line] = parity.cell_comparisons([record(0, float("nan"), dof=dof)], [reference[0]])
    assert line.endswith("largest rise nan sigma^2"), line
    # records from before the field are compared on everything else
    [line] = parity.cell_comparisons([{k: v for k, v in r.items() if k != "dof"} for r in records], reference)
    assert "sigma^2" not in line
    # every solve records the degrees of freedom of its tensor
    tensor = parity.solvers.core.reconstruct(parity.solvers.init_model((4, 5, 6), 2, 0))
    [rec] = [r for r in parity._solve_all(parity._ScaledTimer(), tensor, 0, "noiseless", 2) if r["algorithm"] == "als"]
    assert rec["dof"] == 4 * 5 * 6 - 2 * (4 + 5 + 6 - 2)


def test_seeds_extend_only_the_dense_and_masked_demo_conditions(parity, monkeypatch):
    # --seeds N runs the two demo conditions on seeds 0..N-1; every other
    # condition keeps its seeds, and the default keeps the 396 records
    def solve_all(timer, tensor, seed, condition, rank):
        yield {"seed": seed, "condition": condition}

    monkeypatch.setattr(parity, "_solve_all", solve_all)
    monkeypatch.setattr(parity, "_ScaledTimer", lambda: None)
    demo = ("dense", "masked_residuals")
    default, wider = list(parity.solves()), list(parity.solves(range(23)))
    assert [r for r in wider if r["condition"] not in demo] == [r for r in default if r["condition"] not in demo]
    for condition in demo:
        assert [r["seed"] for r in default if r["condition"] == condition] == list(range(20))
        assert [r["seed"] for r in wider if r["condition"] == condition] == list(range(23))
    seen = []
    monkeypatch.setattr(parity, "solves", lambda seeds: seen.append(seeds) or iter(()))
    assert parity.main([]) == 0 and parity.main(["--seeds", "200"]) == 0
    assert seen == [range(20), range(200)]
    with pytest.raises(SystemExit):
        parity.main(["--seeds", "0"])
