"""Command line behavior: argument handling, exit codes, artifact flow."""

import json

import numpy as np
import pytest

from cpdhr import cli, formats
from cpdhr.cli import _parse_seed_range
from cpdhr.core import IncompleteTensor
from cpdhr.pipeline import INIT_SEED_OFFSET
from cpdhr.solvers import CpdOptions


CONFIG = {
    "grid_m1": 6,
    "grid_m2": 6,
    "time_len": 12,
    "snr_db": None,
    "seed": 4,
    "rank": 2,
    "algorithm": "gauss_newton_als_warmstart",
    "signals": "synthetic",
    "sources": [
        {"azimuth_deg": 20.0, "elevation_deg": 30.0},
        {"azimuth_deg": 60.0, "elevation_deg": 45.0},
    ],
}


def write_config(path, **overrides):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(formats.canonical_json(dict(CONFIG, **overrides)))
    return str(path)


def files_under(root):
    return [p for p in root.rglob("*") if p.is_file()]


def test_parse_seed_range():
    assert _parse_seed_range("0..3") == [0, 1, 2, 3]
    assert _parse_seed_range("7") == [7]
    assert _parse_seed_range("5..5") == [5]
    with pytest.raises(ValueError, match="empty seed range"):
        _parse_seed_range("3..1")
    with pytest.raises(ValueError, match="bad seed range"):
        _parse_seed_range("a..b")
    with pytest.raises(ValueError, match="bad seed value"):
        _parse_seed_range("x")


def test_negative_seeds_refused_before_any_file(tmp_path, capsys):
    for text in ("-2..-1", "-1..3", "-4"):
        with pytest.raises(ValueError, match="--seeds .*must be >= 0"):
            _parse_seed_range(text)
    cfg = write_config(tmp_path / "config.json")
    out = tmp_path / "out"
    assert cli.main(["pipeline", cfg, str(out), "--seeds=-2..-1"]) == 1
    assert "--seeds" in capsys.readouterr().err
    assert not files_under(out)


def test_decompose_refuses_a_negative_seed(tmp_path, capsys):
    tensor = tmp_path / "t.tns"
    tensor.write_text("tns 1 3\n1.0 0.0\n2.0 0.0\n3.0 0.0\n", encoding="utf-8")
    out = tmp_path / "est"
    assert cli.main(["decompose", str(tensor), str(out), "--rank", "1", "--seed=-5"]) == 1
    assert "init seed must be >= 0" in capsys.readouterr().err
    assert not files_under(out)


def test_subcommand_chain_exit_codes(tmp_path):
    cfg = write_config(tmp_path / "config.json")
    truth = str(tmp_path / "truth")
    est = str(tmp_path / "estimate")

    assert cli.main(["simulate", cfg, truth]) == 0
    assert cli.main([
        "decompose", f"{truth}/clean.tns", est,
        "--rank", "2", "--seed", str(4 + INIT_SEED_OFFSET),
    ]) == 0
    assert cli.main(["evaluate", truth, est, str(tmp_path / "report.json")]) == 0
    report = formats.load_report(tmp_path / "report.json")
    assert max(report["cpderr"]["per_mode_relative_error"]) < 1e-6

    out_csv = tmp_path / "slice.csv"
    assert cli.main([
        "slices", f"{truth}/clean.tns", str(out_csv), "--mode", "3", "--index", "1",
    ]) == 0
    rows = out_csv.read_text(encoding="utf-8").strip().split("\n")
    assert len(rows) == 6 and len(rows[0].split(",")) == 6

    out_svg = tmp_path / "fig.svg"
    assert cli.main([
        "plot", f"{truth}/sources.csv", f"{est}/aligned_sources.csv", str(out_svg),
    ]) == 0
    assert out_svg.read_text(encoding="utf-8").startswith("<svg")


def test_validation_failures_exit_1(tmp_path, capsys):
    assert cli.main(["simulate", str(tmp_path / "absent.json"), str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err

    cfg = write_config(tmp_path / "bad.json", snr_db="loud")
    assert cli.main(["simulate", cfg, str(tmp_path / "o")]) == 1

    good = write_config(tmp_path / "config.json")
    truth = str(tmp_path / "truth")
    assert cli.main(["simulate", good, truth]) == 0
    assert cli.main([
        "slices", f"{truth}/clean.tns", str(tmp_path / "s.csv"),
        "--mode", "3", "--index", "13",
    ]) == 1
    assert cli.main([
        "slices", f"{truth}/clean.tns", str(tmp_path / "s.csv"),
        "--mode", "4", "--index", "1",
    ]) == 1


def test_evaluate_of_overflowing_factors_exits_1(tmp_path, capsys):
    # factors near 1e160 are finite on disk, but their congruences are
    # inf/inf = NaN; evaluate reports that and writes no report
    cfg = write_config(tmp_path / "config.json")
    truth = tmp_path / "truth"
    est = tmp_path / "estimate"
    assert cli.main(["simulate", cfg, str(truth)]) == 0
    assert cli.main([
        "decompose", str(truth / "clean.tns"), str(est),
        "--rank", "2", "--seed", str(4 + INIT_SEED_OFFSET),
    ]) == 0
    for path in [*truth.glob("truth_mode*.tns"), *est.glob("factor_mode*.tns")]:
        formats.save_tensor(np.full(formats.load_tensor(path).shape, 1e160 + 0j), path)
    out = tmp_path / "report.json"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["evaluate", str(truth), str(est), str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_rejected_slices_exit_1_and_write_nothing(tmp_path, capsys):
    vec = tmp_path / "v.tns"
    vec.write_text("tns 1 3\n1.0 0.0\n2.0 0.0\n3.0 0.0\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    for mode in ("1", "2"):
        assert cli.main(["slices", str(vec), str(out), "--mode", mode, "--index", "1"]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--mode", "0", "--index", "1"], "mode 0 out of range for order-3 tensor"),
    (["--mode", "4", "--index", "1"], "mode 4 out of range for order-3 tensor"),
    (["--mode", "3", "--index", "0"], "index 0 out of range for extent 12"),
    (["--mode", "3", "--index", "13"], "index 13 out of range for extent 12"),
], ids=["mode 0", "mode past the order", "index 0", "index past the extent"])
def test_rejected_slices_name_the_1_based_values_typed(tmp_path, capsys, argv, message):
    truth = tmp_path / "truth"
    assert cli.main(["simulate", write_config(tmp_path / "config.json"), str(truth)]) == 0
    out = tmp_path / "s.csv"
    assert cli.main(["slices", str(truth / "clean.tns"), str(out), *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("directory,name", [("truth", "truth_mode2.tns"), ("estimate", "factor_mode1.tns")])
def test_evaluate_of_a_masked_factor_file_exits_1(tmp_path, capsys, directory, name):
    truth, est, report = tmp_path / "truth", tmp_path / "estimate", tmp_path / "report.json"
    assert cli.main(["simulate", write_config(tmp_path / "config.json"), str(truth)]) == 0
    assert cli.main(["decompose", str(truth / "clean.tns"), str(est), "--rank", "2", "--seed", "0"]) == 0
    path = tmp_path / directory / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = "* *\n"
    path.write_text("".join(lines), encoding="utf-8")
    written = files_under(tmp_path)
    assert cli.main(["evaluate", str(truth), str(est), str(report)]) == 1
    assert capsys.readouterr().err == f"error: {path}: a factor file cannot have masked entries\n"
    assert files_under(tmp_path) == written


def test_usage_errors_exit_1_not_2(tmp_path, capsys):
    # argparse would exit 2 on its own; 2 is reserved for non-convergence
    assert cli.main(["decompose", "x.tns", "out"]) == 1
    assert cli.main(["no-such-command"]) == 1
    capsys.readouterr()


def test_decompose_refuses_a_missing_data_strategy_as_a_usage_error(tmp_path, capsys):
    # the flag is gone with the imputation solver: argparse refuses it
    # before any file is written, and main folds its usage exit into 1
    tensor = tmp_path / "t.tns"
    tensor.write_text("tns 1 3\n1.0 0.0\n2.0 0.0\n3.0 0.0\n", encoding="utf-8")
    out = tmp_path / "est"
    argv = ["decompose", str(tensor), str(out), "--rank", "1", "--seed", "0",
            "--missing-data-strategy", "masked_residuals"]
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cpdhr")
    assert "unrecognized arguments: --missing-data-strategy masked_residuals" in err
    assert cli.main(argv) == 1
    capsys.readouterr()
    assert not files_under(out)


def test_pipeline_single_and_sweep(tmp_path):
    cfg = write_config(tmp_path / "config.json", snr_db=0.0)
    single = tmp_path / "single"
    assert cli.main(["pipeline", cfg, str(single)]) == 0
    assert (single / "report.json").exists()
    assert (single / "fig_sources.svg").exists()

    sweep = tmp_path / "sweep"
    assert cli.main(["pipeline", cfg, str(sweep), "--seeds", "0..2"]) == 0
    summary = formats.load_report(sweep / "summary.json")
    assert summary["seeds"] == [0, 1, 2]
    assert summary["n_converged"] == 3


def test_rank_below_the_source_count_exits_1_and_writes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json", rank=1)
    for argv in (["simulate"], ["pipeline"], ["pipeline", "--seeds", "0..1"]):
        out = tmp_path / "out"
        assert cli.main([argv[0], cfg, str(out), *argv[1:]]) == 1, argv
        assert "rank 1 is below the 2 sources" in capsys.readouterr().err, argv
        assert not out.exists(), argv


def test_evaluate_refuses_an_estimate_with_fewer_columns_than_sources(tmp_path, capsys):
    truth, est, report = tmp_path / "truth", tmp_path / "estimate", tmp_path / "report.json"
    assert cli.main(["simulate", write_config(tmp_path / "config.json"), str(truth)]) == 0
    assert cli.main(["decompose", str(truth / "clean.tns"), str(est), "--rank", "1", "--seed", "0"]) == 0
    written = files_under(tmp_path)
    assert cli.main(["evaluate", str(truth), str(est), str(report)]) == 1
    assert "estimate rank 1 is below the 2 sources" in capsys.readouterr().err
    assert files_under(tmp_path) == written


@pytest.mark.parametrize("text,message", [
    ('{"converged": true}', "missing required key 'iterations'"),
    ("[1, 2]", "diagnostics must be a JSON object"),
    ('{"iterations": 3, "converged": "yes", "final_relative_residual": 0.1}', 'converged must be a bool, got "yes"'),
    ('{"iterations": 3.0, "converged": true, "final_relative_residual": 0.1}', "iterations must be an integer, got 3.0"),
    ('{"iterations": 3,', "diagnostics are not valid JSON: Expecting property name"),
], ids=["missing key", "array", "mistyped bool", "mistyped integer", "invalid JSON"])
def test_evaluate_of_a_malformed_diagnostics_file_exits_1(tmp_path, capsys, text, message):
    truth, est, report = tmp_path / "truth", tmp_path / "estimate", tmp_path / "report.json"
    assert cli.main(["simulate", write_config(tmp_path / "config.json"), str(truth)]) == 0
    assert cli.main(["decompose", str(truth / "clean.tns"), str(est), "--rank", "2", "--seed", "0"]) == 0
    diagnostics = est / "diagnostics.json"
    diagnostics.write_text(text, encoding="utf-8")
    written = files_under(tmp_path)
    assert cli.main(["evaluate", str(truth), str(est), str(report)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {diagnostics}: {message}")
    assert files_under(tmp_path) == written


def test_invalid_config_refused_before_anything_is_written(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", grid_m1=0)
    for seeds in ([], ["--seeds", "0..1"]):
        out = tmp_path / "out"
        assert cli.main(["pipeline", cfg, str(out), *seeds]) == 1, seeds
        assert "grid extents must be >= 1" in capsys.readouterr().err, seeds
        assert not out.exists(), seeds
    # a signals file with one column for the two sources
    signals = tmp_path / "signals.csv"
    signals.write_text("a\n" + "".join(f"{k}.0\n" for k in range(CONFIG["time_len"])), encoding="utf-8")
    cfg = write_config(tmp_path / "one_column.json", signals=str(signals))
    for argv in (["simulate"], ["pipeline"], ["pipeline", "--seeds", "0..1"]):
        out = tmp_path / "out"
        assert cli.main([argv[0], cfg, str(out), *argv[1:]]) == 1, argv
        assert "does not match scene" in capsys.readouterr().err, argv
        assert not out.exists(), argv


def test_snr_beyond_the_noise_scale_refused_before_anything_is_written(tmp_path, capsys):
    for snr_db in (7000.0, -7000.0):
        cfg = write_config(tmp_path / "config.json", snr_db=snr_db)
        for argv in (["simulate"], ["pipeline"], ["pipeline", "--seeds", "0..1"]):
            out = tmp_path / "out"
            assert cli.main([argv[0], cfg, str(out), *argv[1:]]) == 1, (snr_db, argv)
            err = capsys.readouterr().err
            assert err.startswith("error:") and "snr_db" in err, (snr_db, argv)
            assert not out.exists(), (snr_db, argv)


def test_decompose_defaults_to_the_solver_default_algorithm():
    args = cli.build_parser().parse_args(["decompose", "t.tns", "out", "--rank", "2", "--seed", "0"])
    assert args.algorithm == CpdOptions(rank=2).algorithm


def test_pipeline_on_a_one_row_array_exits_0_with_every_source_unread(tmp_path):
    # no shift invariance along a one-row axis: each source's DOA block entry
    # says why instead of the run failing
    cfg = write_config(tmp_path / "config.json", grid_m1=1)
    assert cli.main(["pipeline", cfg, str(tmp_path / "run")]) == 0
    doa = formats.load_report(tmp_path / "run" / "report.json")["doa"]
    assert doa["reason"] == ["steering modes need at least 2 rows for shift invariance"] * 2
    assert all(np.isnan(doa["azimuth_deg"] + doa["elevation_deg"]))
    assert doa["azimuth_rel_err"] + doa["elevation_rel_err"] == [float("inf")] * 4


def test_decompose_nonconvergence_exits_2(tmp_path):
    # the sum of the outer products x0 o x1 o y2, x0 o y1 o x2 and
    # y0 o x1 o x2 has rank 3 but is a limit of rank-2 tensors, so it has
    # no best rank-2 approximation (de Silva & Lim, SIAM J. Matrix Anal.
    # Appl. 2008): a rank-2 fit drives its residual towards zero while its
    # factors diverge, and after 500 iterations it has no minimum to
    # certify. One entry is missing, so the tensor gets the seeded start.
    # The solver must say so via the code, and still write its artifacts.
    rng = np.random.default_rng(0)
    x, y = np.moveaxis(rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2)), 2, 0)
    t = sum(np.einsum("i,j,k->ijk", *(y[n] if n == m else x[n] for n in range(3))) for m in range(3))
    mask = np.ones(t.shape, dtype=bool)
    mask[0, 0, 0] = False
    tensor = tmp_path / "degenerate.tns"
    formats.save_tensor(IncompleteTensor(t, mask), tensor)
    code = cli.main(["decompose", str(tensor), str(tmp_path / "est"), "--rank", "2", "--seed", "0"])
    assert code == 2
    diag = formats.load_report(tmp_path / "est" / "diagnostics.json")
    assert diag["converged"] is False
    assert (tmp_path / "est" / "factor_mode1.tns").exists()
