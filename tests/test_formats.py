"""Round-trip and strictness tests for the text file formats."""

import copy
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from cpdhr import cli
from cpdhr.core import IncompleteTensor
from cpdhr.formats import (
    SceneConfig,
    canonical_json,
    config_digest,
    load_config,
    load_report,
    load_signals,
    load_tensor,
    parse_config,
    parse_signals,
    parse_tensor,
    save_report,
    save_signals,
    save_tensor,
    serialize_masked,
    serialize_signals,
    serialize_tensor,
    slice_csv,
)
from cpdhr.scene import SourceSet


def crandn(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


BASE_CONFIG = {
    "grid_m1": 10,
    "grid_m2": 10,
    "time_len": 15,
    "snr_db": 0.0,
    "seed": 7,
    "rank": 3,
    "algorithm": "gauss_newton_als_warmstart",
    "signals": "synthetic",
    "sources": [
        {"azimuth_deg": 10.0, "elevation_deg": 20.0},
        {"azimuth_deg": 30.0, "elevation_deg": 30.0, "attenuation": 2.0},
        {"azimuth_deg": 70.0, "elevation_deg": 40.0},
    ],
}


class TestTensorFile:
    def test_scalar_example(self):
        text = serialize_tensor(np.array([[2.0 + 3.0j]])[:1, :1].reshape(1))
        assert text == "tns 1 1\n2.0000000000000000 3.0000000000000000\n"

    def test_first_index_fastest_payload(self):
        t = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F").astype(complex)
        lines = serialize_tensor(t).splitlines()
        assert lines[0] == "tns 3 2 2 2"
        res = [float(ln.split()[0]) for ln in lines[1:]]
        assert res == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_dense_roundtrip_bitwise(self):
        rng = np.random.default_rng(3)
        t = crandn(rng, 10, 10, 15)
        back = parse_tensor(serialize_tensor(t))
        assert isinstance(back, np.ndarray)
        assert np.array_equal(back, t)

    def test_incomplete_roundtrip(self):
        rng = np.random.default_rng(4)
        vals = crandn(rng, 4, 5, 3)
        mask = rng.random((4, 5, 3)) < 0.8
        mask[0, 0, 0] = True
        it = IncompleteTensor(vals, mask)
        back = parse_tensor(serialize_tensor(it))
        assert isinstance(back, IncompleteTensor)
        assert np.array_equal(back.mask, mask)
        assert np.array_equal(back.values, it.values)

    def test_single_sentinel_position(self):
        text = "tns 2 2 2\n1.0 0.0\n* *\n3.0 0.0\n4.0 0.0\n"
        t = parse_tensor(text)
        assert isinstance(t, IncompleteTensor)
        # second payload line is F-order position (1, 0)
        assert not t.mask[1, 0]
        assert t.mask.sum() == 3

    def test_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        t = crandn(rng, 3, 4, 2)
        p = tmp_path / "t.tns"
        save_tensor(t, p)
        assert np.array_equal(load_tensor(p), t)

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            parse_tensor("not a tensor\n")
        with pytest.raises(ValueError):
            parse_tensor("tns 2 2\n1.0 0.0\n")  # order/dims mismatch
        with pytest.raises(ValueError):
            parse_tensor("tns 1 2\n1.0 0.0\n")  # wrong line count
        with pytest.raises(ValueError):
            parse_tensor("tns 1 1\nabc def\n")
        with pytest.raises(ValueError):
            parse_tensor("tns 1 1\n1.0\n")
        with pytest.raises(ValueError):
            serialize_tensor(np.array([np.inf + 0j]))

    def test_non_finite_entries_rejected_with_line(self):
        # the same guard serialize_tensor applies on the way out
        for text, line in [("tns 1 2\nnan 0\ninf 1\n", 2),
                           ("tns 1 3\n1.0 0.0\n* *\n0.0 -inf\n", 4)]:
            with pytest.raises(ValueError, match=f"non-finite entry on line {line}"):
                parse_tensor(text)

    def test_oversized_header_hits_element_limit(self):
        # the element count must not wrap around before the size guard
        with pytest.raises(ValueError, match="exceeds limit"):
            parse_tensor("tns 2 9223372036854775807 2\n1.0 0.0\n")

    def test_serialization_deterministic(self):
        rng = np.random.default_rng(6)
        t = crandn(rng, 5, 5)
        assert serialize_tensor(t) == serialize_tensor(t.copy())

    def test_pinned_bytes(self):
        # extreme magnitudes, signed zeros and a masked entry, rendered exactly
        vals = np.array([complex(-0.0, 5e-324), complex(1.7976931348623157e308, -1e-300),
                         complex(9.0, 9.0), complex(1.0, -0.0)]).reshape((2, 2), order="F")
        mask = np.array([True, True, False, True]).reshape((2, 2), order="F")
        text = serialize_tensor(IncompleteTensor(vals, mask))
        assert text == (
            "tns 2 2 2\n"
            "-0.0000000000000000 4.9406564584124654e-324\n"
            "1.7976931348623157e+308 -1.0000000000000000e-300\n"
            "* *\n"
            "1.0000000000000000 -0.0000000000000000\n"
        )
        back = parse_tensor(text)
        assert back.values.tobytes() == IncompleteTensor(vals, mask).values.tobytes()

    def test_masked_text_from_the_dense_text_is_byte_identical(self):
        # every mask, none to all entries masked, at orders 1 to 4, signed
        # zeros included: the masked text built from the dense one is the
        # text serialize_tensor formats anew
        rng = np.random.default_rng(13)
        for shape in ((1,), (7,), (3, 4), (3, 4, 5), (2, 3, 2, 2)):
            t = crandn(rng, *shape)
            t.flat[0] = complex(-0.0, 0.0)
            dense = serialize_tensor(t)
            for fraction in (0.0, 0.3, 1.0):
                mask = rng.random(shape) >= fraction
                assert serialize_masked(dense, mask) == serialize_tensor(IncompleteTensor(t, mask)), (shape, fraction)
        with pytest.raises(ValueError, match="does not match"):
            serialize_masked(serialize_tensor(crandn(rng, 3, 4)), np.ones((4, 3), dtype=bool))

    def test_blank_lines_keep_physical_line_numbers(self):
        with pytest.raises(ValueError, match="non-finite entry on line 4"):
            parse_tensor("tns 1 2\n\n1 0\nnan 0\n")
        assert np.array_equal(parse_tensor("tns 1 2\n\n1 0\n\n2 0\n\n"), [1, 2])

    def test_fully_missing_fiber_and_slice_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        mask = np.ones((3, 4, 5), dtype=bool)
        mask[1, 2, :] = False  # one mode-3 fiber
        mask[:, :, 3] = False  # one frontal slice
        it = IncompleteTensor(crandn(rng, 3, 4, 5), mask)
        p = tmp_path / "m.tns"
        save_tensor(it, p)
        back = load_tensor(p)
        assert back.mask.tobytes() == mask.tobytes()
        assert back.values.tobytes() == it.values.tobytes()

    def test_failed_save_leaves_no_file(self, tmp_path):
        p = tmp_path / "t.tns"
        with pytest.raises(ValueError, match="finite"):
            save_tensor(np.array([1.0, np.nan]), p)
        assert not p.exists()


class TestSignalCsv:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        ss = SourceSet(rng.normal(size=(15, 3)), ["O1", "Oz", "O2"])
        back = parse_signals(serialize_signals(ss))
        assert back.labels == ["O1", "Oz", "O2"]
        assert np.array_equal(back.signals, ss.signals)

    def test_labels_roundtrip_as_written(self):
        rng = np.random.default_rng(10)
        ss = SourceSet(rng.normal(size=(5, 2)), [" a", "b "])
        assert parse_signals(serialize_signals(ss)).labels == [" a", "b "]

    def test_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        ss = SourceSet(rng.normal(size=(6, 2)))
        p = tmp_path / "s.csv"
        save_signals(ss, p)
        assert np.array_equal(load_signals(p).signals, ss.signals)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            parse_signals("a,b\n")  # no data rows
        with pytest.raises(ValueError):
            parse_signals("a,b\n1.0\n")  # ragged
        with pytest.raises(ValueError):
            parse_signals("a,b\n1.0,x\n")  # non-numeric
        with pytest.raises(ValueError):
            parse_signals("a,b\n1.0,1.0\n1.0,2.0\n")  # constant column

    def test_non_finite_cells_rejected_with_line(self):
        # the same guard serialize_signals applies on the way out
        for cell in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match="non-finite cell on line 3"):
                parse_signals(f"a,b\n1.0,2.0\n3.0,{cell}\n4.0,1.0\n")

    def test_pinned_bytes(self):
        ss = SourceSet(np.array([[-0.0, 1.0], [2.5, 3.0]]), ["a,b", "c"])
        text = serialize_signals(ss)
        assert text == (
            '"a,b",c\n'
            "-0.0000000000000000,1.0000000000000000\n"
            "2.5000000000000000,3.0000000000000000\n"
        )
        back = parse_signals(text)
        assert back.labels == ["a,b", "c"]
        assert back.signals.tobytes() == ss.signals.tobytes()

    def test_blank_lines_keep_physical_line_numbers(self):
        with pytest.raises(ValueError, match="non-finite cell on line 5"):
            parse_signals("a,b\n\n1.0,2.0\n\n3.0,nan\n")


def _parsed_cases():
    rng = np.random.default_rng(12)
    dense = np.ascontiguousarray(rng.normal(size=(3, 4, 5)) + 1j * rng.normal(size=(3, 4, 5)))
    mask = rng.random(dense.shape) < 0.7
    zeros = np.full((2, 3, 2), complex(-0.0, -0.0))
    zeros[0, 1, 1] = complex(1.5, -0.0)
    factor = np.ascontiguousarray(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
    return {
        "dense": dense,
        "masked": IncompleteTensor(dense, mask),
        "all observed": IncompleteTensor(dense, np.ones(dense.shape, dtype=bool)),
        "negative zeros": zeros,
        "negative zeros masked": IncompleteTensor(zeros, zeros.real != 0.0),
        "factor": factor,
        "factor view": factor[::2].T,
        "real": rng.normal(size=(4, 3)),
    }


class TestAsLoaded:
    """A tensor or signal set comes back from its text as the program
    computes in: C-contiguous, complex128 (float64 for signals), bitwise
    equal (%#.17g round-trips every finite float), and an IncompleteTensor
    with no hidden entry as a plain array. So the values run_pipeline
    hands on are the ones the commands run by hand read back."""

    @staticmethod
    def assert_same_array(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(order="C")

    @pytest.mark.parametrize("case", list(_parsed_cases()))
    def test_tensor_as_the_parser_returns_it(self, case):
        t = _parsed_cases()[case]
        got = parse_tensor(serialize_tensor(t))
        if isinstance(t, IncompleteTensor) and not t.mask.all():
            assert type(got) is IncompleteTensor
            self.assert_same_array(got.values, t.values)
            self.assert_same_array(got.mask, t.mask)
        else:
            assert type(got) is np.ndarray
            values = t.values if isinstance(t, IncompleteTensor) else t
            self.assert_same_array(got, np.asarray(values, dtype=np.complex128))

    def test_signals_as_the_parser_returns_them(self):
        rng = np.random.default_rng(13)
        signals = np.asfortranarray(rng.normal(size=(7, 3)))
        signals[2, 1] = -0.0
        ss = SourceSet(signals, ['a,"b"', " c", "d\ne"])
        got = parse_signals(serialize_signals(ss))
        assert type(got) is SourceSet
        assert got.labels == ss.labels
        self.assert_same_array(got.signals, signals)


class TestSceneConfig:
    def test_valid_config(self):
        cfg = parse_config(json.dumps(BASE_CONFIG))
        assert cfg.scene.shape == (10, 10, 15)
        assert cfg.scene.rank == 3
        assert [s.azimuth_deg for s in cfg.scene.sources] == [10.0, 30.0, 70.0]
        assert cfg.scene.sources[1].attenuation == 2.0
        assert cfg.snr_db == 0.0
        assert cfg.masks == []

    def test_null_snr_means_noiseless(self):
        doc = dict(BASE_CONFIG, snr_db=None)
        assert parse_config(json.dumps(doc)).snr_db is None

    def test_absent_snr_rejected(self):
        doc = {k: v for k, v in BASE_CONFIG.items() if k != "snr_db"}
        with pytest.raises(ValueError, match="snr_db"):
            parse_config(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = dict(BASE_CONFIG, extra=1)
        with pytest.raises(ValueError, match="extra"):
            parse_config(json.dumps(doc))
        doc = dict(BASE_CONFIG, sources=[dict(BASE_CONFIG["sources"][0], typo=2)])
        with pytest.raises(ValueError, match="typo"):
            parse_config(json.dumps(doc))

    def test_missing_data_strategy_key_refused(self):
        # every incomplete tensor is fitted on the masked objective, so a
        # config that names a missing-data strategy names an unknown key
        for strategy in ("masked_residuals", "expectation_imputation"):
            doc = dict(BASE_CONFIG, missing_data_strategy=strategy)
            with pytest.raises(ValueError, match=r"unknown key\(s\) \['missing_data_strategy'\]"):
                parse_config(json.dumps(doc))

    def test_masks_one_based_and_bounded(self):
        doc = dict(BASE_CONFIG, masks=[{"kind": "deactivated_sensor", "sensor": [1, 10]}])
        cfg = parse_config(json.dumps(doc))
        assert cfg.masks[0].sensor == (0, 9)
        doc = dict(BASE_CONFIG, masks=[{"kind": "deactivated_sensor", "sensor": [0, 1]}])
        with pytest.raises(ValueError, match="grid"):
            parse_config(json.dumps(doc))
        doc = dict(BASE_CONFIG, masks=[{"kind": "deactivated_sensor", "sensor": [11, 1]}])
        with pytest.raises(ValueError, match="grid"):
            parse_config(json.dumps(doc))

    def test_rank_below_the_source_count_refused(self):
        # the evaluation pairs every source with a column of the estimate;
        # a rank above the source count stays allowed (criterion 7 pads)
        with pytest.raises(ValueError, match="rank 2 is below the 3 sources"):
            parse_config(json.dumps(dict(BASE_CONFIG, rank=2)))
        assert parse_config(json.dumps(dict(BASE_CONFIG, rank=4))).rank == 4

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            parse_config(json.dumps(dict(BASE_CONFIG, algorithm="nope")))
        with pytest.raises(ValueError):
            parse_config(json.dumps(dict(BASE_CONFIG, rank=0)))
        bad_src = dict(BASE_CONFIG, sources=[{"azimuth_deg": 95.0, "elevation_deg": 20.0}])
        with pytest.raises(ValueError):
            parse_config(json.dumps(bad_src))
        with pytest.raises(ValueError):
            parse_config("not json at all {")

    @pytest.mark.parametrize("doc, key", [
        (dict(BASE_CONFIG, rank="3"), "rank"),
        (dict(BASE_CONFIG, sources=[5]), "sources"),
        (dict(BASE_CONFIG, masks=5), "masks"),
        (dict(BASE_CONFIG, masks=[5]), "masks"),
        (dict(BASE_CONFIG, sources=[{"azimuth_deg": None, "elevation_deg": 20.0}]), "azimuth_deg"),
        (dict(BASE_CONFIG, rank=2.5), "rank"),
        (dict(BASE_CONFIG, seed=1.5), "seed"),
        (dict(BASE_CONFIG, grid_m1=10.7), "grid_m1"),
        (dict(BASE_CONFIG, snr_db=True), "snr_db"),
        (dict(BASE_CONFIG, snr_db=math.nan), "snr_db"),
        (dict(BASE_CONFIG, snr_db=math.inf), "snr_db"),
        (dict(BASE_CONFIG, sources=[{"azimuth_deg": 30.0, "elevation_deg": 20.0,
                                     "attenuation": math.inf}]), "attenuation"),
    ])
    def test_wrong_json_types_rejected(self, doc, key, tmp_path):
        with pytest.raises(ValueError, match=key):
            parse_config(json.dumps(doc))
        if doc["rank"] == "3":
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            assert cli.main(["simulate", str(cfg), str(tmp_path / "out")]) == 1

    def test_negative_seed_refused_before_any_file(self, tmp_path, capsys):
        doc = dict(BASE_CONFIG, seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            parse_config(json.dumps(doc))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["pipeline", str(cfg), str(out)]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not [p for p in out.rglob("*") if p.is_file()]

    def test_digest_matches_sha256(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
        assert config_digest(p.read_bytes()) == hashlib.sha256(p.read_bytes()).hexdigest()


class TestReports:
    def test_canonical_json_sorted_and_stable(self):
        doc = {"b": 1.5, "a": [1, 2], "c": {"y": 0.1, "x": -2}}
        out = canonical_json(doc)
        assert out.index('"a"') < out.index('"b"') < out.index('"c"')
        assert out == canonical_json(json.loads(out))

    def test_save_load(self, tmp_path):
        doc = {"errors": [0.1, 0.2], "converged": True}
        p = tmp_path / "r.json"
        save_report(doc, p)
        assert load_report(p) == doc


class TestSliceCsv:
    def test_shape_and_magnitudes(self):
        t = np.zeros((10, 10, 15), dtype=complex)
        t[2, 3, 0] = 3.0 + 4.0j
        rows = slice_csv(t, mode=3, index=1).splitlines()
        assert len(rows) == 10
        assert all(len(r.split(",")) == 10 for r in rows)
        assert rows[2].split(",")[3] == "5.0000000000000000"

    def test_masked_cells_empty(self):
        vals = np.ones((4, 4, 6), dtype=complex)
        mask = np.ones((4, 4, 6), dtype=bool)
        mask[1, 2, 3] = False
        it = IncompleteTensor(vals, mask)
        rows = slice_csv(it, mode=3, index=4).splitlines()
        cells = rows[1].split(",")
        assert cells[2] == ""
        assert cells[1] != ""

    def test_masked_cell_alone_on_its_row_is_quoted(self):
        # a slice of an order-2 tensor is one column; an empty row would be no row
        it = IncompleteTensor(np.full((2, 2), 3.0 + 4.0j), np.array([[True, False], [True, True]]))
        assert slice_csv(it, 2, 2) == '""\n5.0000000000000000\n'

    def test_zero_tensor(self):
        rows = slice_csv(np.zeros((2, 3, 4), dtype=complex), 1, 2).splitlines()
        assert len(rows) == 3
        assert set(rows[0].split(",")) == {"0.0000000000000000"}

    def test_out_of_range(self):
        # mode and index are 1-based, and so are the values the errors name
        t = np.ones((2, 3, 4), dtype=complex)
        for mode in (0, 4):
            with pytest.raises(ValueError, match=f"^mode {mode} out of range for order-3 tensor$"):
                slice_csv(t, mode, 1)
        for index in (0, 4):
            with pytest.raises(ValueError, match=f"^index {index} out of range for extent 3$"):
                slice_csv(t, 2, index)


def _random_tensor(rng):
    shape = tuple(int(d) for d in rng.integers(1, 5, size=rng.integers(1, 5)))
    values = crandn(rng, *shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    mask = rng.random(shape) < rng.uniform(0.3, 1.3)
    return values if mask.all() else IncompleteTensor(values, mask)


def _random_signals(rng, labels):
    width = int(rng.integers(1, 5))
    signals = rng.normal(size=(int(rng.integers(2, 12)), width))
    signals *= 10.0 ** rng.integers(-100, 100, size=width)
    return SourceSet(signals, [f"s{r}{labels[r % len(labels)]}" for r in range(width)])


def _corrupt(rng, text, sep):
    """One edit of one line: (edited text, 1-based line of the edit, edit)."""
    lines = text.splitlines()
    k = int(rng.integers(len(lines)))
    cells = lines[k].split(sep)
    j = int(rng.integers(len(cells)))
    edit = rng.choice(["drop", "duplicate", "replace", "insert", "blank"])
    if edit == "drop":
        del cells[j]
    elif edit == "replace":
        cells[j] = rng.choice(["nan", "x", "*"])
    elif edit == "insert":
        cells.insert(j, rng.choice(["nan", "x", "*"]))
    if edit == "duplicate":
        lines.insert(k, lines[k])
        k += 1
    elif edit == "blank":
        lines.insert(k, "")
    else:
        lines[k] = sep.join(cells)
    return "\n".join(lines) + "\n", k + 1, edit


class TestFuzz:
    """Seeded property tests of the tensor, CSV and config parsers."""

    def test_random_roundtrips_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = _random_tensor(rng)
            back = parse_tensor(serialize_tensor(t))
            assert type(back) is type(t)
            if isinstance(t, IncompleteTensor):
                assert back.mask.tobytes() == t.mask.tobytes()
                back, t = back.values, t.values
            assert back.tobytes() == t.tobytes()

            ss = _random_signals(rng, ["", "a,b", 'q"', "x y"])
            back = parse_signals(serialize_signals(ss))
            assert back.labels == ss.labels
            assert back.signals.tobytes() == ss.signals.tobytes()

    def test_one_edit_corruptions_raise_only_value_error(self):
        rng = np.random.default_rng(12)
        outcomes = {"parsed": 0, "rejected": 0, "line named": 0}
        for trial in range(200):
            if trial % 2:
                parse, sep = parse_tensor, " "
                text = serialize_tensor(_random_tensor(rng))
            else:
                parse, sep = parse_signals, ","
                text = serialize_signals(_random_signals(rng, ["a"]))
            bad, line, edit = _corrupt(rng, text, sep)
            try:
                parse(bad)
            except ValueError as exc:
                outcomes["rejected"] += 1
                named = re.search(r"\bline (\d+)", str(exc))
                # a header edit may surface at the first data row, which
                # is then the line that no longer fits the header
                if named and line > 1:
                    outcomes["line named"] += 1
                    assert int(named.group(1)) == line, (bad, exc)
                assert not (edit == "blank" and line > 1), (bad, exc)
            else:
                outcomes["parsed"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_config_mutations_raise_only_value_error(self):
        demo = Path(__file__).resolve().parents[1] / "configs" / "demo_scene.json"
        doc = json.loads(demo.read_text(encoding="utf-8"))
        rng = np.random.default_rng(13)
        others = [None, True, 0, -3, 2.5, "x", [], [1, 2], {}, {"a": 1}]

        def slots(node):
            keys = node if isinstance(node, dict) else range(len(node))
            for key in keys:
                yield node, key
                if isinstance(node[key], (dict, list)):
                    yield from slots(node[key])

        outcomes = {"parsed": 0, "rejected": 0}
        for _ in range(200):
            mutated = copy.deepcopy(doc)
            all_slots = list(slots(mutated))
            node, key = all_slots[rng.integers(len(all_slots))]
            if rng.random() < 0.3:
                del node[key]
            else:
                node[key] = others[rng.integers(len(others))]
            try:
                parse_config(json.dumps(mutated))
                outcomes["parsed"] += 1
            except ValueError:
                outcomes["rejected"] += 1
        assert min(outcomes.values()) >= 10, outcomes
