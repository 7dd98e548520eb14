"""Round-trip and strictness tests for the text file formats."""

import hashlib
import json

import numpy as np
import pytest

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

    def test_oversized_header_hits_element_limit(self):
        # the element count must not wrap around before the size guard
        with pytest.raises(ValueError, match="exceeds limit"):
            parse_tensor("tns 2 9223372036854775807 2\n1.0 0.0\n")

    def test_serialization_deterministic(self):
        rng = np.random.default_rng(6)
        t = crandn(rng, 5, 5)
        assert serialize_tensor(t) == serialize_tensor(t.copy())


class TestSignalCsv:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        ss = SourceSet(rng.normal(size=(15, 3)), ["O1", "Oz", "O2"])
        back = parse_signals(serialize_signals(ss))
        assert back.labels == ["O1", "Oz", "O2"]
        assert np.array_equal(back.signals, ss.signals)

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

    def test_digest_matches_sha256(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
        assert config_digest(p) == hashlib.sha256(p.read_bytes()).hexdigest()


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
        rows = slice_csv(t, mode=2, index=0).splitlines()
        assert len(rows) == 10
        assert all(len(r.split(",")) == 10 for r in rows)
        assert rows[2].split(",")[3] == "5.0000000000000000"

    def test_masked_cells_empty(self):
        vals = np.ones((4, 4, 6), dtype=complex)
        mask = np.ones((4, 4, 6), dtype=bool)
        mask[1, 2, 3] = False
        it = IncompleteTensor(vals, mask)
        rows = slice_csv(it, mode=2, index=3).splitlines()
        cells = rows[1].split(",")
        assert cells[2] == ""
        assert cells[1] != ""

    def test_zero_tensor(self):
        rows = slice_csv(np.zeros((2, 3, 4), dtype=complex), 0, 1).splitlines()
        assert len(rows) == 3
        assert set(rows[0].split(",")) == {"0.0000000000000000"}

    def test_out_of_range(self):
        t = np.ones((2, 3, 4), dtype=complex)
        with pytest.raises(ValueError):
            slice_csv(t, 3, 0)
        with pytest.raises(ValueError):
            slice_csv(t, 2, 4)
