"""Scene synthesis, noise calibration, masks, and DOA recovery."""

import cmath
import math
from functools import reduce

import numpy as np
import pytest

from cpdhr import metrics
from cpdhr.core import CpdModel, reconstruct
from cpdhr.pipeline import INIT_SEED_OFFSET, NOISE_SEED_OFFSET
from cpdhr.scene import (
    DoaScene,
    MaskPattern,
    SourceSet,
    SourceSpec,
    _truth_steering_model,
    add_noise,
    apply_mask,
    build_scene_tensor,
    default_scene,
    doa_from_generators,
    estimate_doa,
    estimate_generator,
    steering_vector,
    synthetic_sources,
)
from cpdhr.solvers import CpdOptions, cpd


def steering_oracle(az_deg, el_deg, axis, m):
    """Independent construction straight from the phase definition."""
    el = math.radians(el_deg)
    az = math.radians(az_deg)
    trig = math.cos(az) if axis == 1 else math.sin(az)
    phase = math.pi * math.sin(el) * trig
    return np.array([cmath.exp(1j * phase * q) for q in range(m)])


def _outer_product(vectors):
    """Entry (i_1, ..., i_N) is the product of v_n[i_n]."""
    return reduce(np.multiply.outer, vectors)


class TestSteeringVector:
    def test_hand_example(self):
        v = steering_vector(30.0, 30.0, axis=1, m=3)
        # sin(30) cos(30) = 0.4330127...
        phase = math.pi * 0.5 * math.sqrt(3) / 2
        expected = np.array([1.0, cmath.exp(1j * phase), cmath.exp(2j * phase)])
        assert np.allclose(v, expected, atol=1e-15)
        assert abs(phase / math.pi - 0.4330127) < 1e-6

    def test_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            az = rng.uniform(1.0, 89.0)
            el = rng.uniform(1.0, 89.0)
            axis = int(rng.integers(1, 3))
            m = int(rng.integers(1, 12))
            got = steering_vector(az, el, axis, m)
            assert np.allclose(got, steering_oracle(az, el, axis, m), atol=1e-13)

    def test_unit_modulus(self):
        v = steering_vector(55.0, 70.0, axis=2, m=10)
        assert np.allclose(np.abs(v), 1.0, atol=1e-14)

    def test_bounds(self):
        for az, el in [(0.0, 30.0), (90.0, 30.0), (30.0, 0.0), (30.0, 90.0), (-5.0, 30.0)]:
            with pytest.raises(ValueError):
                steering_vector(az, el, axis=1, m=4)
        with pytest.raises(ValueError):
            steering_vector(30.0, 30.0, axis=3, m=4)
        with pytest.raises(ValueError):
            steering_vector(30.0, 30.0, axis=1, m=0)

    def test_truth_steering_model_is_the_steering_vectors(self):
        rng = np.random.default_rng(32)
        sources = [SourceSpec(*rng.uniform(1.0, 89.0, 2)) for _ in range(4)]
        doa_scene = DoaScene(sources=sources, grid_m1=7, grid_m2=11)
        a, b = _truth_steering_model(doa_scene).factors
        for axis, factor, m in ((1, a, 7), (2, b, 11)):
            columns = np.column_stack(
                [steering_vector(s.azimuth_deg, s.elevation_deg, axis, m) for s in sources]
            )
            assert np.array_equal(factor, columns), axis


class TestSceneTensor:
    def test_rank_one_is_outer_product(self):
        scene = DoaScene(sources=[SourceSpec(30.0, 30.0, attenuation=2.0)], grid_m1=4,
                         grid_m2=5, time_len=6)
        sig = np.linspace(1.0, 2.0, 6)[:, None]
        t, truth = build_scene_tensor(scene, SourceSet(sig))
        a = steering_oracle(30.0, 30.0, 1, 4)
        b = steering_oracle(30.0, 30.0, 2, 5)
        expected = _outer_product([a, b, 2.0 * sig[:, 0]])
        assert np.allclose(t, expected, atol=1e-14)
        assert truth.rank == 1

    def test_truth_model_reconstructs(self):
        scene = default_scene()
        srcs = synthetic_sources(scene.time_len, scene.rank, seed=7)
        t, truth = build_scene_tensor(scene, srcs)
        assert t.shape == (10, 10, 15)
        assert np.allclose(reconstruct(truth), t, atol=1e-12)

    def test_attenuation_scales_linearly(self):
        specs = [SourceSpec(25.0, 35.0, attenuation=1.0)]
        specs2 = [SourceSpec(25.0, 35.0, attenuation=3.0)]
        sig = SourceSet(np.sin(np.arange(8))[:, None] + 0.3)
        t1, _ = build_scene_tensor(DoaScene(specs, 4, 4, 8), sig)
        t3, _ = build_scene_tensor(DoaScene(specs2, 4, 4, 8), sig)
        assert np.allclose(t3, 3.0 * t1, atol=1e-13)

    def test_signal_shape_mismatch(self):
        scene = default_scene()
        with pytest.raises(ValueError):
            build_scene_tensor(scene, SourceSet(np.random.default_rng(0).normal(size=(9, 3))))

    def test_scene_validation(self):
        with pytest.raises(ValueError):
            DoaScene(sources=[])
        with pytest.raises(ValueError):
            DoaScene(sources=[SourceSpec(30.0, 30.0)], time_len=1)
        with pytest.raises(ValueError):
            SourceSpec(30.0, 30.0, attenuation=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="attenuation"):
                SourceSpec(30.0, 30.0, attenuation=bad)

    def test_constant_column_rejected(self):
        with pytest.raises(ValueError):
            SourceSet(np.ones((5, 1)))


class TestAddNoise:
    def test_exact_calibration_across_range(self):
        rng = np.random.default_rng(77)
        t = rng.normal(size=(6, 5, 7)) + 1j * rng.normal(size=(6, 5, 7))
        t_norm = np.linalg.norm(t.ravel())
        for snr in np.linspace(-20.0, 60.0, 17):
            noisy = add_noise(t, snr, seed=3)
            achieved = 20.0 * np.log10(t_norm / np.linalg.norm((noisy - t).ravel()))
            assert abs(achieved - snr) < 1e-12

    def test_zero_db_means_equal_norms(self):
        scene = default_scene()
        t, _ = build_scene_tensor(scene, synthetic_sources(15, 3, seed=1))
        noisy = add_noise(t, 0.0, seed=9)
        ratio = np.linalg.norm((noisy - t).ravel()) / np.linalg.norm(t.ravel())
        assert abs(ratio - 1.0) < 1e-12

    def test_high_snr_is_tiny(self):
        t = np.ones((3, 3, 3), dtype=complex)
        noisy = add_noise(t, 200.0, seed=2)
        rel = np.linalg.norm((noisy - t).ravel()) / np.linalg.norm(t.ravel())
        # measuring the perturbation back through subtraction is limited by
        # float64 rounding of t + noise, not by the calibration itself
        assert abs(rel - 1e-10) < 1e-16

    def test_deterministic(self):
        t = np.full((4, 4, 4), 1.0 + 1.0j)
        assert np.array_equal(add_noise(t, 10.0, seed=5), add_noise(t, 10.0, seed=5))
        assert not np.array_equal(add_noise(t, 10.0, seed=5), add_noise(t, 10.0, seed=6))

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros((2, 2, 2)), 10.0, seed=0)

    def test_non_finite_snr_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="snr_db"):
                add_noise(np.ones((2, 2, 2)), bad, seed=0)

    def test_snr_beyond_the_noise_scale_rejected(self):
        # 10^(7000/20) overflows a float and 10^(-7000/20) rounds to zero:
        # the noise norm would be 0 or infinite
        for bad in (7000.0, -7000.0):
            with pytest.raises(ValueError, match="snr_db"):
                add_noise(np.ones((2, 2, 2)), bad, seed=0)


class TestGeneratorEstimate:
    def test_exact_on_clean_vandermonde(self):
        z = cmath.exp(1j * 0.77)
        v = z ** np.arange(9)
        assert abs(estimate_generator(v) - z) < 1e-14

    def test_scale_invariant(self):
        z = cmath.exp(1j * 1.9)
        v = (3.0 - 2.0j) * z ** np.arange(6)
        assert abs(estimate_generator(v) - z) < 1e-14

    def test_noise_robustness(self):
        z = cmath.exp(1j * 1.1)
        v0 = z ** np.arange(10)
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pert = rng.normal(size=10) + 1j * rng.normal(size=10)
            v = v0 + 1e-3 * pert / np.linalg.norm(pert) * np.linalg.norm(v0)
            errs.append(abs(estimate_generator(v) - z))
        med = np.median(errs)
        assert 1e-5 < med < 1e-2

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            estimate_generator(np.array([1.0 + 0j]))
        with pytest.raises(ValueError):
            estimate_generator(np.array([0.0, 0.0, 1.0], dtype=complex))


class TestDoaInversion:
    def test_roundtrip(self):
        for az, el in [(10.0, 20.0), (30.0, 30.0), (70.0, 40.0), (45.0, 89.0)]:
            z1 = steering_vector(az, el, 1, 2)[1]
            z2 = steering_vector(az, el, 2, 2)[1]
            got_az, got_el = doa_from_generators(z1, z2)
            assert abs(got_az - az) < 1e-9
            assert abs(got_el - el) < 1e-9

    def test_equal_phases_give_45_azimuth(self):
        z = cmath.exp(1j * 0.6)
        az, _ = doa_from_generators(z, z)
        assert abs(az - 45.0) < 1e-12

    def test_out_of_range_phases(self):
        with pytest.raises(ValueError):
            doa_from_generators(cmath.exp(-1j * 0.3), cmath.exp(1j * 0.3))
        with pytest.raises(ValueError):
            doa_from_generators(1.0 + 0j, cmath.exp(1j * 0.3))
        with pytest.raises(ValueError):
            # phases (2.5, 2.5): each inside (0, pi) but the norm exceeds pi
            doa_from_generators(cmath.exp(1j * 2.5), cmath.exp(1j * 2.5))


class TestEstimateDoa:
    def test_zero_error_on_truth_model(self):
        scene = default_scene()
        _, truth = build_scene_tensor(scene, synthetic_sources(15, 3, seed=3))
        est = estimate_doa(truth, scene)
        assert max(est.azimuth_rel_err) < 1e-12
        assert max(est.elevation_rel_err) < 1e-12
        assert np.allclose(est.azimuth_deg, [10.0, 30.0, 70.0], atol=1e-9)
        assert np.allclose(est.elevation_deg, [20.0, 30.0, 40.0], atol=1e-9)

    def test_matching_survives_permutation_and_scaling(self):
        scene = default_scene()
        _, truth = build_scene_tensor(scene, synthetic_sources(15, 3, seed=4))
        perm = [2, 0, 1]
        scales = [1.5 - 0.5j, -2.0j, 0.25 + 1.0j]
        shuffled = CpdModel([
            truth.factors[0][:, perm] * np.array(scales),
            truth.factors[1][:, perm],
            truth.factors[2][:, perm] / np.array(scales),
        ])
        est = estimate_doa(shuffled, scene)
        assert max(est.azimuth_rel_err) < 1e-12
        assert max(est.elevation_rel_err) < 1e-12

    def test_column_without_mode3_weight_keeps_its_phases(self):
        # a zero mode-3 column leaves its steering phases unidentified by
        # the fit; they must stay at the shift-ratio start
        scene = default_scene()
        _, truth = build_scene_tensor(scene, synthetic_sources(15, 3, seed=3))
        a, b, c = truth.factors
        c = c.copy()
        c[:, 2] = 0.0
        est = estimate_doa(CpdModel([a, b, c]), scene)
        assert max(est.azimuth_rel_err) < 1e-12
        assert max(est.elevation_rel_err) < 1e-12

    def test_rank_overshoot_column_leaves_sources_exact(self):
        # a fourth column matched to no source must not enter the fit
        scene = default_scene()
        _, truth = build_scene_tensor(scene, synthetic_sources(15, 3, seed=0))
        rng = np.random.default_rng(1)
        model = CpdModel([
            np.column_stack([f, rng.standard_normal(len(f)) + 1j * rng.standard_normal(len(f))])
            for f in truth.factors
        ])
        est = estimate_doa(model, scene)
        assert max(est.azimuth_rel_err) <= 1e-9
        assert max(est.elevation_rel_err) <= 1e-9

    def test_end_to_end_noiseless(self):
        scene = default_scene()
        t, _ = build_scene_tensor(scene, synthetic_sources(15, 3, seed=11))
        model, diag = cpd(t, CpdOptions(rank=3, init=0))
        assert diag.converged
        est = estimate_doa(model, scene)
        assert max(est.azimuth_rel_err) < 1e-6
        assert max(est.elevation_rel_err) < 1e-6

    def test_structured_fit_beats_shift_ratio_at_0db(self):
        # the fit adds the Vandermonde structure of both steering modes and
        # the coupling of the columns through mode 3 to the per-column
        # shift ratio it starts from; source 1 (azimuth 10) has the
        # smallest phases and gains the most
        scene = default_scene()
        fitted, ratio = [], []
        for s in range(10):
            t, truth = build_scene_tensor(scene, synthetic_sources(15, 3, seed=s))
            noisy = add_noise(t, 0.0, seed=s + NOISE_SEED_OFFSET)
            model, _ = cpd(noisy, CpdOptions(rank=3, init=s + INIT_SEED_OFFSET))
            c = metrics.match_columns(CpdModel(truth.factors[:2]),
                                      CpdModel(model.factors[:2]))[0]
            az, _ = doa_from_generators(estimate_generator(model.factors[0][:, c]),
                                        estimate_generator(model.factors[1][:, c]))
            ratio.append(abs(az - 10.0) / 10.0)
            fitted.append(estimate_doa(model, scene).azimuth_rel_err[0])
        assert np.median(fitted) < np.median(ratio)

    def test_unmappable_source_loses_its_angles_alone(self):
        # source 2's steering columns at phases (-0.5, 0.7): an exact
        # Vandermonde pair, so the fit keeps them, but outside (0, pi)
        scene = default_scene()
        _, truth = build_scene_tensor(scene, synthetic_sources(15, 3, seed=3))
        a, b, c = (f.copy() for f in truth.factors)
        a[:, 1] = np.exp(-0.5j * np.arange(10))
        b[:, 1] = np.exp(0.7j * np.arange(10))
        est = estimate_doa(CpdModel([a, b, c]), scene)
        assert est.reason == [None, "generator phases (-0.5000, 0.7000) outside (0, pi)", None]
        assert math.isnan(est.azimuth_deg[1]) and math.isnan(est.elevation_deg[1])
        assert est.azimuth_rel_err[1] == est.elevation_rel_err[1] == math.inf
        assert np.allclose(np.delete(est.azimuth_deg, 1), [10.0, 70.0], atol=1e-9)
        assert np.allclose(np.delete(est.elevation_deg, 1), [20.0, 40.0], atol=1e-9)

    def test_unmatched_source_gets_a_reason(self):
        scene = default_scene()
        _, truth = build_scene_tensor(scene, synthetic_sources(15, 3, seed=3))
        est = estimate_doa(CpdModel([f[:, :2] for f in truth.factors]), scene)
        assert est.reason == [None, None, "no estimate column matched the source"]
        assert math.isnan(est.azimuth_deg[2]) and est.azimuth_rel_err[2] == math.inf
        assert max(est.azimuth_rel_err[:2] + est.elevation_rel_err[:2]) < 1e-12

    def test_one_row_array_reads_no_source(self):
        scene = DoaScene(sources=default_scene().sources, grid_m1=1)
        _, truth = build_scene_tensor(scene, synthetic_sources(15, 3, seed=3))
        est = estimate_doa(truth, scene)
        assert est.reason == ["steering modes need at least 2 rows for shift invariance"] * 3
        assert all(math.isnan(v) for v in est.azimuth_deg + est.elevation_deg)
        assert est.azimuth_rel_err + est.elevation_rel_err == [math.inf] * 6

    def test_grid_mismatch_rejected(self):
        scene = default_scene()
        bad = CpdModel([np.ones((4, 2), dtype=complex)] * 2 + [np.ones((15, 2), dtype=complex)])
        with pytest.raises(ValueError):
            estimate_doa(bad, scene)


class TestApplyMask:
    def test_pattern_counts(self):
        t = np.ones((10, 10, 15), dtype=complex)
        full = t.size
        it = apply_mask(t, [MaskPattern("deactivated_sensor", (2, 3))])
        assert full - it.observed_count == 15
        it = apply_mask(t, [MaskPattern("breaks_at_half", (2, 3))])
        assert full - it.observed_count == 7
        assert it.mask[2, 3, :8].all() and not it.mask[2, 3, 8:].any()
        it = apply_mask(t, [MaskPattern("starts_at_half", (2, 3))])
        assert full - it.observed_count == 8
        assert not it.mask[2, 3, :8].any() and it.mask[2, 3, 8:].all()

    def test_union_of_three_sensors(self):
        t = np.ones((10, 10, 15), dtype=complex)
        it = apply_mask(t, [
            MaskPattern("deactivated_sensor", (0, 0)),
            MaskPattern("breaks_at_half", (4, 4)),
            MaskPattern("starts_at_half", (9, 9)),
        ])
        assert t.size - it.observed_count == 15 + 7 + 8
        # everything not mentioned stays observed
        assert it.mask[1, 1, :].all()

    def test_overlapping_patterns_union(self):
        t = np.ones((4, 4, 6), dtype=complex)
        it = apply_mask(t, [
            MaskPattern("breaks_at_half", (1, 1)),
            MaskPattern("starts_at_half", (1, 1)),
        ])
        assert not it.mask[1, 1, :].any()

    def test_out_of_grid_sensor(self):
        t = np.ones((4, 4, 6), dtype=complex)
        with pytest.raises(ValueError):
            apply_mask(t, [MaskPattern("deactivated_sensor", (4, 0))])
        with pytest.raises(ValueError):
            MaskPattern("no_such_kind", (0, 0))

    def test_dict_patterns_accepted(self):
        t = np.ones((4, 4, 6), dtype=complex)
        it = apply_mask(t, [{"kind": "deactivated_sensor", "sensor": (1, 2)}])
        assert t.size - it.observed_count == 6


class TestSyntheticSources:
    def test_shape_and_determinism(self):
        s1 = synthetic_sources(15, 3, seed=5)
        s2 = synthetic_sources(15, 3, seed=5)
        assert s1.signals.shape == (15, 3)
        assert np.array_equal(s1.signals, s2.signals)
        assert s1.labels == ["O1", "Oz", "O2"]
        s3 = synthetic_sources(15, 3, seed=6)
        assert not np.array_equal(s1.signals, s3.signals)

    def test_many_sources_get_generic_labels(self):
        s = synthetic_sources(20, 5, seed=1)
        assert s.labels == ["src1", "src2", "src3", "src4", "src5"]
        assert np.all(s.signals.std(axis=0) > 0)
