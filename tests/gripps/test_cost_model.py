"""Unit tests for the calibrated GriPPS cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.gripps import REFERENCE_MODEL, GrippsCostModel


class TestCalibration:
    """The reference model must reproduce the three numbers quoted in the paper."""

    def test_sequence_partition_overhead_is_about_1_1_seconds(self):
        # Intercept of the time-vs-sequence-block-size line at the reference motif count.
        model = REFERENCE_MODEL
        assert model.expected_time(model.reference_motifs, 0) == pytest.approx(1.1, abs=0.05)

    def test_motif_partition_overhead_is_about_10_5_seconds(self):
        # Intercept of the time-vs-motif-subset-size line at the reference sequence count.
        model = REFERENCE_MODEL
        assert model.expected_time(0, model.reference_sequences) == pytest.approx(10.5, abs=0.05)

    def test_full_request_takes_about_110_seconds(self):
        model = REFERENCE_MODEL
        assert model.expected_time(
            model.reference_motifs, model.reference_sequences
        ) == pytest.approx(110.0, rel=0.01)

    def test_time_is_linear_in_each_dimension(self):
        model = REFERENCE_MODEL
        # Fix the motif count: doubling the increment of sequences adds twice
        # the increment of time.
        base = model.expected_time(300, 10_000)
        plus = model.expected_time(300, 20_000)
        plus_plus = model.expected_time(300, 30_000)
        assert plus_plus - plus == pytest.approx(plus - base, rel=1e-9)
        # Same along the motif dimension.
        base = model.expected_time(50, 38_000)
        plus = model.expected_time(100, 38_000)
        plus_plus = model.expected_time(150, 38_000)
        assert plus_plus - plus == pytest.approx(plus - base, rel=1e-9)


class TestModelBehaviour:
    def test_speed_factor_scales_time(self):
        slow = REFERENCE_MODEL.expected_time(300, 38_000, speed_factor=2.0)
        fast = REFERENCE_MODEL.expected_time(300, 38_000, speed_factor=1.0)
        assert slow == pytest.approx(2.0 * fast)

    def test_noise_free_measurement_equals_expectation(self):
        model = REFERENCE_MODEL
        assert model.measured_time(100, 10_000) == model.expected_time(100, 10_000)

    def test_noisy_measurements_scatter_around_expectation(self):
        model = REFERENCE_MODEL.with_noise(0.05)
        rng = np.random.default_rng(0)
        samples = [model.measured_time(300, 38_000, rng=rng) for _ in range(200)]
        assert np.mean(samples) == pytest.approx(model.expected_time(300, 38_000), rel=0.02)
        assert np.std(samples) > 0

    def test_request_size_conversion_is_monotone(self):
        small = REFERENCE_MODEL.request_size_mflop(10, 1_000)
        large = REFERENCE_MODEL.request_size_mflop(100, 10_000)
        assert large > small > 0

    def test_negative_sizes_rejected(self):
        with pytest.raises(WorkloadError):
            REFERENCE_MODEL.expected_time(-1, 10)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            GrippsCostModel(base_overhead=-1.0)
        with pytest.raises(WorkloadError):
            GrippsCostModel(noise_sigma=-0.1)

    def test_with_noise_preserves_other_coefficients(self):
        noisy = REFERENCE_MODEL.with_noise(0.1)
        assert noisy.noise_sigma == 0.1
        assert noisy.pair_rate == REFERENCE_MODEL.pair_rate
        assert noisy.base_overhead == REFERENCE_MODEL.base_overhead
