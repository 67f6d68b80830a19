"""Harmonic regression at fixed log-period: round trips and degeneracies."""

import math

import numpy as np
import pytest

from castrace import (
    CoefficientModel,
    ConfigError,
    DomainError,
    FitConfig,
    NumericalError,
    fit_log_periodic,
    period_scan,
    vacuum_stress,
)

PERIOD = math.log(3.0)


def sample_model(model: CoefficientModel, x: np.ndarray) -> np.ndarray:
    return np.array([model.value(model.ell_star * math.exp(xi)) for xi in x])


class TestFitLogPeriodic:
    def test_constant_data(self):
        x = np.linspace(0.0, 2.0, 40)
        fit = fit_log_periodic(x, np.full_like(x, 5.0), FitConfig(PERIOD, 2))
        assert fit.model.c0 == pytest.approx(5.0, rel=1e-14)
        for a, b in fit.model.harmonics:
            assert abs(a) < 1e-14 and abs(b) < 1e-14
        assert fit.residual_rms < 1e-14

    def test_k0_reduces_to_mean(self):
        x = np.linspace(0.0, 1.0, 16)
        c = 2.0 + 0.3 * np.cos(2 * np.pi * x / PERIOD)
        fit = fit_log_periodic(x, c, FitConfig(PERIOD, 0))
        assert fit.model.harmonics == ()
        assert fit.model.c0 == pytest.approx(float(np.mean(c)), rel=1e-12)

    def test_single_harmonic_round_trip(self):
        truth = CoefficientModel(c0=1.0, period=PERIOD, harmonics=((0.1, 0.0),))
        x = np.linspace(0.0, PERIOD, 64, endpoint=False)
        fit = fit_log_periodic(x, sample_model(truth, x), FitConfig(PERIOD, 1))
        assert fit.model.c0 == pytest.approx(1.0, abs=1e-10)
        a1, b1 = fit.model.harmonics[0]
        assert a1 == pytest.approx(0.1, abs=1e-8)
        assert abs(b1) < 1e-8
        assert fit.residual_rms < 1e-10

    def test_noisy_recovery_monte_carlo(self):
        truth = CoefficientModel(c0=1.0, period=PERIOD, harmonics=((0.1, 0.0),))
        x = np.linspace(0.0, PERIOD, 64, endpoint=False)
        clean = sample_model(truth, x)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = clean + rng.normal(0.0, 1e-3, x.size)
            fit = fit_log_periodic(x, noisy, FitConfig(PERIOD, 1))
            if abs(fit.model.harmonics[0][0] - 0.1) <= 3e-3:
                hits += 1
        assert hits >= 99

    def test_idempotent_refit(self):
        truth = CoefficientModel(
            c0=0.8, period=PERIOD, harmonics=((0.12, -0.05), (0.02, 0.07))
        )
        x = np.linspace(-1.0, 3.0, 80)
        fit1 = fit_log_periodic(x, sample_model(truth, x), FitConfig(PERIOD, 2))
        fit2 = fit_log_periodic(x, sample_model(fit1.model, x), FitConfig(PERIOD, 2))
        assert fit2.model.c0 == pytest.approx(fit1.model.c0, rel=1e-12)
        for (a1, b1), (a2, b2) in zip(fit1.model.harmonics, fit2.model.harmonics):
            assert a2 == pytest.approx(a1, abs=1e-12)
            assert b2 == pytest.approx(b1, abs=1e-12)

    def test_nested_residuals_nonincreasing(self):
        rng = np.random.default_rng(61)
        x = np.linspace(0.0, 3 * PERIOD, 120)
        truth = CoefficientModel(c0=1.0, period=PERIOD, harmonics=((0.1, 0.05),))
        c = sample_model(truth, x) + rng.normal(0.0, 1e-2, x.size)
        residuals = [
            fit_log_periodic(x, c, FitConfig(PERIOD, k)).residual_rms
            for k in range(5)
        ]
        for lo, hi in zip(residuals[1:], residuals[:-1]):
            assert lo <= hi + 1e-15

    def test_too_few_points_rejected(self):
        x = np.linspace(0.0, 1.0, 4)
        with pytest.raises(ConfigError):
            fit_log_periodic(x, np.ones_like(x), FitConfig(PERIOD, 2))

    @pytest.mark.parametrize("bad", ["x-nan", "x-inf", "c-nan", "c-inf"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_non_finite_samples_rejected(self, bad, k):
        x = np.linspace(0.0, 2 * PERIOD, 16)
        c = 1.0 + 0.1 * np.cos(2 * np.pi * x / PERIOD)
        which, value = bad.split("-")
        (x if which == "x" else c)[5] = float(value)
        with pytest.raises(DomainError):
            fit_log_periodic(x, c, FitConfig(PERIOD, k))
        assert np.isnan(period_scan(x, c, [PERIOD], max_harmonics=k)).all()

    def test_singular_when_x_identical(self):
        x = np.zeros(16)
        with pytest.raises(NumericalError):
            fit_log_periodic(x, np.ones_like(x), FitConfig(PERIOD, 1))

    def test_degenerate_normalization(self):
        x = np.linspace(0.0, PERIOD, 32, endpoint=False)
        c = np.cos(2 * np.pi * x / PERIOD)  # zero-mean pure harmonic
        with pytest.raises(NumericalError):
            fit_log_periodic(x, c, FitConfig(PERIOD, 1))

    def test_span_warning_flag(self):
        x = np.linspace(0.0, 0.3 * PERIOD, 16)
        c = 1.0 + 0.1 * np.cos(2 * np.pi * x / PERIOD)
        fit = fit_log_periodic(x, c, FitConfig(PERIOD, 1))
        assert fit.span_warning is True
        x_wide = np.linspace(0.0, 2 * PERIOD, 64)
        c_wide = 1.0 + 0.1 * np.cos(2 * np.pi * x_wide / PERIOD)
        assert fit_log_periodic(x_wide, c_wide, FitConfig(PERIOD, 1)).span_warning is False

    def test_ridge_shrinks_harmonics_only(self):
        truth = CoefficientModel(c0=1.0, period=PERIOD, harmonics=((0.2, 0.0),))
        x = np.linspace(0.0, 2 * PERIOD, 64)
        c = sample_model(truth, x)
        plain = fit_log_periodic(x, c, FitConfig(PERIOD, 1))
        ridged = fit_log_periodic(x, c, FitConfig(PERIOD, 1, regularization=10.0))
        assert abs(ridged.model.harmonics[0][0]) < abs(plain.model.harmonics[0][0])
        assert ridged.model.c0 == pytest.approx(1.0, abs=5e-3)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            FitConfig(period=0.0, max_harmonics=1)
        with pytest.raises(DomainError):
            FitConfig(period=1.0, max_harmonics=-1)
        with pytest.raises(DomainError):
            FitConfig(period=1.0, max_harmonics=1, regularization=-1.0)


class TestPredictedTrace:
    def test_constant_fit_gives_zero(self):
        x = np.linspace(0.0, 2.0, 32)
        fit = fit_log_periodic(x, np.full_like(x, 3.0), FitConfig(PERIOD, 0))
        for d in (0.3, 1.0, 5.0):
            assert vacuum_stress(fit.model, d).trace == 0.0

    def test_sine_amplitude_prediction(self):
        truth = CoefficientModel(c0=1.0, period=PERIOD, harmonics=((0.0, 0.1),))
        x = np.linspace(0.0, 2 * PERIOD, 64)
        fit = fit_log_periodic(x, sample_model(truth, x), FitConfig(PERIOD, 1))
        expected = -0.1 * (2 * math.pi / PERIOD)
        assert vacuum_stress(fit.model, 1.0).trace == pytest.approx(expected, rel=1e-8)

    def test_periodic_prediction_scales_as_d4(self):
        truth = CoefficientModel(c0=1.0, period=PERIOD, harmonics=((0.05, 0.1),))
        x = np.linspace(0.0, 2 * PERIOD, 64)
        fit = fit_log_periodic(x, sample_model(truth, x), FitConfig(PERIOD, 1))
        b = math.exp(PERIOD)
        for d in (0.5, 1.0, 2.0):
            assert vacuum_stress(fit.model, d * b).trace * b**4 == pytest.approx(
                vacuum_stress(fit.model, d).trace, rel=1e-9
            )


class TestPeriodScan:
    def test_residual_dips_at_true_period(self):
        truth = CoefficientModel(c0=1.0, period=PERIOD, harmonics=((0.1, 0.05),))
        x = np.linspace(0.0, 4 * PERIOD, 160)
        c = sample_model(truth, x)
        periods = np.linspace(0.5 * PERIOD, 1.5 * PERIOD, 21)
        residuals = period_scan(x, c, periods, max_harmonics=1)
        assert int(np.nanargmin(residuals)) == 10  # the true period sits mid-grid
