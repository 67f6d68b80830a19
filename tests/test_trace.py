"""Stress/trace algebra: worked examples, exact identities, ensembles."""

import dataclasses
import math

import numpy as np
import pytest

from castrace import (
    CoefficientModel,
    DomainError,
    SpectralParams,
    TraceReport,
    energy_per_area,
    fractal_vacuum_energy,
    normal_pressure,
    ricci_scalar,
    spectral_dimension,
    thermal_state,
    trace_report,
    unified_trace,
    vacuum_energy_density,
    vacuum_stress,
)

FLAT_C0 = -math.pi**2 / 720.0
EPS = np.finfo(float).eps


def random_model(rng, k=None) -> CoefficientModel:
    if k is None:
        k = rng.integers(1, 4)
    harmonics = tuple(
        (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for _ in range(k)
    )
    return CoefficientModel(
        c0=float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])),
        period=float(rng.uniform(0.5, 2.5)),
        harmonics=harmonics,
        ell_star=float(rng.uniform(0.2, 5.0)),
    )


class TestSpectralDimension:
    def test_euclidean_identity(self):
        assert spectral_dimension(2.0, 2.0) == 2.0

    def test_gasket_constants(self):
        d_h = math.log(3) / math.log(2)
        d_w = math.log(5) / math.log(2)
        expected = 2.0 * math.log(3) / math.log(5)
        assert spectral_dimension(d_h, d_w) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(1.36521, abs=1e-5)

    def test_brownian_walk_recovers_hausdorff(self):
        assert spectral_dimension(3.0, 2.0) == 3.0

    @pytest.mark.parametrize("d_h,d_w", [(0.0, 2.0), (-1.0, 2.0), (2.0, 0.0), (2.0, -3.0)])
    def test_nonpositive_inputs_rejected(self, d_h, d_w):
        with pytest.raises(DomainError):
            spectral_dimension(d_h, d_w)


class TestSpectralParams:
    def test_consistent_triple_accepted(self):
        d_h = math.log(3) / math.log(2)
        d_w = math.log(5) / math.log(2)
        params = SpectralParams(d_s=spectral_dimension(d_h, d_w), d_h=d_h, d_w=d_w)
        assert params.d_s == pytest.approx(1.36521, abs=1e-5)

    def test_inconsistent_triple_rejected(self):
        with pytest.raises(DomainError):
            SpectralParams(d_s=1.5, d_h=2.0, d_w=2.0)

    def test_half_specified_pair_rejected(self):
        with pytest.raises(DomainError):
            SpectralParams(d_s=2.0, d_h=2.0)

    def test_nonpositive_ds_rejected(self):
        with pytest.raises(DomainError):
            SpectralParams(d_s=0.0)


class TestCoefficientModel:
    def test_constant_model(self):
        model = CoefficientModel(c0=5.0)
        for d in (0.01, 1.0, 7.3, 1e4):
            assert model.value(d) == 5.0
            assert model.log_derivative(d) == 0.0

    def test_cosine_at_crossover(self):
        model = CoefficientModel(c0=1.0, period=math.log(3), harmonics=((0.1, 0.0),))
        assert model.value(1.0) == pytest.approx(1.1, rel=1e-15)

    def test_periodicity_one_period_up(self):
        model = CoefficientModel(c0=1.0, period=math.log(3), harmonics=((0.1, 0.0),))
        assert model.value(3.0) == pytest.approx(1.1, rel=1e-12)

    def test_periodicity_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            model = random_model(rng)
            b = math.exp(model.period)
            for d in rng.uniform(0.1, 10.0, 4):
                assert model.value(d * b) == pytest.approx(model.value(d), rel=1e-12)

    def test_logderiv_of_cosine_vanishes_at_crossover(self):
        model = CoefficientModel(c0=1.0, period=math.log(3), harmonics=((0.1, 0.0),))
        assert model.log_derivative(1.0) == 0.0

    def test_logderiv_of_sine_at_crossover(self):
        model = CoefficientModel(c0=1.0, period=math.log(3), harmonics=((0.0, 0.1),))
        expected = 0.1 * 2.0 * math.pi / math.log(3)
        assert model.log_derivative(1.0) == pytest.approx(expected, rel=1e-14)

    def test_logderiv_matches_finite_difference(self):
        rng = np.random.default_rng(23)
        h = 1e-6
        for _ in range(30):
            model = random_model(rng)
            for d in model.ell_star * np.exp(rng.uniform(-2.0, 2.0, 4)):
                analytic = model.log_derivative(d)
                fd = (model.value(d * math.exp(h)) - model.value(d * math.exp(-h))) / (2 * h)
                if abs(analytic) > 1e-12:
                    assert fd == pytest.approx(analytic, rel=1e-6)

    def test_domain_errors(self):
        model = CoefficientModel(c0=1.0)
        with pytest.raises(DomainError):
            model.value(0.0)
        with pytest.raises(DomainError):
            model.value(-1.0)
        with pytest.raises(DomainError):
            CoefficientModel(c0=1.0, period=0.0)
        with pytest.raises(DomainError):
            CoefficientModel(c0=1.0, ell_star=-2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c0": math.nan},
            {"c0": math.inf},
            {"c0": 1.0, "period": math.inf},
            {"c0": 1.0, "period": math.nan},
            {"c0": 1.0, "ell_star": math.inf},
            {"c0": 1.0, "harmonics": ((math.nan, 0.0),)},
            {"c0": 1.0, "harmonics": ((0.0, -math.inf),)},
        ],
    )
    def test_non_finite_parameters_rejected(self, kwargs):
        with pytest.raises(DomainError):
            CoefficientModel(**kwargs)

    @pytest.mark.parametrize("d", [math.inf, math.nan, np.array([1.0, 0.0, 2.0])])
    def test_non_finite_or_nonpositive_separations_rejected(self, d):
        with pytest.raises(DomainError):
            CoefficientModel(c0=1.0, harmonics=((0.1, 0.0),)).value(d)


class TestEnergyAndPressure:
    def test_flat_plate_energy(self):
        model = CoefficientModel(c0=FLAT_C0)
        assert energy_per_area(model, 1.0) == pytest.approx(FLAT_C0, rel=1e-15)
        assert energy_per_area(model, 2.0) == pytest.approx(-math.pi**2 / 5760, rel=1e-15)

    def test_zero_coefficient(self):
        model = CoefficientModel(c0=0.0)
        assert energy_per_area(model, 0.37) == 0.0
        assert vacuum_energy_density(model, 0.37) == 0.0

    def test_flat_plate_pressure(self):
        model = CoefficientModel(c0=FLAT_C0)
        assert normal_pressure(model, 1.0) == pytest.approx(-math.pi**2 / 240, rel=1e-14)

    def test_constant_pressure_is_3c_over_d4(self):
        model = CoefficientModel(c0=0.7)
        d = 1.7
        assert normal_pressure(model, d) == pytest.approx(3 * 0.7 / d**4, rel=1e-14)

    def test_pressure_with_running(self):
        model = CoefficientModel(c0=1.0, period=math.log(3), harmonics=((0.1, 0.1),))
        slope = 0.1 * 2.0 * math.pi / math.log(3)
        assert normal_pressure(model, 1.0) == pytest.approx(3 * 1.1 - slope, rel=1e-13)

    def test_density_examples(self):
        assert vacuum_energy_density(CoefficientModel(c0=FLAT_C0), 1.0) == pytest.approx(
            FLAT_C0, rel=1e-15
        )
        assert vacuum_energy_density(CoefficientModel(c0=1.0), 2.0) == pytest.approx(
            1.0 / 16.0, rel=1e-15
        )

    def test_virtual_work_ensemble(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            model = random_model(rng)
            lo, hi = model.ell_star / 10.0, 100.0 * model.ell_star
            for d in np.exp(rng.uniform(math.log(lo), math.log(hi), 5)):
                h = 1e-5 * d
                fd = -(energy_per_area(model, d + h) - energy_per_area(model, d - h)) / (2 * h)
                assert normal_pressure(model, d) == pytest.approx(fd, rel=1e-6)

    def test_domain_errors(self):
        model = CoefficientModel(c0=1.0)
        for fn in (energy_per_area, normal_pressure, vacuum_energy_density):
            with pytest.raises(DomainError):
                fn(model, -0.5)


class TestVacuumStress:
    def test_static_coefficient_trace_is_exactly_zero(self):
        model = CoefficientModel(c0=FLAT_C0)
        for d in np.geomspace(0.01, 100.0, 50):
            assert vacuum_stress(model, d).trace == 0.0

    def test_flat_plate_tuple(self):
        stress = vacuum_stress(CoefficientModel(c0=FLAT_C0), 1.0)
        assert stress.rho_vac == pytest.approx(FLAT_C0, rel=1e-14)
        assert stress.p_parallel == pytest.approx(-FLAT_C0, rel=1e-14)
        assert stress.p_perp == pytest.approx(-math.pi**2 / 240, rel=1e-14)
        assert stress.trace == 0.0

    def test_parallel_pressure_is_minus_density(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = random_model(rng)
            stress = vacuum_stress(model, float(rng.uniform(0.1, 10.0)))
            assert stress.p_parallel == -stress.rho_vac

    def test_trace_from_running(self):
        model = CoefficientModel(c0=1.0, period=math.log(3), harmonics=((0.0, 0.1),))
        slope = 0.1 * 2.0 * math.pi / math.log(3)
        assert vacuum_stress(model, 1.0).trace == pytest.approx(-slope, rel=1e-12)

    def test_tensor_identity_is_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            model = random_model(rng)
            stress = vacuum_stress(model, float(rng.uniform(0.05, 20.0)))
            recomputed = -stress.rho_vac + 2.0 * stress.p_parallel + stress.p_perp
            assert stress.trace == recomputed

    def test_trace_equals_minus_logderiv_over_d4(self):
        rng = np.random.default_rng(43)
        eps = np.finfo(float).eps
        for _ in range(50):
            model = random_model(rng)
            d = float(rng.uniform(0.1, 10.0))
            stress = vacuum_stress(model, d)
            target = -model.log_derivative(d) / d**4
            scale = max(abs(stress.rho_vac), abs(stress.p_perp), abs(target))
            assert abs(stress.trace - target) <= 64 * eps * scale

    def test_sign_follows_running_not_coefficient(self):
        # Harmonics large enough that C itself changes sign across the sweep;
        # c0 > 0 so -dC/dlnd and -F' carry the same sign.
        model = CoefficientModel(c0=0.5, period=1.0, harmonics=((1.5, 0.0),))
        saw_positive_c = saw_negative_c = False
        for d in np.geomspace(0.2, 5.0, 200):
            c = model.value(d)
            saw_positive_c |= c > 0
            saw_negative_c |= c < 0
            trace = vacuum_stress(model, d).trace
            slope = model.log_derivative(d)
            if abs(slope) > 1e-12:
                assert math.copysign(1.0, trace) == math.copysign(1.0, -slope)
        assert saw_positive_c and saw_negative_c

    def test_attraction_for_negative_constant_coefficient(self):
        model = CoefficientModel(c0=-0.3)
        for d in (0.3, 1.0, 4.0):
            assert vacuum_stress(model, d).p_perp < 0.0


class TestThermalState:
    def test_euclidean_radiation_is_traceless(self):
        state = thermal_state(1.0, 1.0, 3.0)
        assert state.trace == 0.0

    def test_low_dimension_state(self):
        state = thermal_state(2.0, 1.0, 1.5)
        assert state.p_th == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert state.trace == 2.0

    def test_two_dimensional_state(self):
        state = thermal_state(3.0, 1.0, 2.0)
        assert state.p_th == 1.5
        assert state.trace == 1.5

    def test_density_uses_spectral_volume(self):
        state = thermal_state(6.0, 2.0, 3.0)
        assert state.rho_th == 3.0
        assert state.p_th == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            thermal_state(1.0, 0.0, 3.0)
        with pytest.raises(DomainError):
            thermal_state(1.0, 1.0, -2.0)


class TestFractalVacuumEnergy:
    @pytest.mark.parametrize(
        "l_s,zeta,expected", [(1.0, -0.5, -0.25), (2.0, -0.5, -0.125), (1.0, 0.0, 0.0)]
    )
    def test_direct_substitution(self, l_s, zeta, expected):
        assert fractal_vacuum_energy(l_s, zeta) == expected

    def test_domain_error(self):
        with pytest.raises(DomainError):
            fractal_vacuum_energy(0.0, -0.5)


class TestUnifiedTrace:
    def test_both_sectors_traceless(self):
        thermal = thermal_state(1.0, 1.0, 3.0)
        assert unified_trace(thermal, CoefficientModel(c0=2.0), 1.3) == 0.0

    def test_thermal_only(self):
        thermal = thermal_state(2.0, 1.0, 1.5)
        assert unified_trace(thermal, CoefficientModel(c0=2.0), 0.7) == 2.0

    def test_vacuum_only(self):
        thermal = thermal_state(0.0, 1.0, 1.5)
        model = CoefficientModel(c0=1.0, period=math.log(3), harmonics=((0.0, 0.1),))
        expected = -0.1 * 2.0 * math.pi / math.log(3)
        assert unified_trace(thermal, model, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_additivity_is_bitwise(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            model = random_model(rng)
            thermal = thermal_state(
                float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(0.5, 4.0)),
            )
            d = float(rng.uniform(0.1, 10.0))
            total = unified_trace(thermal, model, d)
            assert total == thermal.trace + vacuum_stress(model, d).trace


class TestRicciScalar:
    def test_zero_trace(self):
        assert ricci_scalar(0.0, 12.0) == 0.0

    def test_unit_trace(self):
        assert ricci_scalar(1.0, 1.0) == pytest.approx(-8.0 * math.pi, rel=1e-15)

    def test_negative_trace(self):
        assert ricci_scalar(-2.0, 1.0) == pytest.approx(16.0 * math.pi, rel=1e-15)

    def test_negative_coupling_rejected(self):
        with pytest.raises(DomainError):
            ricci_scalar(1.0, -1.0)

    @pytest.mark.parametrize("g", [math.inf, math.nan])
    def test_non_finite_coupling_rejected(self, g):
        with pytest.raises(DomainError):
            ricci_scalar(1.0, g)


class TestTraceReport:
    def test_report_identities(self):
        model = CoefficientModel(c0=1.0, period=math.log(3), harmonics=((0.1, 0.2),))
        thermal = thermal_state(2.0, 1.0, 1.5)
        rep = trace_report(model, thermal, 0.9, g_newton=2.0)
        assert rep.total_trace == rep.thermal_trace + rep.vacuum_trace
        assert rep.ricci == -8.0 * math.pi * 2.0 * rep.total_trace
        assert rep.p_parallel == -rep.rho_vac

    def test_array_matches_scalar_calls(self):
        # numpy's vectorised pow may differ from the scalar libm pow by an
        # ulp in d^3 and d^4, and the pressure and trace columns are
        # differences of terms of size ~3C/d^4, so each column is compared in
        # ulp of the largest term taking part in its row.
        rng = np.random.default_rng(37)
        thermal = thermal_state(2.0, 1.0, 1.5)
        for k in (0, 1, 2, 3, 0, 1, 2, 3):
            model = random_model(rng, k)
            grid = np.geomspace(0.05, 50.0, 101)
            rep = trace_report(model, thermal, grid, g_newton=2.0)
            rows = [trace_report(model, thermal, float(d), g_newton=2.0) for d in grid]
            scalar = {
                f.name: np.array([getattr(row, f.name) for row in rows])
                for f in dataclasses.fields(TraceReport)
            }
            stress = np.maximum.reduce(
                [np.abs(scalar[name]) for name in ("rho_vac", "p_perp", "thermal_trace")]
            )
            scales = {
                "d": grid, "e": np.abs(scalar["e"]),
                "rho_vac": np.abs(scalar["rho_vac"]), "p_parallel": np.abs(scalar["rho_vac"]),
                "p_perp": stress, "vacuum_trace": stress, "thermal_trace": stress,
                "total_trace": stress, "ricci": 16.0 * math.pi * stress,
            }
            for name, scale in scales.items():
                array = np.broadcast_to(getattr(rep, name), grid.shape)
                assert np.all(np.abs(array - scalar[name]) <= 8 * EPS * scale), name
