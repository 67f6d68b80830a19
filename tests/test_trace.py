"""Stress/trace algebra: worked examples, exact identities, ensembles.

FROZEN_TRACE (data/frozen_trace.json) is not an oracle: it holds the trace
layer's own outputs on ``frozen_trace_outcomes()``'s inputs as ``float.hex``
strings, so a change meant to keep every value can show that none moved by a
single bit.
"""

import dataclasses
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from castrace import (
    CoefficientModel,
    DomainError,
    NumericalError,
    TraceReport,
    energy_per_area,
    normal_pressure,
    ricci_scalar,
    thermal_state,
    trace_report,
    vacuum_stress,
)

FLAT_C0 = -math.pi**2 / 720.0
EPS = np.finfo(float).eps
FROZEN_TRACE = Path(__file__).resolve().parent / "data" / "frozen_trace.json"


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
        assert vacuum_stress(model, 0.37).rho_vac == 0.0

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
        assert vacuum_stress(CoefficientModel(c0=FLAT_C0), 1.0).rho_vac == pytest.approx(
            FLAT_C0, rel=1e-15
        )
        assert vacuum_stress(CoefficientModel(c0=1.0), 2.0).rho_vac == pytest.approx(
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
        for fn in (energy_per_area, normal_pressure, vacuum_stress):
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


class TestUnifiedTrace:
    def test_both_sectors_traceless(self):
        thermal = thermal_state(1.0, 1.0, 3.0)
        assert trace_report(CoefficientModel(c0=2.0), thermal, 1.3).total_trace == 0.0

    def test_thermal_only(self):
        thermal = thermal_state(2.0, 1.0, 1.5)
        assert trace_report(CoefficientModel(c0=2.0), thermal, 0.7).total_trace == 2.0

    def test_vacuum_only(self):
        thermal = thermal_state(0.0, 1.0, 1.5)
        model = CoefficientModel(c0=1.0, period=math.log(3), harmonics=((0.0, 0.1),))
        expected = -0.1 * 2.0 * math.pi / math.log(3)
        assert trace_report(model, thermal, 1.0).total_trace == pytest.approx(expected, rel=1e-12)

    def test_additivity_is_bitwise(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            model = random_model(rng)
            thermal = thermal_state(
                float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(0.5, 4.0)),
            )
            d = float(rng.uniform(0.1, 10.0))
            total = trace_report(model, thermal, d).total_trace
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

    def test_scalar_underflow_is_numerical_error(self):
        # d^4 = 1e-400 underflows to zero, as in the array case.
        with pytest.raises(NumericalError):
            trace_report(CoefficientModel(-0.0137), thermal_state(0, 1, 3), 1e-100)

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


@pytest.mark.parametrize("harmonics", [(), ((0.1, 0.2),)], ids=["K0", "K1"])
def test_extreme_separations_fail_loudly(harmonics):
    # d^3 underflows at 1e-110; at 1e-80 only C/d^4 overflows; at 1e200 d^4
    # overflows to inf, which leaves signed zeros.
    model = CoefficientModel(-0.0137, harmonics=harmonics)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (energy_per_area, normal_pressure, vacuum_stress):
            with pytest.raises(NumericalError):
                fn(model, 1e-110)
        for fn in (normal_pressure, vacuum_stress):
            with pytest.raises(NumericalError):
                fn(model, 1e-80)
        assert energy_per_area(model, 1e-80) == pytest.approx(
            model.value(1e-80) * 1e240, rel=1e-14
        )
        far = [energy_per_area(model, 1e200), normal_pressure(model, 1e200),
               *vars(vacuum_stress(model, 1e200)).values()]
        assert far == [0.0] * 6


def test_overflowing_thermal_state_and_curvature_fail_loudly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            thermal_state(1e308, 1e-10, 3.0)
        with pytest.raises(NumericalError):
            ricci_scalar(1e300, 1e10)


def frozen_trace_outcomes():
    """``float.hex`` of every output of the trace layer on fixed inputs.

    For each K = 0-3: 40 models, each at one separation drawn log-uniformly
    over e^-8..e^8 ell_star, with every public function's output; then one
    25-point geomspace over that range through ``trace_report``, pinned as
    computed, since numpy's vectorised pow may differ from the scalar pow by
    an ulp.  Inputs come from ``random.Random``, whose stream is fixed across
    Python versions.
    """
    rng = random.Random(4099)

    def draw_model(k):
        return CoefficientModel(
            c0=rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 1.0),
            period=rng.uniform(0.5, 2.5),
            harmonics=tuple((rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for _ in range(k)),
            ell_star=math.exp(rng.uniform(-2.0, 2.0)),
        )

    def draw_thermal():
        return thermal_state(rng.uniform(-5.0, 5.0), math.exp(rng.uniform(-2.0, 2.0)),
                             rng.uniform(0.5, 4.0))

    outcomes = []
    for k in range(4):
        for _ in range(40):
            model = draw_model(k)
            d = model.ell_star * math.exp(rng.uniform(-8.0, 8.0))
            thermal = draw_thermal()
            g = rng.uniform(0.0, 3.0)
            stress = vacuum_stress(model, d)
            values = [
                energy_per_area(model, d),
                normal_pressure(model, d),
                *vars(stress).values(),
                *vars(thermal).values(),
                *vars(trace_report(model, thermal, d, g)).values(),
                ricci_scalar(stress.trace, g),
            ]
            outcomes.append([float(v).hex() for v in values])
        model = draw_model(k)
        grid = model.ell_star * np.geomspace(math.exp(-8.0), math.exp(8.0), 25)
        rep = trace_report(model, draw_thermal(), grid, rng.uniform(0.0, 3.0))
        outcomes.append([
            [float(v).hex() for v in np.broadcast_to(value, grid.shape)]
            for value in vars(rep).values()
        ])
    return outcomes


def test_frozen_bits():
    expected = json.loads(FROZEN_TRACE.read_text())
    outcomes = frozen_trace_outcomes()
    assert len(outcomes) == len(expected)
    moved = [(i, old, new) for i, (old, new) in enumerate(zip(expected, outcomes)) if old != new]
    assert not moved, f"{len(moved)} cases moved, first {moved[:2]}"
