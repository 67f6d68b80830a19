"""Delta-plate engine: oracle benchmarks, reductions, geometry properties.

Frozen reference numbers, both computed before the engine was trusted:

* DIRICHLET_INTEGRAL: int_0^inf k^2 ln(1 - e^(-2k)) dk via its series
  -sum_{n>=1} (1/n) * 2/(2n)^3 = -pi^4/360, summed below to 1e-14.
* V1_ORACLE: pair energy at lambda1 = lambda2 = 1, d = 1 from a 10^6-node
  trapezoid rule on [0, 80] of k^2 ln(1 - r^2 e^(-2k)), r = 1/(1+2k).
"""

import math

import numpy as np
import pytest

from castrace import scattering
from castrace import (
    ConfigError,
    DomainError,
    NumericalError,
    PlateStack,
    QuadratureSpec,
    cantor_stack,
    extract_coefficient,
    mirror_pair,
    pair_energy_per_area,
    reflection_delta,
    stack_energy_per_area,
    transmission_delta,
)

DIRICHLET_INTEGRAL = -math.pi**4 / 360.0
V1_ORACLE = -0.000701448362360904
V1_REGRESSION = -0.0007014483623612988
CANTOR1_REGRESSION = -0.10287512106212812  # level 1, outer 1, lambda 5


def test_dirichlet_series_oracle():
    total = 0.0
    for n in range(40_000, 0, -1):
        total -= (1.0 / n) * 2.0 / (2.0 * n) ** 3
    assert abs(total - DIRICHLET_INTEGRAL) < 1e-14


class TestReflection:
    def test_dirichlet_limit(self):
        assert reflection_delta(1e14, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_half_reflection(self):
        assert reflection_delta(2.0, 1.0) == 0.5

    def test_transparent_limit(self):
        assert reflection_delta(1e-14, 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_unitarity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            lam = float(rng.uniform(1e-3, 1e3))
            kappa = float(rng.uniform(1e-3, 1e3))
            r = reflection_delta(lam, kappa)
            t = transmission_delta(lam, kappa)
            assert 0.0 < r < 1.0 and 0.0 < t < 1.0
            assert r + t == pytest.approx(1.0, abs=1e-15)

    def test_domain_errors(self):
        for fn in (reflection_delta, transmission_delta):
            with pytest.raises(DomainError):
                fn(0.0, 1.0)
            with pytest.raises(DomainError):
                fn(1.0, -1.0)


class TestPairEnergy:
    @pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
    def test_dirichlet_benchmark(self, d):
        lam = 1e6 / d
        expected = DIRICHLET_INTEGRAL / (4.0 * math.pi**2) / d**3
        assert pair_energy_per_area(lam, lam, d) == pytest.approx(expected, rel=1e-3)

    def test_unit_coupling_matches_trapezoid_oracle(self):
        assert abs(pair_energy_per_area(1.0, 1.0, 1.0) - V1_ORACLE) < 1e-8

    def test_unit_coupling_regression_pin(self):
        assert pair_energy_per_area(1.0, 1.0, 1.0) == pytest.approx(
            V1_REGRESSION, rel=1e-10
        )

    def test_transparent_plate_decouples(self):
        assert abs(pair_energy_per_area(1e-12, 1.0, 1.0)) < 1e-12

    def test_always_negative(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            e = pair_energy_per_area(
                float(rng.uniform(0.05, 50.0)),
                float(rng.uniform(0.05, 50.0)),
                float(rng.uniform(0.2, 5.0)),
            )
            assert e < 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pair_energy_per_area(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            pair_energy_per_area(1.0, 1.0, 0.0)


class TestPlateStack:
    def test_validation(self):
        with pytest.raises(DomainError):
            PlateStack((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(DomainError):
            PlateStack((1.0, 0.5), (1.0, 1.0))
        with pytest.raises(DomainError):
            PlateStack((0.0, 1.0), (1.0,))
        with pytest.raises(DomainError):
            PlateStack((0.0, 1.0), (1.0, -1.0))

    def test_geometry_helpers(self):
        stack = PlateStack((0.0, 0.25, 1.0), (1.0, 2.0, 3.0))
        assert stack.gaps == (0.25, 0.75)
        assert stack.min_gap == 0.25
        assert stack.span == 1.0
        scaled = stack.scaled(2.0)
        assert scaled.positions == (0.0, 0.5, 2.0)
        assert scaled.couplings == (0.5, 1.0, 1.5)
        assert stack.translated(1.0).positions == (1.0, 1.25, 2.0)

    def test_mirror_pair_layout(self):
        body = PlateStack((0.0, 0.3), (1.0, 2.0))
        joined = mirror_pair(body, 0.4)
        assert joined.positions == pytest.approx((0.0, 0.3, 0.7, 1.0))
        assert joined.couplings == (1.0, 2.0, 2.0, 1.0)


class TestStackEnergy:
    def test_two_plate_reduction(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            lam1 = float(rng.uniform(0.1, 20.0))
            lam2 = float(rng.uniform(0.1, 20.0))
            d = float(rng.uniform(0.3, 3.0))
            pair = pair_energy_per_area(lam1, lam2, d)
            stack = stack_energy_per_area(PlateStack((0.0, d), (lam1, lam2)))
            assert abs(stack - pair) <= 1e-10

    def test_single_plate_rejected(self):
        with pytest.raises(DomainError):
            stack_energy_per_area(PlateStack((0.0,), (1.0,)))

    def test_inner_plates_deepen_binding(self):
        lam = 5.0
        stack = cantor_stack(1, 1.0, lam)
        e_stack = stack_energy_per_area(stack)
        e_outer = pair_energy_per_area(lam, lam, 1.0)
        assert e_stack < e_outer
        assert e_stack == pytest.approx(CANTOR1_REGRESSION, rel=1e-10)

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_scale_invariance(self, s):
        stack = cantor_stack(2, 1.0, 3.0)
        e = stack_energy_per_area(stack)
        e_scaled = stack_energy_per_area(stack.scaled(s))
        assert e_scaled * s**3 == pytest.approx(e, rel=1e-9)

    def test_cluster_decomposition(self):
        # Far right body at 1000x the outer scale.  At these couplings the
        # residual cross energy is around -7e-13 (a Dirichlet pair at the same
        # distance would leave -pi^2/1440/1000^3 ~ -7e-12), measured against
        # an evaluation noise floor near 1e-14.
        lam = 5e-4
        quad = QuadratureSpec(nodes=1024, rel_tol=1e-6, fallback=False)
        left = PlateStack((0.0, 1.0 / 3.0), (lam, lam))
        right = PlateStack((2.0 / 3.0, 1.0), (lam, lam)).translated(1000.0)
        combined = PlateStack(
            left.positions + right.positions, left.couplings + right.couplings
        )
        cross = (
            stack_energy_per_area(combined, quad)
            - stack_energy_per_area(left, quad)
            - stack_energy_per_area(right, quad)
        )
        assert abs(cross) < 1e-12

    def test_cross_interaction_decays_with_separation(self):
        quad = QuadratureSpec(nodes=1024, rel_tol=1e-6, fallback=False)

        def cross(sep: float) -> float:
            left = PlateStack((0.0, 1.0 / 3.0), (1.0, 1.0))
            right = PlateStack((2.0 / 3.0, 1.0), (1.0, 1.0)).translated(sep)
            combined = PlateStack(
                left.positions + right.positions, left.couplings + right.couplings
            )
            return (
                stack_energy_per_area(combined, quad)
                - stack_energy_per_area(left, quad)
                - stack_energy_per_area(right, quad)
            )

        magnitudes = [abs(cross(sep)) for sep in (10.0, 100.0, 1000.0)]
        assert magnitudes[0] > magnitudes[1] > magnitudes[2]

    def test_mirror_pairs_attract(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            positions = tuple(sorted(rng.uniform(0.0, 1.0, n)))
            couplings = tuple(rng.uniform(0.5, 5.0, n))
            body = PlateStack(positions, couplings)
            energies = [
                stack_energy_per_area(mirror_pair(body, gap))
                for gap in (0.4, 0.8, 1.6)
            ]
            assert energies[0] < energies[1] < energies[2]

    def test_dirichlet_ceiling(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            positions = tuple(np.cumsum(rng.uniform(0.2, 1.0, n)))
            couplings = tuple(rng.uniform(0.2, 10.0, n))
            stack = PlateStack(positions, couplings)
            hard = PlateStack(
                positions, tuple(1e9 / stack.min_gap for _ in range(n))
            )
            assert abs(stack_energy_per_area(stack)) < abs(stack_energy_per_area(hard))


class TestQuadrature:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(scheme="simpson")
        with pytest.raises(DomainError):
            QuadratureSpec(nodes=8)
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(kappa_max=-1.0)

    def test_node_doubling_within_tolerance(self):
        stack = cantor_stack(1, 1.0, 2.0)
        for nodes in (64, 128):
            e1 = stack_energy_per_area(stack, QuadratureSpec(nodes=nodes))
            e2 = stack_energy_per_area(stack, QuadratureSpec(nodes=2 * nodes))
            assert abs(e2 - e1) < 10.0 * 1e-9 * abs(e2)

    def test_halving_rel_tol_fixed_scheme(self):
        stack = cantor_stack(1, 1.0, 2.0)
        e1 = stack_energy_per_area(stack, QuadratureSpec(rel_tol=1e-6))
        e2 = stack_energy_per_area(stack, QuadratureSpec(rel_tol=5e-7))
        assert abs(e2 - e1) <= 1e-6 * abs(e1)

    def test_halving_rel_tol_adaptive_scheme(self):
        stack = cantor_stack(1, 1.0, 2.0)
        e1 = stack_energy_per_area(stack, QuadratureSpec(scheme="adaptive", rel_tol=1e-6))
        e2 = stack_energy_per_area(stack, QuadratureSpec(scheme="adaptive", rel_tol=5e-7))
        assert abs(e2 - e1) <= 1e-6 * abs(e1)

    def test_adaptive_matches_fixed(self):
        stack = cantor_stack(1, 1.0, 2.0)
        e_fixed = stack_energy_per_area(stack, QuadratureSpec())
        e_adaptive = stack_energy_per_area(stack, QuadratureSpec(scheme="adaptive"))
        assert e_adaptive == pytest.approx(e_fixed, rel=1e-8)

    def test_unconverged_fixed_rule_raises(self):
        stack = PlateStack((0.0, 0.4, 1.0), (2.0, 3.0, 1.5))
        spec = QuadratureSpec(nodes=16, rel_tol=1e-15, fallback=False)
        with pytest.raises(NumericalError):
            stack_energy_per_area(stack, spec)

    def test_fallback_rescues_coarse_rule(self):
        stack = PlateStack((0.0, 0.4, 1.0), (2.0, 3.0, 1.5))
        strict = QuadratureSpec(nodes=16, rel_tol=1e-13, fallback=True)
        e = stack_energy_per_area(stack, strict)
        assert e == pytest.approx(stack_energy_per_area(stack), rel=1e-8)


class TestCantorStack:
    def test_level_zero(self):
        stack = cantor_stack(0, 2.0, 1.0)
        assert stack.positions == (0.0, 2.0)

    def test_level_one(self):
        stack = cantor_stack(1, 1.0, 1.0)
        assert stack.positions == (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)

    def test_level_two_exact_rationals(self):
        stack = cantor_stack(2, 1.0, 1.0)
        assert stack.positions == (
            0.0, 1.0 / 9.0, 2.0 / 9.0, 1.0 / 3.0, 2.0 / 3.0, 7.0 / 9.0, 8.0 / 9.0, 1.0
        )

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_plate_count(self, level):
        assert len(cantor_stack(level, 1.0, 1.0)) == 2 ** (level + 1)

    def test_general_reduction_factor(self):
        stack = cantor_stack(1, 1.0, 1.0, b=4.0)
        assert stack.positions == (0.0, 0.25, 0.75, 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cantor_stack(1, 1.0, 1.0, b=2.0)
        with pytest.raises(DomainError):
            cantor_stack(-1, 1.0, 1.0)
        with pytest.raises(DomainError):
            cantor_stack(1, -1.0, 1.0)
        with pytest.raises(DomainError):
            cantor_stack(1, 1.0, 0.0)


class TestExtraction:
    def test_level0_dirichlet_is_flat(self):
        grid = np.geomspace(0.5, 2.0, 7)
        result = extract_coefficient(0, 1e6, grid)
        target = DIRICHLET_INTEGRAL / (4.0 * math.pi**2)
        for c in result.c_values:
            assert c == pytest.approx(target, rel=1e-3)
        for slope in result.logderivs:
            assert abs(slope) < 1e-8

    def test_level0_fixed_coupling_is_scale_free(self):
        grid = np.geomspace(0.25, 4.0, 9)
        result = extract_coefficient(0, 1.0, grid)
        c = np.asarray(result.c_values)
        assert np.ptp(c) < 1e-8 * abs(c[0])
        assert np.max(np.abs(result.traces)) < 1e-8

    def test_joint_rescaling_leaves_c_unchanged(self):
        grid = np.geomspace(0.5, 2.0, 5)
        res_a = extract_coefficient(1, 2.0, grid)
        res_b = extract_coefficient(1, 2.0, grid * 7.0)
        for a, b in zip(res_a.c_values, res_b.c_values):
            assert a == pytest.approx(b, abs=1e-15, rel=1e-12)

    def test_outer_gauge(self):
        grid = np.geomspace(0.5, 2.0, 5)
        res = extract_coefficient(1, 2.0, grid, gauge="outer")
        c = np.asarray(res.c_values)
        assert np.ptp(c) < 1e-10 * abs(c[0])
        # outer gauge measures the whole span, so the magnitude differs
        res_min = extract_coefficient(1, 2.0, grid, gauge="min")
        assert abs(c[0]) > abs(res_min.c_values[0])

    def test_trace_columns_follow_logderiv(self):
        grid = np.geomspace(0.5, 2.0, 5)
        res = extract_coefficient(1, 2.0, grid)
        for d, slope, trace in zip(res.d_grid, res.logderivs, res.traces):
            assert trace == -slope / d**4

    def test_one_energy_per_extraction(self, monkeypatch):
        calls = []
        energy = scattering.stack_energy_per_area

        def counting(stack, quad=None):
            calls.append(len(stack))
            return energy(stack, quad)

        monkeypatch.setattr(scattering, "stack_energy_per_area", counting)
        extract_coefficient(1, 2.0, np.geomspace(0.25, 4.0, 64))
        assert calls == [4]

    def test_level0_is_the_unit_pair_and_exactly_flat(self):
        result = extract_coefficient(0, 2.0, np.geomspace(0.5, 2.0, 5))
        pair = pair_energy_per_area(2.0, 2.0, 1.0)
        assert all(abs(c - pair) <= 1e-10 for c in result.c_values)
        assert all(s == 0.0 for s in result.logderivs)
        assert all(t == 0.0 for t in result.traces)

    def test_coarse_grid_rejected(self):
        with pytest.raises(ConfigError):
            extract_coefficient(0, 1.0, [1.0, 2.0])

    def test_bad_grids_rejected(self):
        with pytest.raises(DomainError):
            extract_coefficient(0, 1.0, [2.0, 1.0, 3.0])
        with pytest.raises(DomainError):
            extract_coefficient(0, 1.0, [-1.0, 1.0, 2.0])
        with pytest.raises(DomainError):
            extract_coefficient(0, -1.0, [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            extract_coefficient(0, math.nan, [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            extract_coefficient(0, math.inf, [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            extract_coefficient(0, 1.0, [1.0, 2.0, math.inf])
        with pytest.raises(ConfigError):
            extract_coefficient(0, 1.0, [1.0, 2.0, 3.0], gauge="median")
