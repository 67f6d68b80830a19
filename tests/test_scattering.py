"""Delta-plate engine: oracle benchmarks, reductions, geometry properties.

Frozen reference numbers, all computed independently of the engine:

* DIRICHLET_INTEGRAL: int_0^inf k^2 ln(1 - e^(-2k)) dk via its series
  -sum_{n>=1} (1/n) * 2/(2n)^3 = -pi^4/360, summed below to 1e-14.
* V1_ORACLE: pair energy at lambda1 = lambda2 = 1, d = 1 from a 10^6-node
  trapezoid rule on [0, 80] of k^2 ln(1 - r^2 e^(-2k)), r = 1/(1+2k).
* MP_PAIRS and MP_CANTOR: energies from perfbench/oracles.py's
  mp_stack_energy at its default 30 digits (the reflection recursion in
  mpmath arithmetic with 5 guard digits, integrated by mpmath's tanh-sinh
  rule), rounded to double.  MP_PAIRS holds pair_energy_per_area(2x, 2x, 0.5)
  for lambda*d = x; MP_CANTOR holds cantor_stack(level, 1, lambda*L).
  Repeating the level-2/3 and lambda*d = 1e6 evaluations at 40 digits
  changed no double.
* MP_ASYMMETRIC: the same oracle on two stacks with an odd plate count and
  no mirror symmetry, keyed by plate count; 40 digits changed neither.

FROZEN_BITS (data/frozen_energies.json) is not an oracle: it holds the
engine's own outputs on ``frozen_cases()`` as ``float.hex`` strings, or the
exact message of the error raised, so a change meant to be a pure speed-up
can show that no energy moved by a single bit.
"""

import dataclasses
import json
import math
import pickle
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from castrace import scattering
from castrace import (
    CastraceError,
    ConfigError,
    DomainError,
    NumericalError,
    PlateStack,
    cantor_stack,
    extract_coefficient,
    mirror_pair,
    pair_energy_per_area,
    stack_energy_per_area,
)

DIRICHLET_INTEGRAL = -math.pi**4 / 360.0
V1_ORACLE = -0.000701448362360904
V1_REGRESSION = -0.0007014483623612988
CANTOR1_REGRESSION = -0.10287512106212812  # level 1, outer 1, lambda 5
MP_PAIRS = {
    0.5: -0.0022727569398360795,
    5.0: -0.0239799668301417,
    1e6: -0.05483080657674049,
}
MP_CANTOR = {
    (0, 0.5): -0.00028409461747950994,
    (0, 5.0): -0.0029974958537677125,
    (0, 100.0): -0.006465502282694879,
    (1, 0.5): -0.004967505556368556,
    (1, 5.0): -0.10287512106215985,
    (1, 100.0): -0.47023306878035676,
    (2, 0.5): -0.046897428625095,
    (2, 5.0): -1.610571673332193,
    (2, 100.0): -19.49580384324399,
    (3, 0.5): -0.3717659013692537,
    (3, 5.0): -18.182318682770898,
    (3, 100.0): -593.4530973201253,
}
MP_ASYMMETRIC = {
    3: ((0.0, 0.3, 1.0), (2.0, 0.5, 7.0), -0.008004995372022974),
    5: ((0.0, 0.2, 0.5, 0.6, 1.3), (1.5, 4.0, 0.3, 9.0, 2.5), -0.1034764767982942),
}
ORACLE_TOL = 1e-12
FROZEN_BITS = Path(__file__).resolve().parent / "data" / "frozen_energies.json"


def rel_err(value, ref):
    return abs(value - ref) / abs(ref)


def test_dirichlet_series_oracle():
    total = 0.0
    for n in range(40_000, 0, -1):
        total -= (1.0 / n) * 2.0 / (2.0 * n) ** 3
    assert abs(total - DIRICHLET_INTEGRAL) < 1e-14


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
        cases = [
            (((0.0, 0.0), (1.0, 1.0)), "positions must be strictly increasing"),
            (((1.0, 0.5), (1.0, 1.0)), "positions must be strictly increasing"),
            (((0.0, 1.0), (1.0,)), "2 positions but 1 couplings"),
            (((0.0, 1.0), (1.0, -1.0)),
             "couplings must be positive and finite, got (1.0, -1.0)"),
            (((), ()), "a stack needs at least one plate"),
            (((0.0, math.inf), (1.0, 1.0)), "positions must be finite, got (0.0, inf)"),
        ]
        for args, message in cases:
            with pytest.raises(DomainError) as info:
                PlateStack(*args)
            assert str(info.value) == message

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

    def test_geometry_reads_as_python_floats(self):
        stack = PlateStack([0, 0.25, 1], np.array([1.0, 2.0, 3.0]))
        for values in (stack.positions, stack.couplings, stack.gaps):
            assert type(values) is tuple
            assert all(type(v) is float for v in values)
        assert type(stack.min_gap) is float and type(stack.span) is float
        assert stack.positions == (0.0, 0.25, 1.0)
        assert len(stack) == 3

    def test_equality_and_hash(self):
        stack = PlateStack((0.0, 0.25, 1.0), (1.0, 2.0, 3.0))
        same = PlateStack(np.array([-0.0, 0.25, 1.0]), [1, 2, 3])
        assert stack == same and hash(stack) == hash(same)
        assert hash(stack) == hash((stack.positions, stack.couplings))
        assert stack != PlateStack((0.0, 0.25, 1.0), (1.0, 2.0, 4.0))
        assert stack != PlateStack((0.0, 0.25), (1.0, 2.0))
        assert stack != stack.positions
        assert len({stack, same, stack.translated(0.0)}) == 1
        assert pickle.loads(pickle.dumps(stack)) == stack

    def test_immutable(self):
        source = np.array([0.0, 1.0])
        lam = np.array([1.0, 2.0])
        stack = PlateStack(source, lam)
        shared = PlateStack(source, np.array([3.0, 3.0]))
        source[1] = 5.0  # the stacks hold their own copies
        lam[1] = 5.0
        assert stack.positions == (0.0, 1.0) and stack.couplings == (1.0, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stack.positions = (0.0, 2.0)
        with pytest.raises(AttributeError):
            stack.extra = 1
        for array in (stack._z, stack._lam, shared._z, cantor_stack(2, 1.0, 1.0)._z):
            assert array.dtype == np.float64 and not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 3.0
        # A coupling shared by every plate is held as one Python float.
        assert type(shared._lam) is float and shared.couplings == (3.0, 3.0)

    def test_shared_coupling_round_trips(self):
        stack = PlateStack((0.0, 0.25, 1.0), (2.0, 2.0, 2.0))
        assert stack == PlateStack(np.array([0.0, 0.25, 1.0]), np.full(3, 2.0))
        assert stack != PlateStack((0.0, 0.25, 1.0), (2.0, 2.0, 2.5))
        assert pickle.loads(pickle.dumps(stack)) == stack
        assert stack.scaled(2.0) == PlateStack((0.0, 0.5, 2.0), (1.0, 1.0, 1.0))
        assert stack.translated(1.0).couplings == (2.0, 2.0, 2.0)
        joined = mirror_pair(stack, 0.5)
        assert joined.couplings == (2.0,) * 6 and type(joined._lam) is float


GRID = 2.0**-10  # plate positions are integer multiples of this


@st.composite
def grid_stacks(draw):
    """2-40 plates on the GRID, gaps within a factor 1e3 of each other and
    lambda*g_min in [1e-2, 1e2]."""
    n = draw(st.integers(2, 40))
    unit = draw(st.integers(1, 1024))
    steps = draw(st.lists(st.integers(unit, 1000 * unit), min_size=n - 1, max_size=n - 1))
    start = draw(st.integers(-(2**20), 2**20))
    strengths = draw(st.lists(st.floats(1e-2, 1e2), min_size=n, max_size=n))
    return PlateStack(np.cumsum([start, *steps]) * GRID, np.array(strengths) / (min(steps) * GRID))


@st.composite
def raised_couplings(draw):
    """2-11 plates with gaps e^U(-2, 2) and couplings e^U(-3, 4), and the same
    stack with one coupling multiplied by e^U(0.01, 2)."""
    n = draw(st.integers(2, 11))
    gaps = np.exp(draw(st.lists(st.floats(-2.0, 2.0), min_size=n - 1, max_size=n - 1)))
    couplings = np.exp(draw(st.lists(st.floats(-3.0, 4.0), min_size=n, max_size=n)))
    positions = np.cumsum([0.0, *gaps])
    raised = couplings.copy()
    raised[draw(st.integers(0, n - 1))] *= math.exp(draw(st.floats(0.01, 2.0)))
    return PlateStack(positions, couplings), PlateStack(positions, raised)


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

    @settings(max_examples=150, deadline=None, database=None)
    @given(grid_stacks(), st.integers(-(2**30), 2**30), st.integers(-20, 20))
    def test_random_stack_invariances(self, stack, shift, k):
        # Shifts on the grid and power-of-two scalings are exact in floating
        # point, so the energy must not move by a single bit; the reflected
        # stack runs the recursion the other way and agrees to rounding.
        e = stack_energy_per_area(stack)
        assert stack_energy_per_area(stack.translated(shift * GRID)) == e
        s = 2.0**k
        assert stack_energy_per_area(stack.scaled(s)) * s**3 == e
        reflected = PlateStack([-z for z in reversed(stack.positions)], reversed(stack.couplings))
        assert rel_err(stack_energy_per_area(reflected), e) <= 1e-14

    @settings(max_examples=300, deadline=None, database=None)
    @given(raised_couplings())
    def test_raising_a_coupling_never_raises_energy(self, stacks):
        # A stronger plate reflects more at every wavenumber, which deepens
        # the binding of the whole stack.
        stack, raised = stacks
        e = stack_energy_per_area(stack)
        assert stack_energy_per_area(raised) <= e + 1e-12 * abs(e)

    def test_cluster_decomposition(self):
        # Far right body at 1000x the outer scale.  At these couplings the
        # residual cross energy is around -7e-13 (a Dirichlet pair at the same
        # distance would leave -pi^2/1440/1000^3 ~ -7e-12), measured against
        # an evaluation noise floor near 1e-14.
        lam = 5e-4
        left = PlateStack((0.0, 1.0 / 3.0), (lam, lam))
        right = PlateStack((2.0 / 3.0, 1.0), (lam, lam)).translated(1000.0)
        combined = PlateStack(
            left.positions + right.positions, left.couplings + right.couplings
        )
        cross = (
            stack_energy_per_area(combined)
            - stack_energy_per_area(left)
            - stack_energy_per_area(right)
        )
        assert abs(cross) < 1e-12

    def test_cross_interaction_decays_with_separation(self):
        def cross(sep: float) -> float:
            left = PlateStack((0.0, 1.0 / 3.0), (1.0, 1.0))
            right = PlateStack((2.0 / 3.0, 1.0), (1.0, 1.0)).translated(sep)
            combined = PlateStack(
                left.positions + right.positions, left.couplings + right.couplings
            )
            return (
                stack_energy_per_area(combined)
                - stack_energy_per_area(left)
                - stack_energy_per_area(right)
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


class TestOracle:
    @pytest.mark.parametrize("lambda_d", sorted(MP_PAIRS))
    def test_pair_matches_mpmath(self, lambda_d):
        e = pair_energy_per_area(2.0 * lambda_d, 2.0 * lambda_d, 0.5)
        assert rel_err(e, MP_PAIRS[lambda_d]) <= ORACLE_TOL

    @pytest.mark.parametrize("level,lambda_l", sorted(MP_CANTOR))
    def test_cantor_matches_mpmath(self, level, lambda_l):
        e = stack_energy_per_area(cantor_stack(level, 1.0, lambda_l))
        assert rel_err(e, MP_CANTOR[(level, lambda_l)]) <= ORACLE_TOL

    @pytest.mark.parametrize("level", [5, 6, 7, 8])
    def test_deep_weak_levels_are_symmetric(self, level):
        # The benchmark's probe inputs: lambda*L = 0.5 at levels 5-8.
        stack = cantor_stack(level, 1.0, 0.5)
        e = stack_energy_per_area(stack)
        assert math.isfinite(e) and e < 0.0
        mirrored = PlateStack(
            tuple(-z for z in reversed(stack.positions)),
            tuple(reversed(stack.couplings)),
        )
        assert rel_err(stack_energy_per_area(mirrored), e) <= ORACLE_TOL
        for s in (0.5, 3.0):
            assert rel_err(stack_energy_per_area(stack.scaled(s)) * s**3, e) <= ORACLE_TOL

    def test_born_limit_pair(self):
        # E -> -lambda^2/(32 pi^2 d); the next Born order is relative
        # O(lambda*d*ln(1/(lambda*d))), 5e-11 at lambda*d = 1e-12.
        lam = 1e-12
        born = -lam * lam / (32.0 * math.pi**2)
        assert rel_err(pair_energy_per_area(lam, lam, 1.0), born) <= 1e-10

    def test_coupling_beyond_double_range_is_a_mirror(self):
        # lambda*d = 1e310 overflows a double; the plates are Dirichlet mirrors.
        expected = DIRICHLET_INTEGRAL / (4.0 * math.pi**2) / 1e30
        assert rel_err(pair_energy_per_area(1e300, 1e300, 1e10), expected) <= 1e-12

    def test_unresolved_scales_raise(self):
        # A 1e6 gap ratio with the interaction carried by the wide gap: the
        # 2h rule misses it, so the step-halving shift exceeds the tolerance.
        stack = PlateStack((0.0, 1e-4, 100.0), (1e-8, 1e-8, 1.0))
        with pytest.raises(NumericalError, match="not converged"):
            stack_energy_per_area(stack)

    def test_overflowing_energy_raises(self):
        stack = PlateStack((0.0, 1e-120), (1e300, 1e300))
        with pytest.raises(NumericalError, match="not finite"):
            stack_energy_per_area(stack)


def reference_energy(stack):
    """The one-ended Parratt recursion, plate by plate, on the engine's rule."""
    z = np.asarray(stack.positions)
    g = float(np.min(np.diff(z)))
    gaps, lam = np.diff(z) / g, np.asarray(stack.couplings) * g
    two_k = 2.0 * scattering._KAPPA
    refl = -lam[0] / (lam[0] + two_k)
    comp = two_k / (lam[0] + two_k)
    acc = np.zeros_like(two_k)
    for gap, lam_next in zip(gaps, lam[1:]):
        r = lam_next / (lam_next + two_k)
        tau = two_k / (lam_next + two_k)
        e = np.exp(-two_k * gap)
        open_ = -np.expm1(-two_k * gap)
        d = open_ + e * (tau + r * comp)
        arg = r * refl * e
        born = arg > -0.5
        acc += np.where(born, np.log1p(np.where(born, arg, 0.0)), np.log(d))
        q = tau / d
        refl = tau * q * refl * e - r
        comp = q * (open_ + e * comp)
    return float(np.sum(scattering._WEIGHTS * acc)) / (4.0 * math.pi**2) / g**3


def random_stack(rng, n):
    """n plates with gaps within a factor 10 and lambda*g from 1e-3 to 1e3."""
    positions = np.cumsum(10.0 ** rng.uniform(-0.5, 0.5, n))
    return PlateStack(positions, 10.0 ** rng.uniform(-3.0, 3.0, n))


class TestTwoEndedKernel:
    """The recursion run from both ends against the one-ended reference."""

    @pytest.mark.parametrize("n", list(range(2, 41)))
    def test_matches_one_ended_recursion(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(3):
            stack = random_stack(rng, n)
            assert rel_err(stack_energy_per_area(stack), reference_energy(stack)) <= 1e-13

    def test_many_blocks(self):
        # 299 plates: five blocks of steps, the last one partial, odd count.
        stack = random_stack(np.random.default_rng(77), 299)
        assert rel_err(stack_energy_per_area(stack), reference_energy(stack)) <= 1e-13

    def test_identity_step_is_exact(self):
        # Three plates: the right chain is the last plate alone, so its one
        # step adds nothing and must leave R and P as they were, bit for bit,
        # with a coupling per plate or one shared by all three.
        two_k = scattering._TWO_K
        for couplings in (np.array([0.3, 4.0, 7.0]), 4.0):
            ends = np.broadcast_to(couplings, (3,))[::2, None]
            inv = 1.0 / (ends + two_k)
            refl, comp = -ends * inv, two_k * inv
            right = refl[1].copy(), comp[1].copy()
            scattering._grow_chains(np.array([1.0, 2.5]), couplings, two_k, refl, comp)
            assert np.array_equal(refl[1], right[0]) and np.array_equal(comp[1], right[1])

    @pytest.mark.parametrize("n", sorted(MP_ASYMMETRIC))
    def test_uneven_chains_match_mpmath(self, n):
        positions, couplings, energy = MP_ASYMMETRIC[n]
        e = stack_energy_per_area(PlateStack(positions, couplings))
        assert rel_err(e, energy) <= ORACLE_TOL

    @pytest.mark.parametrize("n", [3, 5, 7, 21, 41])
    def test_mirror_image_of_odd_stack(self, n):
        stack = random_stack(np.random.default_rng(n), n)
        mirrored = PlateStack(
            tuple(-z for z in reversed(stack.positions)),
            tuple(reversed(stack.couplings)),
        )
        e = stack_energy_per_area(stack)
        assert rel_err(stack_energy_per_area(mirrored), e) <= 1e-13


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

    @pytest.mark.parametrize("b", [2.5, 3, 3.7, 10.0, 64.0 / 3.0])
    def test_endpoints_match_exact_rationals(self, b):
        # Reference: every endpoint as a Fraction, rounded once by float().
        segments = [(Fraction(0), Fraction(1))]
        shrink = 1 / Fraction(b)
        for level in range(11):
            for outer in (1.0, 0.37, 7, 2.0**-40 / 3.0, 1e300):
                expected = tuple(
                    float(end * Fraction(outer)) for seg in segments for end in seg
                )
                assert cantor_stack(level, outer, 1.0, b).positions == expected
            segments = [
                child
                for lo, hi in segments
                for child in ((lo, lo + (hi - lo) * shrink), (hi - (hi - lo) * shrink, hi))
            ]

    def test_holds_shared_integer_endpoints(self):
        stack = cantor_stack(3, 0.37, 2.0)
        explicit = PlateStack(stack.positions, stack.couplings)
        assert stack == explicit and hash(stack) == hash(explicit) and len(stack) == 16
        assert pickle.loads(pickle.dumps(stack)) == stack
        assert stack.scaled(2.0) == explicit.scaled(2.0) and stack.span == explicit.span
        assert not stack._z.flags.writeable
        assert stack_energy_per_area(stack) == stack_energy_per_area(explicit)
        assert cantor_stack(3, 1.5, 7.0)._pos[0] is stack._pos[0]

    def test_collapsed_endpoints_rejected(self):
        # 5e-324 / 3 rounds to 0.0, the first endpoint: the rounded floats are
        # still validated although the stack keeps the integers.
        with pytest.raises(DomainError, match="strictly increasing"):
            cantor_stack(1, 5e-324, 1.0)

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

        def counting(stack):
            calls.append(len(stack))
            return energy(stack)

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


def _stack_energy(positions, couplings):
    return stack_energy_per_area(PlateStack(positions, couplings))


def _cantor_energy(level, lambda_l, b):
    return stack_energy_per_area(cantor_stack(level, 1.0, lambda_l, b))


def _mirror_energy(level, lambda_l, gap):
    return stack_energy_per_area(mirror_pair(cantor_stack(level, 1.0, lambda_l), gap))


def frozen_cases():
    """Energy calls whose outputs FROZEN_BITS pins, in a fixed order.

    Cantor levels 0-9 at b = 2.5, 3 and 10 with lambda*L on every second
    decade from 1e-6 to 1e6; 500 pairs; 300 stacks with a coupling per plate
    and an odd plate count, so the right chain ends in a padded step; 100
    stacks sharing one coupling, of both parities; mirror pairs of Cantor
    bodies; couplings so weak that every node underflows; and the two
    stacks of TestOracle that raise.  Inputs come from ``random.Random.random``, whose
    stream is fixed across Python versions.
    """
    rng = random.Random(8191)

    def log_uniform(lo, hi):
        return lo * (hi / lo) ** rng.random()

    def positions(n, spread):
        z = [rng.uniform(-1.0, 1.0)]
        for _ in range(n - 1):
            z.append(z[-1] + log_uniform(1.0, spread))
        return z

    cases = [
        partial(_cantor_energy, level, 10.0**k, b)
        for b in (2.5, 3.0, 10.0)
        for level in range(10)
        for k in range(-6, 7, 2)
    ]
    for _ in range(500):
        d = log_uniform(1e-3, 1e3)
        cases.append(partial(
            pair_energy_per_area, log_uniform(1e-8, 1e8) / d, log_uniform(1e-8, 1e8) / d, d
        ))
    for _ in range(300):
        n = 2 * rng.randrange(1, 41) + 1
        cases.append(partial(
            _stack_energy, positions(n, 100.0), [log_uniform(1e-4, 1e4) for _ in range(n)]
        ))
    for _ in range(100):
        n = rng.randrange(2, 82)
        cases.append(partial(_stack_energy, positions(n, 30.0), [log_uniform(1e-3, 1e3)] * n))
    for level in range(5):
        for gap in (0.01, 0.3, 2.0):
            cases.append(partial(_mirror_energy, level, log_uniform(0.1, 100.0), gap))
    cases += [
        partial(pair_energy_per_area, 1e-300, 1e-300, 1.0),
        partial(_stack_energy, (0.0, 1.0, 2.5), (1e-300,) * 3),
        partial(_stack_energy, (0.0, 1.0, 2.5, 3.0), (1e-300,) * 4),
        partial(_stack_energy, (0.0, 1e-4, 100.0), (1e-8, 1e-8, 1.0)),
        partial(_stack_energy, (0.0, 1e-120), (1e300, 1e300)),
    ]
    return cases


def frozen_outcome(case):
    """``float.hex`` of the energy, or the type and message of the error."""
    try:
        return case().hex()
    except CastraceError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_frozen_bits():
    expected = json.loads(FROZEN_BITS.read_text())
    outcomes = [frozen_outcome(case) for case in frozen_cases()]
    assert len(outcomes) == len(expected)
    moved = [(i, old, new) for i, (old, new) in enumerate(zip(expected, outcomes)) if old != new]
    assert not moved, f"{len(moved)} outcomes moved, first {moved[:3]}"
    assert outcomes[-2:] == [
        "NumericalError: exp-sinh rule not converged: halving the step moved the "
        "integral by 3.904e-29 (allowed 1e-09 relative); values "
        "-3.7010511546761858e-25 -> -3.7014415462383956e-25",
        "NumericalError: energy per area is not finite: -inf",
    ]
