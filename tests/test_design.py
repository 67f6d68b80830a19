"""Prefractal window calculus: worked examples and random-triple properties."""

import pickle

import numpy as np
import pytest

from castrace import DomainError, PrefractalSpec, in_window, min_feature, min_level


class TestMinFeature:
    @pytest.mark.parametrize(
        "L,b,n,expected",
        [(1.0, 3.0, 0, 1.0), (1.0, 3.0, 2, 1.0 / 9.0), (2.0, 2.0, 3, 0.25)],
    )
    def test_examples(self, L, b, n, expected):
        assert min_feature(PrefractalSpec(L, b, n)) == pytest.approx(expected, rel=1e-15)

    def test_strictly_decreasing_and_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            L = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(1.1, 6.0))
            sizes = [min_feature(PrefractalSpec(L, b, n)) for n in range(8)]
            assert all(s <= L for s in sizes)
            assert all(a > b_ for a, b_ in zip(sizes, sizes[1:]))

    def test_spec_is_an_immutable_value(self):
        spec = PrefractalSpec(outer_scale=2.0, reduction=3.0, level=4)
        assert repr(spec) == "PrefractalSpec(outer_scale=2.0, reduction=3.0, level=4)"
        assert spec == PrefractalSpec(2.0, 3.0, 4) and spec != PrefractalSpec(2.0, 3.0, 5)
        assert spec != (2.0, 3.0, 4)
        assert hash(spec) == hash(PrefractalSpec(2.0, 3.0, 4)) == hash((2.0, 3.0, 4))
        assert pickle.loads(pickle.dumps(spec)) == spec
        with pytest.raises(AttributeError):
            spec.level = 5
        with pytest.raises(AttributeError):
            del spec.level
        with pytest.raises(AttributeError):
            spec.extra = 1
        assert spec.level == 4

    def test_bad_spec_rejected(self):
        with pytest.raises(DomainError):
            PrefractalSpec(0.0, 3.0, 1)
        with pytest.raises(DomainError):
            PrefractalSpec(1.0, 1.0, 1)
        with pytest.raises(DomainError):
            PrefractalSpec(1.0, 3.0, -1)


class TestInWindow:
    def test_deep_level_inside(self):
        assert in_window(PrefractalSpec(1.0, 3.0, 5), 0.05, margin=10.0) is True

    def test_upper_bound_violated(self):
        assert in_window(PrefractalSpec(1.0, 3.0, 1), 0.5) is False

    def test_lower_bound_violated(self):
        assert in_window(PrefractalSpec(1.0, 3.0, 1), 0.1) is False

    def test_exact_feature_boundary_counts_as_inside(self):
        spec = PrefractalSpec(1.0, 3.0, 2)
        assert in_window(spec, min_feature(spec), margin=5.0) is True

    def test_false_above_outer_scale(self):
        # For d > L no margin >= 1 can open a window; at d == L only the
        # degenerate margin == 1 admits it.
        rng = np.random.default_rng(17)
        for _ in range(200):
            L = float(rng.uniform(0.1, 5.0))
            spec = PrefractalSpec(L, float(rng.uniform(2.0, 4.0)), int(rng.integers(0, 6)))
            d = L * float(rng.uniform(1.0 + 1e-9, 10.0))
            margin = float(rng.uniform(1.0, 50.0))
            assert in_window(spec, d, margin) is False

    def test_domain_errors(self):
        spec = PrefractalSpec(1.0, 3.0, 1)
        with pytest.raises(DomainError):
            in_window(spec, 0.0)
        with pytest.raises(DomainError):
            in_window(spec, 0.1, margin=0.5)


class TestMinLevel:
    def test_hundredfold_separation(self):
        assert min_level(1.0, 0.01, 3.0) == 5

    def test_exact_boundary(self):
        assert min_level(1.0, 1.0 / 9.0, 3.0) == 2

    def test_single_halving(self):
        assert min_level(1.0, 0.5, 2.0) == 1

    def test_no_window_rejected(self):
        with pytest.raises(DomainError):
            min_level(1.0, 1.0, 3.0)
        with pytest.raises(DomainError):
            min_level(1.0, 2.0, 3.0)

    def test_bad_inputs_rejected(self):
        with pytest.raises(DomainError):
            min_level(-1.0, 0.1, 3.0)
        with pytest.raises(DomainError):
            min_level(1.0, 0.1, 1.0)

    def test_feature_at_min_level_reaches_d(self):
        rng = np.random.default_rng(29)
        for _ in range(2000):
            L = float(rng.uniform(0.01, 100.0))
            d = L * float(rng.uniform(1e-6, 1.0 - 1e-9))
            b = float(rng.uniform(1.01, 10.0))
            n = min_level(L, d, b)
            assert min_feature(PrefractalSpec(L, b, n)) <= d
            if n > 0:
                assert min_feature(PrefractalSpec(L, b, n - 1)) > d

    def test_monotonicity(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            L = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(1.5, 5.0))
            d1 = L * float(rng.uniform(1e-4, 0.5))
            d2 = d1 * float(rng.uniform(1.0, 1.9))
            if d2 >= L:
                continue
            # nonincreasing in d
            assert min_level(L, d2, b) <= min_level(L, d1, b)
            # nondecreasing in L
            L2 = L * float(rng.uniform(1.0, 3.0))
            assert min_level(L2, d1, b) >= min_level(L, d1, b)
