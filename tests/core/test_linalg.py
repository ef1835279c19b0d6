"""Tests for the batched Gaussian elimination kernel."""

import numpy as np
import pytest

from repro.core.linalg import gaussian_eliminate


class TestGaussianEliminate:
    def test_single_identity(self):
        x, singular = gaussian_eliminate(np.eye(4), np.array([1.0, 2.0, 3.0, 4.0]))
        assert not singular
        np.testing.assert_allclose(x, [1, 2, 3, 4])

    def test_matches_numpy_solve(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(100, 6, 6))
        b = rng.normal(size=(100, 6))
        x, singular = gaussian_eliminate(a, b)
        assert not singular.any()
        np.testing.assert_allclose(x, np.linalg.solve(a, b[..., None])[..., 0], atol=1e-9)

    def test_batch_shapes_preserved(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4, 5, 5))
        b = rng.normal(size=(3, 4, 5))
        x, singular = gaussian_eliminate(a, b)
        assert x.shape == (3, 4, 5)
        assert singular.shape == (3, 4)

    def test_needs_pivoting(self):
        """Zero leading pivot: solvable only with row exchange."""
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([3.0, 7.0])
        x, singular = gaussian_eliminate(a, b)
        assert not singular
        np.testing.assert_allclose(x, [7.0, 3.0])

    def test_singular_flagged_and_zeroed(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        b = np.array([1.0, 2.0])
        x, singular = gaussian_eliminate(a, b)
        assert singular
        np.testing.assert_array_equal(x, [0.0, 0.0])

    def test_mixed_singular_batch(self):
        good = np.eye(3)
        bad = np.zeros((3, 3))
        a = np.stack([good, bad])
        b = np.ones((2, 3))
        x, singular = gaussian_eliminate(a, b)
        assert list(singular) == [False, True]
        np.testing.assert_allclose(x[0], [1, 1, 1])
        np.testing.assert_array_equal(x[1], 0.0)

    def test_singular_does_not_poison_batch(self):
        """A singular system must not corrupt its batch neighbors."""
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 4, 4))
        a[2] = 0.0
        b = rng.normal(size=(5, 4))
        x, singular = gaussian_eliminate(a, b)
        assert singular[2] and not singular[[0, 1, 3, 4]].any()
        for i in (0, 1, 3, 4):
            np.testing.assert_allclose(a[i] @ x[i], b[i], atol=1e-9)

    def test_ill_conditioned_but_solvable(self):
        a = np.diag([1.0, 1e-6, 1.0])
        b = np.array([1.0, 1e-6, 2.0])
        x, singular = gaussian_eliminate(a, b)
        assert not singular
        np.testing.assert_allclose(x, [1.0, 1.0, 2.0], atol=1e-6)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            gaussian_eliminate(np.zeros((2, 3)), np.zeros(2))

    def test_rejects_mismatched_rhs(self):
        with pytest.raises(ValueError):
            gaussian_eliminate(np.eye(3), np.zeros(4))

    def test_inputs_not_mutated(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        a0, b0 = a.copy(), b.copy()
        gaussian_eliminate(a, b)
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)

    def test_1x1_systems(self):
        x, singular = gaussian_eliminate(np.array([[[2.0]], [[0.0]]]), np.array([[4.0], [1.0]]))
        assert list(singular) == [False, True]
        assert x[0, 0] == pytest.approx(2.0)
