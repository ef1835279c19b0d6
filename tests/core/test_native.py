"""Native Gaussian-elimination kernel: strict bit-identity with NumPy.

The native path is an *optimization*, never a semantic change: every
test here demands bit-pattern equality (including negative zeros, NaN
placement and singular flags) between the C kernel and the NumPy
reference it shadows.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.continuous import N_FIELDS, solve_accumulated
from repro.core.linalg import gaussian_eliminate
from repro.native import (
    adversarial_packed,
    native_available,
    native_gauss_eliminate,
    native_solve_packed,
    native_status,
    same_bits,
)

needs_native = pytest.mark.skipif(
    not native_available(), reason=f"native kernel unavailable: {native_status()}"
)


def _adversarial_batch(m: int = 256, n: int = 6, seed: int = 3):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n, n)) * np.exp(rng.normal(scale=5.0, size=(m, 1, 1)))
    b = rng.normal(size=(m, n))
    a[0] = 0.0
    a[1, 2] = a[1, 3]  # rank deficient
    a[2, 1, 1] = np.nan
    a[3, 0, 0] = np.inf
    a[4, :, 0] = 0.0  # pivot failure in the first column
    a[5] *= 1e-300  # near-denormal pivots
    a[6] *= 1e300  # huge dynamic range
    return a, b


@needs_native
class TestBitIdentity:
    def test_random_batch(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(512, 6, 6))
        b = rng.normal(size=(512, 6))
        x_np, s_np = gaussian_eliminate(a, b, prefer_native=False)
        x_c, s_c = native_gauss_eliminate(a, b)
        assert x_np.tobytes() == x_c.tobytes()  # bit-pattern, signs of zero included
        np.testing.assert_array_equal(s_np, s_c)

    def test_adversarial_batch(self):
        a, b = _adversarial_batch()
        with np.errstate(all="ignore"):
            x_np, s_np = gaussian_eliminate(a, b, prefer_native=False)
            x_c, s_c = native_gauss_eliminate(a, b)
        assert x_np.tobytes() == x_c.tobytes()
        np.testing.assert_array_equal(s_np, s_c)

    def test_various_orders(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 5, 6, 9, 12, 20, 33):
            a = rng.normal(size=(32, n, n))
            b = rng.normal(size=(32, n))
            x_np, _ = gaussian_eliminate(a, b, prefer_native=False)
            x_c, _ = native_gauss_eliminate(a, b)
            assert x_np.tobytes() == x_c.tobytes(), f"order {n} mismatch"

    def test_empty_batch(self):
        x, s = native_gauss_eliminate(
            np.zeros((0, 6, 6)), np.zeros((0, 6))
        )
        assert x.shape == (0, 6) and s.shape == (0,)

    def test_dispatch_uses_native_by_default(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 6, 6))
        b = rng.normal(size=(8, 6))
        via_dispatch = gaussian_eliminate(a, b)
        direct = native_gauss_eliminate(a, b)
        assert via_dispatch[0].tobytes() == direct[0].tobytes()


def _assert_fused_matches(fields, ridge):
    with np.errstate(all="ignore"):
        ref = solve_accumulated(fields, ridge=ridge, prefer_native=False)
        params, error, singular = native_solve_packed(fields, ridge)
    assert same_bits(ref.params, params)
    assert same_bits(ref.error, error)
    assert ref.singular.dtype == singular.dtype == bool
    np.testing.assert_array_equal(ref.singular, singular)
    return ref


def _adversarial_rows() -> np.ndarray:
    """Hand-made packed rows, one fused-solve branch each."""
    rng = np.random.default_rng(41)
    base = adversarial_packed(16, seed=9)[12:16]
    rows = [np.zeros(N_FIELDS), np.full(N_FIELDS, -0.0)]
    rank_deficient = np.zeros(N_FIELDS)
    rank_deficient[0] = rank_deficient[21] = 1.0  # H = e0 e0^T
    rows.append(rank_deficient)
    for value in (np.nan, np.inf, -np.inf):
        for index in (0, 5, 23, 27):
            row = base[len(rows) % 4].copy()
            row[index] = value
            rows.append(row)
    for c in (-1.0, -0.0, 5e-324, -5e-324, 1e-310):
        row = base[len(rows) % 4].copy()
        row[27] = c
        rows.append(row)
        zero_grad = row.copy()
        zero_grad[21:27] = 0.0
        rows.append(zero_grad)
        neg_zero_grad = row.copy()
        neg_zero_grad[21:27] = -0.0
        rows.append(neg_zero_grad)
    signed = base[0].copy()
    signed[rng.random(N_FIELDS) < 0.5] = -0.0
    rows.append(signed)
    return np.array(rows)


@needs_native
class TestFusedTemplateSolve:
    """``solve_packed`` against the NumPy ``solve_accumulated``, bit for bit."""

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_random_batch(self, ridge):
        rng = np.random.default_rng(17)
        fields = rng.normal(size=(512, N_FIELDS)) * np.exp(rng.normal(scale=3.0, size=(512, 1)))
        _assert_fused_matches(fields, ridge)

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_accumulated_template_batch(self, ridge):
        ref = _assert_fused_matches(adversarial_packed(256, seed=4), ridge)
        assert not ref.singular.all()
        # The ridge lifts an all-zero H to 1e-9 I, pivots above the tolerance.
        assert ref.singular.any() == (ridge == 0.0)

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_adversarial_rows(self, ridge):
        ref = _assert_fused_matches(_adversarial_rows(), ridge)
        assert np.isnan(ref.error).any()
        assert ref.singular.any() == (ridge == 0.0)

    def test_negative_zero_system(self):
        """All -0.0 and singular: theta is +0.0 and c + theta.g is +0.0."""
        ref = _assert_fused_matches(np.full((3, N_FIELDS), -0.0), 0.0)
        assert ref.singular.all()
        assert not np.signbit(ref.error).any() and not np.signbit(ref.params).any()

    def test_negative_error_clamps_to_positive_zero(self):
        fields = adversarial_packed(32, seed=3)[12:]  # the well-posed rows
        fields[:, 27] = -1e6  # c far below -theta.grad: a negative minimum
        ref = _assert_fused_matches(fields, 1e-9)
        assert (ref.error == 0.0).all() and not np.signbit(ref.error).any()

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_channels_last_view_of_channels_first(self, ridge):
        rng = np.random.default_rng(8)
        first = rng.normal(size=(3, N_FIELDS, 12, 10))
        first[1, :, 4, 4] = 0.0
        first[2, 7, 2, 3] = np.nan
        view = np.moveaxis(first, 1, 3)
        assert not view.flags.c_contiguous
        _assert_fused_matches(view, ridge)
        _assert_fused_matches(view[:1], ridge)

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_survivor_subset(self, ridge):
        rng = np.random.default_rng(12)
        view = np.moveaxis(rng.normal(size=(1, N_FIELDS, 16, 16)), 1, 3)
        survivors = np.flatnonzero(rng.random(256) < 0.3)
        _assert_fused_matches(view.reshape(-1, N_FIELDS)[survivors], ridge)

    def test_strided_and_single_systems(self):
        fields = adversarial_packed(64, seed=2)
        _assert_fused_matches(fields[::3], 1e-9)
        _assert_fused_matches(fields[::-1], 1e-9)
        single = _assert_fused_matches(fields[20], 1e-9)
        assert np.ndim(single.error) == 0

    def test_empty_batch(self):
        params, error, singular = native_solve_packed(np.zeros((0, 5, N_FIELDS)), 1e-9)
        assert params.shape == (0, 5, 6) and error.shape == singular.shape == (0, 5)

    def test_dispatch_uses_fused_kernel_by_default(self, monkeypatch):
        from repro import native

        calls = []

        def spy(fields, ridge):
            calls.append(fields.shape)
            return native_solve_packed(fields, ridge)

        monkeypatch.setattr(native, "native_solve_packed", spy)
        fields = adversarial_packed(32, seed=6)
        via_dispatch = solve_accumulated(fields)
        assert calls == [fields.shape]
        direct = native_solve_packed(fields, 1e-9)
        assert via_dispatch.params.tobytes() == direct[0].tobytes()
        assert via_dispatch.error.tobytes() == direct[1].tobytes()
        with np.errstate(all="ignore"):
            solve_accumulated(fields, prefer_native=False)
        assert len(calls) == 1, "prefer_native=False must stay on the NumPy path"

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ValueError, match="28 packed fields"):
            solve_accumulated(np.zeros((4, 27)))


class TestBuildCacheKey:
    """The build cache must key on compiler identity + flags, not just source."""

    def test_cc_change_invalidates_build_cache(self, tmp_path, monkeypatch):
        """Changing CC must rebuild, not silently reuse another compiler's .so."""
        from repro import native

        marker = tmp_path / "fake-cc-ran"
        fake_cc = tmp_path / "fake-cc"
        fake_cc.write_text(f'#!/bin/sh\ntouch "{marker}"\nexec cc "$@"\n')
        fake_cc.chmod(0o755)

        monkeypatch.delenv("CC", raising=False)
        baseline = native._compile()
        assert baseline.exists()

        monkeypatch.setenv("CC", str(fake_cc))
        rebuilt = native._compile()
        assert rebuilt != baseline, (
            "same cache entry served for a different compiler -- stale .so reuse"
        )
        assert marker.exists(), "the new CC was never invoked"

        # Same compiler again: the cache must hit (no recompile).
        marker.unlink()
        assert native._compile() == rebuilt
        assert not marker.exists()

    def test_cflags_participate_in_cache_key(self, monkeypatch):
        from repro import native

        monkeypatch.delenv("CC", raising=False)
        baseline = native._compile()
        monkeypatch.setattr(native, "_CFLAGS", [*native._CFLAGS, "-DSOME_FLAG"])
        assert native._compile() != baseline


class TestLoadRetry:
    """Transient build failures must not disable the kernel forever."""

    @pytest.fixture(autouse=True)
    def _fresh_loader_state(self, monkeypatch):
        from repro import native

        # These tests drive the loader itself, so the opt-out must not
        # short-circuit it when the suite runs under REPRO_NATIVE=0.
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        native.reset()
        yield
        native.reset()

    def test_transient_failure_is_retried(self, monkeypatch):
        from repro import native

        real_compile = native._compile
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("no space left on device")
            return real_compile()

        monkeypatch.setattr(native, "_compile", flaky)
        assert not native.native_available()
        assert "no space left" in native._state[1]
        # The next probe retries instead of serving the memoized failure.
        assert native.native_available()
        assert calls["n"] == 2

    def test_transient_retries_are_bounded(self, monkeypatch):
        from repro import native

        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise OSError("no space left on device")

        monkeypatch.setattr(native, "_compile", always_fails)
        for _ in range(10):
            assert not native.native_available()
        assert calls["n"] == native._TRANSIENT_ATTEMPT_LIMIT
        assert "giving up" in native.native_status()

    def test_self_check_failure_is_permanent(self, monkeypatch):
        from repro import native

        calls = {"n": 0}

        def broken_check(lib):
            calls["n"] += 1
            raise AssertionError("kernel disagrees with reference")

        monkeypatch.setattr(native, "_self_check", broken_check)
        assert not native.native_available()
        assert not native.native_available()
        assert calls["n"] == 1, "a wrong kernel must not be re-probed"

    def test_fused_self_check_failure_is_permanent(self, monkeypatch):
        """A template solve that disagrees with NumPy untrusts the library."""
        from repro import native

        calls = {"n": 0}
        real = native._call_solve_packed

        def off_by_one_ulp(lib, fields, ridge):
            calls["n"] += 1
            params, error, singular = real(lib, fields, ridge)
            return params, np.nextafter(error, np.inf), singular

        monkeypatch.setattr(native, "_call_solve_packed", off_by_one_ulp)
        assert not native.native_available()
        assert "template solve" in native.native_status()
        assert not native.native_available()
        assert calls["n"] == 1, "a wrong kernel must not be re-probed"

    def test_reset_clears_the_outcome(self, monkeypatch):
        from repro import native

        def always_fails():
            raise AssertionError("pretend the self-check failed")

        monkeypatch.setattr(native, "_compile", always_fails)
        assert not native.native_available()
        monkeypatch.undo()
        monkeypatch.delenv("REPRO_NATIVE", raising=False)  # undo() restored it
        # Permanent failure stays memoized until reset() is called.
        assert not native.native_available()
        native.reset()
        assert native.native_available()


def test_env_opt_out_falls_back_to_numpy():
    """REPRO_NATIVE=0 must disable the kernel without changing results."""
    code = (
        "import numpy as np\n"
        "from repro.native import native_available, native_status\n"
        "from repro.core.linalg import gaussian_eliminate\n"
        "assert not native_available(), native_status()\n"
        "assert 'REPRO_NATIVE' in native_status()\n"
        "rng = np.random.default_rng(2)\n"
        "x, s = gaussian_eliminate(rng.normal(size=(4, 6, 6)), rng.normal(size=(4, 6)))\n"
        "print(x.sum())\n"
    )
    env = dict(os.environ, REPRO_NATIVE="0")
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
