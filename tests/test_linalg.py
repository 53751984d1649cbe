"""Eigen-solver checks against hand values and an independent oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puccilab.errors import InputError
from puccilab.linalg import _symmetric, jacobi_eigh_batch

np.random.seed(42)

# Hand-computed spectra, frozen before the solver existed.
# [[2,1],[1,2]]: char poly (2-t)^2 - 1 -> t = 1, 3.
# [[0,1],[1,0]]: t^2 - 1 -> t = -1, 1.
# diag(3,-5,0.25) stays put.
FROZEN_CASES = [
    (np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 3.0])),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([-1.0, 1.0])),
    (np.diag([3.0, -5.0, 0.25]), np.array([-5.0, 0.25, 3.0])),
    (np.array([[7.0]]), np.array([7.0])),
]


@pytest.mark.parametrize("mat,expected", FROZEN_CASES)
def test_frozen_spectra(mat, expected):
    values = jacobi_eigh_batch(_symmetric(mat))
    assert np.allclose(values, expected, atol=1e-12)


def test_matches_lapack_oracle_random():
    for n in (2, 3, 5, 8):
        for _ in range(50):
            a = np.random.randn(n, n)
            m = 0.5 * (a + a.T)
            got = jacobi_eigh_batch(_symmetric(m))
            want = np.linalg.eigvalsh(m)
            scale = 1.0 + np.abs(want).max()
            assert np.max(np.abs(got - want)) < 1e-10 * scale


def test_batch_shapes_and_agreement():
    mats = np.random.randn(6, 7, 3, 3)
    mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    values = jacobi_eigh_batch(mats)
    assert values.shape == (6, 7, 3)
    # spot-check one entry against the single-matrix path
    single = jacobi_eigh_batch(mats[2, 3])
    assert np.allclose(values[2, 3], single, atol=1e-12)
    # ascending order everywhere
    assert np.all(values[..., :-1] <= values[..., 1:] + 1e-15)


def test_trace_and_norm_invariants():
    for _ in range(200):
        n = np.random.randint(2, 6)
        a = np.random.randn(n, n) * 10.0
        m = 0.5 * (a + a.T)
        vals = jacobi_eigh_batch(_symmetric(m))
        scale = 1.0 + np.abs(m).sum()
        assert abs(vals.sum() - np.trace(m)) < 1e-11 * scale
        assert abs((vals**2).sum() - (m * m).sum()) < 1e-10 * scale**2


def test_symmetrization_of_input():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    m = _symmetric(a)
    assert np.allclose(m, [[1.0, 1.0], [1.0, 1.0]])


def test_symmetrization_near_the_float_limit_and_of_signed_zeros():
    # 1.7e308 + 1.5e308 overflows; halving first gives the mean 1.6e308.
    a = np.array([[1e308, 1.7e308, 0.0], [1.5e308, -1e308, -0.0], [-0.0, 0.0, -0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = _symmetric(a)
    assert np.all(np.isfinite(m))
    assert m[0, 1] == m[1, 0] == 0.5 * 1.7e308 + 0.5 * 1.5e308
    assert (m[0, 0], m[1, 1]) == (1e308, -1e308)
    # bitwise symmetric, signed zeros included
    assert m.tobytes() == np.ascontiguousarray(m.T).tobytes()
    assert not np.signbit(m[:, 2]).any() and not np.signbit(m[2]).any()


def test_input_validation():
    with pytest.raises(InputError):
        _symmetric(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    with pytest.raises(InputError):
        _symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=4,
        max_size=4,
    ),
    st.floats(min_value=-20, max_value=20, allow_nan=False),
)
def test_shift_moves_spectrum(entries, shift):
    m = np.array([[entries[0], entries[1]], [entries[1], entries[3]]])
    base = jacobi_eigh_batch(_symmetric(m))
    shifted = jacobi_eigh_batch(_symmetric(m + shift * np.eye(2)))
    assert np.allclose(shifted, base + shift, atol=1e-9)


# ---------------------------------------------------------------------------
# Closed-form path (n <= 3) and the LAPACK fallback.

# Agreement with eigvalsh, relative to the Frobenius norm of each matrix.
# Measured worst cases: 1.1e-14 on rotated spectra (1, 1 + g, 2) and
# (-3, 1, 1 + g) for 200 gaps g from 1e-12 to 1 (the rows just past the
# fallback cut), 8.7e-15 on a million random 2x2 and 3x3 matrices, and
# 1e-15 on the stacks below.
CLOSED_FORM_TOL = 2e-14

_rng = np.random.default_rng(8)


def _sym(x):
    return 0.5 * (x + np.swapaxes(x, -1, -2))


def _with_spectrum(spectra):
    """Symmetric matrices Q diag(d) Q^T with random orthogonal Q."""
    spectra = np.asarray(spectra, dtype=float)
    n = spectra.shape[-1]
    q, _ = np.linalg.qr(_rng.standard_normal(spectra.shape[:-1] + (n, n)))
    return q @ (spectra[..., :, None] * np.swapaxes(q, -1, -2))


def _special_stacks():
    k = 200
    out = {
        "double": _with_spectrum(np.tile([1.0, 1.0, 2.0], (k, 1))),
        "near_double_1e-9": _with_spectrum(np.tile([1.0, 1.0 + 1e-9, 2.0], (k, 1))),
        "near_double_1e-3": _with_spectrum(np.tile([-1.0, 2.0, 2.001], (k, 1))),
        "triple": np.stack([c * np.eye(3) for c in (0.1, 1.0 / 3.0, 7.0, -2.5, 1e-150)]),
        "zero": np.zeros((4, 3, 3)),
        "wide_scales": _with_spectrum(np.tile([1e-8, 1.0, 1e8], (k, 1))),
        "two_identity_noise": 2.0 * np.eye(3) + 1e-9 * _sym(_rng.standard_normal((k, 3, 3))),
        "zero_2x2": np.zeros((3, 2, 2)),
        "double_2x2": _with_spectrum(np.tile([5.0, 5.0], (k, 1))),
    }
    for n in (1, 2, 3, 4, 5):
        out[f"random_{n}"] = _sym(_rng.standard_normal((500, n, n))) * 10.0 ** _rng.uniform(
            -6, 6, (500, 1, 1)
        )
    return out


SPECIAL = _special_stacks()


@pytest.mark.parametrize("name", sorted(SPECIAL))
def test_closed_form_matches_eigvalsh(name):
    mats = SPECIAL[name]
    values = jacobi_eigh_batch(mats)
    want = np.linalg.eigvalsh(mats)
    norm = np.sqrt(np.sum(mats * mats, axis=(-2, -1)))[..., None]
    assert values.shape == want.shape
    assert np.all(np.abs(values - want) <= CLOSED_FORM_TOL * norm)
    # ascending, and the sum is the trace
    assert np.all(values[..., :-1] <= values[..., 1:])
    trace = np.einsum("...ii->...", mats)
    assert np.all(np.abs(values.sum(axis=-1) - trace) <= CLOSED_FORM_TOL * norm[..., 0])


def test_triple_and_zero_are_exact():
    values = jacobi_eigh_batch(np.stack([np.zeros((3, 3)), 4.0 * np.eye(3)]))
    assert np.array_equal(values, [[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]])


def test_near_double_rows_take_the_fallback(monkeypatch):
    separated = _with_spectrum(np.tile([-1.0, 0.3, 2.0], (50, 1)))
    near = np.concatenate(
        [
            _with_spectrum(np.tile([1.0, 1.0 + 1e-9, 2.0], (7, 1))),
            _with_spectrum(np.tile([-1.0, 2.0, 2.001], (5, 1))),
        ]
    )
    mats = np.concatenate([separated, near])[_rng.permutation(62)]
    oracle = np.linalg.eigvalsh
    seen = []

    def counting(a, *args, **kwargs):
        seen.append(a.copy())
        return oracle(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    values = jacobi_eigh_batch(mats)
    assert len(seen) == 1 and seen[0].shape == (12, 3, 3)
    # exactly the near-double rows went to LAPACK
    sent = {m.tobytes() for m in seen[0]}
    assert sent == {m.tobytes() for m in near}
    seen.clear()
    jacobi_eigh_batch(separated)
    assert seen == []
    assert np.allclose(values, oracle(mats), rtol=0, atol=1e-13)


def test_stacks_above_three_by_three_go_to_lapack(monkeypatch):
    calls = []
    oracle = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or oracle(a))
    for n in (4, 5):
        jacobi_eigh_batch(_sym(_rng.standard_normal((6, n, n))))
    assert calls == [(6, 4, 4), (6, 5, 5)]


def test_entries_near_the_float_range():
    mats = _sym(_rng.standard_normal((20, 3, 3))) * 1e200
    values = jacobi_eigh_batch(mats)
    want = np.linalg.eigvalsh(mats)
    assert np.all(np.isfinite(values))
    assert np.all(np.abs(values - want) <= 1e-13 * np.abs(want).max(axis=-1, keepdims=True))


def test_single_matrix_paths_agree_with_the_stack():
    mats = SPECIAL["near_double_1e-9"][:3]
    stack = jacobi_eigh_batch(mats)
    for m, row in zip(mats, stack):
        values = jacobi_eigh_batch(m)
        assert values.shape == (3,)
        assert np.array_equal(values, row)


def test_non_finite_and_non_square_stacks_are_rejected():
    with pytest.raises(InputError):
        jacobi_eigh_batch(np.full((2, 3, 3), np.inf))
    with pytest.raises(InputError):
        jacobi_eigh_batch(np.zeros((4, 3, 2)))
    with pytest.raises(InputError):
        jacobi_eigh_batch(np.zeros(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_negated_stack_gets_exactly_negated_eigenvalues(n):
    # Keeps the Pucci duality M-(X) = -M+(-X) free of rounding on the
    # closed-form rows (LAPACK gives no such guarantee near a double root).
    mats = SPECIAL[f"random_{n}"]
    values = jacobi_eigh_batch(mats)
    negated = jacobi_eigh_batch(-mats)
    assert np.array_equal(negated, -values[..., ::-1])
