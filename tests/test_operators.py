"""Extremal operators, p-Laplace coefficients, and the class checks."""

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puccilab import operators
from puccilab.errors import InputError, SingularGradientError
from puccilab.grid import Grid, GridFunction, cylinder_nodes, restrict, sample
from puccilab.linalg import _symmetric, jacobi_eigh_batch
from puccilab.operators import (
    ClassReport,
    EllipticityPair,
    HeatOp,
    PLaplaceOp,
    PLaplaceParams,
    PucciMinusOp,
    PucciPlusOp,
    _eigen_sign_sums,
    _eigen_value_sums,
    _hessian_stack,
    _pucci_combine,
    _slice_cross_diffs,
    _slice_diag_diffs,
    _slice_gradient,
    _plaplace_envelope_value,
    _point_stencils,
    class_membership,
    membership_tolerance,
    p_laplace_coeff,
    pde_residual,
)
from puccilab.regularity import decay_sequence
from puccilab.solver import DirichletProblem, solve_dirichlet
from test_linalg import CLOSED_FORM_TOL, _sym

np.random.seed(42)


def brute_force_pucci(entries, lam, lam_big, plus, step=1e-3):
    """Grid search over diagonal coefficient matrices in the eigenbasis.

    The objective sum(a_i * mu_i) over a_i in [lam, Lam] separates per
    eigenvalue, so the max over the full grid of diagonal matrices
    equals the sum of per-axis maxima; this computes the same number
    as enumerating every tuple without the combinatorial blowup.
    """
    mu = np.linalg.eigvalsh(entries)
    a_values = np.arange(lam, lam_big + step / 2.0, step)
    total = 0.0
    for e in mu:
        products = a_values * e
        total += products.max() if plus else products.min()
    return total


def _envelope(m, q, p):
    """(sub, super): the larger and the smaller value of the envelope hook at one matrix."""
    low, high = PLaplaceOp(PLaplaceParams(p))._envelope(*_point_stencils(m, q, True))
    return float(high[0]), float(low[0])


def test_pucci_frozen_hand_values():
    # diag(1,-1), lam=1, Lam=2: plus = 2*1 + 1*(-1) = 1, minus = 1 - 2 = -1
    m = np.diag([1.0, -1.0])
    ell = EllipticityPair(1.0, 2.0)
    assert abs(PucciPlusOp(ell).point_value(m) - 1.0) < 1e-14
    assert abs(PucciMinusOp(ell).point_value(m) + 1.0) < 1e-14
    # lam = Lam = 1 degenerates to the trace
    one = EllipticityPair(1.0, 1.0)
    assert abs(PucciPlusOp(one).point_value(m) - 0.0) < 1e-14


def test_pucci_matches_brute_force():
    for lam, lam_big in ((1.0, 1.0), (1.0, 1.2), (1.0, 2.0)):
        ell = EllipticityPair(lam, lam_big)
        plus, minus = PucciPlusOp(ell).point_value, PucciMinusOp(ell).point_value
        for _ in range(25):
            a = np.random.randn(3, 3) * 2.0
            m = 0.5 * (a + a.T)
            tol = 1e-2 * (1.0 + np.linalg.norm(m))
            assert abs(plus(m) - brute_force_pucci(m, lam, lam_big, True)) < tol
            assert abs(minus(m) - brute_force_pucci(m, lam, lam_big, False)) < tol


def test_pucci_algebraic_properties():
    ell = EllipticityPair(1.0, 1.7)
    plus, minus = PucciPlusOp(ell).point_value, PucciMinusOp(ell).point_value
    for _ in range(100):
        a = np.random.randn(3, 3)
        b = np.random.randn(3, 3)
        ma, mb = 0.5 * (a + a.T), 0.5 * (b + b.T)
        scale = 1e-12 * (1 + np.linalg.norm(ma) + np.linalg.norm(mb))
        # duality
        assert abs(minus(ma) + plus(-ma)) < scale
        # positive homogeneity
        assert abs(plus(2.5 * ma) - 2.5 * plus(ma)) < 10 * scale
        # subadditivity of the maximal operator
        assert plus(ma + mb) <= plus(ma) + plus(mb) + scale
        # monotonicity: adding a PSD matrix cannot decrease either operator
        psd = mb @ mb.T
        assert plus(ma + psd) >= plus(ma) - scale
        assert minus(ma + psd) >= minus(ma) - scale


def test_p_laplace_coeff_matrix():
    params = PLaplaceParams(p=3.0, epsilon=0.0)
    a = p_laplace_coeff(np.array([1.0, 0.0]), params)
    assert np.allclose(a, [[2.0, 0.0], [0.0, 1.0]], atol=1e-15)
    with pytest.raises(SingularGradientError):
        p_laplace_coeff(np.zeros(2), params)
    # regularized version tolerates q = 0
    soft = p_laplace_coeff(np.zeros(2), PLaplaceParams(p=3.0, epsilon=0.5))
    assert np.allclose(soft, np.eye(2), atol=1e-15)


def test_coefficient_eigenvalue_sandwich():
    for _ in range(300):
        n = np.random.randint(1, 5)
        q = np.random.randn(n) * np.random.choice([1e-3, 1.0, 1e3])
        p = np.random.uniform(1.05, 6.0)
        eps = np.random.choice([0.0, 1e-6, 0.1])
        if eps == 0.0 and np.linalg.norm(q) == 0.0:
            continue
        vals = np.linalg.eigvalsh(p_laplace_coeff(q, PLaplaceParams(p=p, epsilon=eps)))
        lo, hi = min(p - 1.0, 1.0), max(p - 1.0, 1.0)
        assert vals.min() >= lo - 1e-12
        assert vals.max() <= hi + 1e-12


def test_normalized_p_laplacian_is_coefficient_trace():
    # independent route: N_p u = tr(a(q) m) with the exact coefficient
    for _ in range(50):
        n = np.random.randint(2, 4)
        a = np.random.randn(n, n)
        m = 0.5 * (a + a.T)
        q = np.random.randn(n)
        p = np.random.uniform(1.1, 4.0)
        params = PLaplaceParams(p=p, epsilon=0.0)
        direct = PLaplaceOp(params).point_value(m, q)
        coeff = p_laplace_coeff(q, params)
        assert abs(direct - np.trace(coeff @ m)) < 1e-10 * (1 + abs(direct))
    with pytest.raises(SingularGradientError):
        PLaplaceOp(PLaplaceParams(3.0)).point_value(np.eye(2), np.zeros(2))
    # the regularized operator is the trace at q = 0
    assert PLaplaceOp(PLaplaceParams(3.0, 0.5)).point_value(np.diag([2.0, -0.5]), [0, 0]) == 1.5


def test_envelope_frozen_values():
    m = np.diag([2.0, -1.0])
    # p = 3: sub = tr + e_max = 1 + 2 = 3, super = tr + e_min = 1 - 1 = 0
    sub, sup = _envelope(m, np.zeros(2), 3.0)
    assert (sub, sup) == pytest.approx((3.0, 0.0), abs=1e-12)
    # p = 1.5 swaps the branches: sub = 1 - 0.5*(-1) = 1.5, super = 1 - 0.5*2 = 0
    sub, sup = _envelope(m, np.zeros(2), 1.5)
    assert (sub, sup) == pytest.approx((1.5, 0.0), abs=1e-12)
    # away from q = 0 both coincide with the smooth value
    q = np.array([0.7, -0.2])
    sub, sup = _envelope(m, q, 3.0)
    smooth = PLaplaceOp(PLaplaceParams(3.0)).point_value(m, q)
    assert sub == pytest.approx(smooth, abs=1e-12)
    assert sup == pytest.approx(smooth, abs=1e-12)


def test_membership_exact_caloric():
    grid = Grid(n_dim=2, h=0.125, tau=0.0078125)
    u = sample(lambda x, t: x[0] ** 2 + x[1] ** 2 + 4.0 * t, grid)
    rep = class_membership(u, EllipticityPair(1.0, 1.0), f_bound=0.0)
    assert rep.verdict == "pass"
    assert rep.worst_sub_slack == 0.0
    assert rep.worst_super_slack == 0.0


def test_membership_slack_convention_frozen():
    # u = x_n^2, lam = Lam = 1, f_bound = 1: u_t - M(D^2 u) = -2 at every
    # admissible node, so the lower inequality misses by exactly 1.
    grid = Grid(n_dim=1, h=0.125, tau=0.125)
    u = sample(lambda x, t: x[0] ** 2, grid)
    rep = class_membership(u, EllipticityPair(1.0, 1.0), f_bound=1.0, tol=0.1)
    assert rep.verdict == "fail"
    assert abs(rep.worst_sub_slack + 1.0) < 1e-10
    assert abs(rep.worst_super_slack - 3.0) < 1e-10


def test_membership_wide_class_covers_counterexample():
    delta = 0.2
    grid = Grid(n_dim=1, h=1.0 / 64, tau=1.0 / 64, stagger=True)
    u = sample(
        lambda x, t: np.where(x[0] < 0.0, x[0] ** 2, x[0] ** 2 / (1.0 + delta)), grid
    )
    wide = class_membership(u, EllipticityPair(1.0, 1.0 + delta), f_bound=2.0)
    assert wide.verdict == "pass"
    strict = class_membership(u, EllipticityPair(1.0, 1.0), f_bound=1.0)
    assert strict.verdict == "fail"
    assert strict.worst_sub_slack <= -0.5


def test_membership_tolerance_formula():
    grid = Grid(n_dim=1, h=0.25, tau=0.125)
    u = sample(lambda x, t: 3.0 * x[0], grid)
    assert membership_tolerance(u) == pytest.approx(10.0 * (0.25 + 0.125) * (1.0 + 3.0))


def test_membership_input_validation():
    grid = Grid(n_dim=1, h=0.25, tau=0.125)
    u = sample(lambda x, t: x[0], grid)
    with pytest.raises(InputError):
        class_membership(u, EllipticityPair(1.0, 2.0), f_bound=-1.0)


def _dyadic(num, den_exp):
    return num / float(2**den_exp)


def test_shift_invariance_bitwise_on_dyadic_data():
    """Subtracting an affine profile must not move verdict or slacks.

    With dyadic lattice steps and dyadic shift coefficients every
    intermediate difference is exact in binary floating point, so the
    invariance holds bit for bit, not just within tolerance.
    """
    grid = Grid(n_dim=2, h=0.125, tau=0.0625)
    u = sample(lambda x, t: x[0] ** 2 - x[0] * x[1] + 2.0 * t, grid)
    base = class_membership(u, EllipticityPair(1.0, 1.5), f_bound=2.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        a0 = _dyadic(int(rng.integers(-64, 65)), 6)
        b = np.array(
            [_dyadic(int(rng.integers(-64, 65)), 6) for _ in range(2)]
        )
        shifted_data = u.data - (
            a0
            + b[0] * grid.coordinate_mesh()[0]
            + b[1] * grid.coordinate_mesh()[1]
        )[None, ...]
        shifted = GridFunction(grid=grid, data=shifted_data)
        rep = class_membership(shifted, EllipticityPair(1.0, 1.5), f_bound=2.0)
        assert rep.verdict == base.verdict
        assert rep.worst_sub_slack == base.worst_sub_slack
        assert rep.worst_super_slack == base.worst_super_slack
        assert rep.worst_node == base.worst_node


def test_pde_residual_zero_for_exact_solutions():
    grid = Grid(n_dim=2, h=0.125, tau=0.0078125)
    u = sample(lambda x, t: x[0] ** 2 + x[1] ** 2 + 4.0 * t, grid)
    zero = sample(lambda x, t: 0.0, grid)
    res = pde_residual(u, HeatOp(lam=1.0), zero)
    assert res.sup_norm == 0.0
    # residual is a grid function with silent edges
    assert res.data[0].max() == 0.0


def test_pde_residual_envelope_at_singular_gradient():
    grid = Grid(n_dim=2, h=0.125, tau=0.0078125)
    u = sample(lambda x, t: x[0] ** 2 + x[1] ** 2, grid)
    f = sample(lambda x, t: -6.0, grid)
    op = PLaplaceOp(PLaplaceParams(p=3.0, epsilon=0.0))
    with pytest.raises(SingularGradientError):
        pde_residual(u, op, f, zero_gradient="raise")
    res = pde_residual(u, op, f, zero_gradient="envelope")
    assert res.sup_norm < 1e-11
    with pytest.raises(InputError):
        pde_residual(u, op, f, zero_gradient="maybe")


@pytest.mark.parametrize("zero_gradient", ["raise", "envelope"])
@pytest.mark.parametrize(
    "op, kernels",
    [
        (HeatOp(), ["diag"]),
        (PucciPlusOp(EllipticityPair(1.0, 2.0)), ["diag", "cross"]),
        (PLaplaceOp(PLaplaceParams(2.5, 0.125)), ["diag", "gradient", "cross"]),
    ],
    ids=["heat", "pucci", "p-flow"],
)
def test_the_residual_forms_each_stencil_once_per_level(op, kernels, zero_gradient, monkeypatch):
    # the envelope hook and, where it gives none, the value read the
    # same stencils, and a tag's residual forms only those it reads
    grid = Grid(n_dim=2, h=0.125, tau=1.0 / 256, time_extent=4.0 / 256)
    u = sample(lambda x, t: np.sin(3.0 * x[0]) * np.cos(2.0 * x[1]) + t, grid)
    calls = []
    for name, kernel in [
        ("diag", "_slice_diag_diffs"),
        ("gradient", "_slice_gradient"),
        ("cross", "_slice_cross_diffs"),
    ]:
        def counting(*args, _name=name, _kernel=getattr(operators, kernel)):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(operators, kernel, counting)
    pde_residual(u, op, sample(lambda x, t: 0.0, grid), zero_gradient=zero_gradient)
    assert calls == kernels * (grid.n_time_levels - 1)


_SMALL = Grid(n_dim=2, h=0.25, tau=1.0 / 64, time_extent=0.125)
_U = sample(lambda x, t: x[0] * x[1] + t, _SMALL)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pde_residual(_U, "heat", _U), "unknown operator tag 'heat'"),
        (lambda: pde_residual(_U, None, _U), "unknown operator tag None"),
        (lambda: class_membership(_U, (1.0, 2.0), 0.0), "ell must be an EllipticityPair"),
        (lambda: PucciPlusOp((1.0, 2.0)), "ell must be an EllipticityPair"),
        (lambda: PucciMinusOp(None), "ell must be an EllipticityPair"),
        (lambda: PLaplaceOp(2.5), "params must be a PLaplaceParams"),
    ],
    ids=["residual-text", "residual-none", "membership-tuple", "pucci-tuple", "pucci-none",
         "plaplace-float"],
)
def test_what_is_not_a_tag_or_its_parameters_is_an_input_error(call, message):
    with pytest.raises(InputError, match=re.escape(message)):
        call()


def test_ellipticity_pair_validation():
    with pytest.raises(InputError):
        EllipticityPair(0.0, 1.0)
    with pytest.raises(InputError):
        EllipticityPair(2.0, 1.0)
    with pytest.raises(InputError):
        PLaplaceParams(p=1.0, epsilon=0.0)
    with pytest.raises(InputError):
        PLaplaceParams(p=2.0, epsilon=-0.1)


def test_class_report_shape():
    rep = ClassReport(
        verdict="pass", worst_sub_slack=0.0, worst_super_slack=0.0,
        worst_node=(1, (1, 1)), tolerance=0.1,
    )
    assert rep.verdict in ("pass", "fail")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-30, 30), min_size=3, max_size=3),
    st.floats(1.0, 3.0),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_duality_property(entries, width, n, seed):
    # M-(X) = -M+(-X) bit for bit: rounding to nearest is odd, Gershgorin
    # certifies -X exactly when it certifies X, and the eigen-solver gives
    # -X the negated spectrum of X.
    m = np.array([[entries[0], entries[1]], [entries[1], entries[2]]])
    ell = EllipticityPair(1.0, 1.0 + width)
    plus, minus = PucciPlusOp(ell).point_value, PucciMinusOp(ell).point_value
    assert minus(m) == -plus(-m)
    # Certified rows, and indefinite rows with well separated eigenvalues,
    # so that none is near a double root (where LAPACK keeps no sign
    # symmetry).  With n <= 3 no sign has more than two eigenvalues, so
    # their sum does not depend on the order in which X and -X list them.
    rng = np.random.default_rng(seed)
    k = 20
    spectra = rng.uniform(0.2, 1.0, (k, n)).cumsum(axis=-1)
    spectra[:, 0] *= -1.0
    spectra *= rng.choice([-1.0, 1.0], (k, 1))
    stacks = _property_stacks(n, rng, k)
    indefinite = _rotated(spectra, rng) if n > 1 else stacks["indefinite"]
    mats = np.concatenate([stacks["definite"], indefinite])
    certified = _certified(mats)
    assert certified.any() and (n == 1 or not certified.all())
    pos, neg = _eigen_sign_sums(*_stencils(mats))
    neg_pos, neg_neg = _eigen_sign_sums(*_stencils(-mats))
    lower = _pucci_combine(pos, neg, ell, plus=False)
    assert np.array_equal(lower, -_pucci_combine(neg_pos, neg_neg, ell, plus=True))
    for x in mats[::7]:
        assert minus(x) == -plus(-x)


def test_no_floating_point_warnings_in_3d_pucci_and_membership(monkeypatch):
    # Quadratic data make every interior Hessian close to 2I, the stack
    # on which a rotation-based eigen-solver divides by tiny pivots.
    grid = Grid(n_dim=3, h=0.125, tau=2.0**-10, spatial_extent=0.5, time_extent=2.0**-6)
    g = lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + mesh[2] ** 2 + 6.0 * t
    ell = EllipticityPair(1.0, 1.5)
    stacks = np.stack(
        [np.zeros((3, 3))] + [c * np.eye(3) for c in (2.0, 1.0 / 3.0, -7.5, 1e-150)]
    )
    # Cross entries of 1e308: the Gershgorin radius |c01| + |c02| overflows,
    # while the eigenvalues (+-sqrt(2) 1e308, 0) and the Pucci values with
    # Lam = 1.1 stay finite.  Such rows must reach the eigen-solver.
    huge = lambda mesh, t: 1e308 * mesh[0] * (mesh[1] + mesh[2])
    ell_huge = EllipticityPair(1.0, 1.1)
    big = np.zeros((4, 3, 3))
    big[:, 0, 1] = big[:, 1, 0] = big[:, 0, 2] = big[:, 2, 0] = 1e308
    mixed = np.concatenate([big, 2.0 * np.broadcast_to(np.eye(3), (3, 3, 3))])
    sent = _count_eigen_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = solve_dirichlet(
            DirichletProblem(op_tag=PucciPlusOp(ell), f=lambda mesh, t: 0.0, g=g, grid=grid)
        )
        report = class_membership(u, ell, f_bound=0.0)
        values = jacobi_eigh_batch(stacks)
        values_2d = jacobi_eigh_batch(stacks[:, :2, :2])
        assert sent == []
        u_huge = solve_dirichlet(
            DirichletProblem(
                op_tag=PucciPlusOp(ell_huge), f=lambda mesh, t: 0.0, g=huge, grid=grid
            )
        )
        march_rows = sum(sent)
        report_huge = class_membership(u_huge, ell_huge, f_bound=0.0)
        membership_rows = sum(sent) - march_rows
        del sent[:]
        pos, neg = _eigen_sign_sums(*_stencils(mixed))
        point = PucciPlusOp(ell_huge).point_value(big[0])
    assert np.all(np.isfinite(u.data))
    assert report.verdict in ("pass", "fail")
    assert np.allclose(values, np.linalg.eigvalsh(stacks), rtol=0, atol=1e-15)
    assert np.allclose(values_2d, np.linalg.eigvalsh(stacks[:, :2, :2]), rtol=0, atol=1e-15)
    # every interior row of the huge field overflows its radius
    interior = 7**3 * (grid.n_time_levels - 1)
    assert march_rows == interior and membership_rows == interior
    assert np.all(np.isfinite(u_huge.data))
    assert np.isfinite(report_huge.worst_sub_slack) and np.isfinite(report_huge.worst_super_slack)
    # only the overflowing rows were solved, then the pointwise one; the
    # 2I rows stayed certified
    assert sent == [4, 1]
    assert np.array_equal(pos[4:], [6.0, 6.0, 6.0]) and np.array_equal(neg[4:], [0.0] * 3)
    s2 = np.sqrt(2.0) * 1e308
    assert np.allclose(pos[:4], s2, rtol=1e-14) and np.allclose(neg[:4], -s2, rtol=1e-14)
    assert point == pytest.approx(1.1 * s2 - s2, rel=1e-13)


# ---------------------------------------------------------------------------
# The Gershgorin-certified path of the Pucci values.


def _interior(values, shape):
    """The interior block of a flat kernel result for a level of this shape."""
    ws = operators._Workspace(shape)
    full = np.zeros(int(np.prod(shape)))
    full[ws.lo : ws.hi] = values
    return full.reshape(shape)[tuple(slice(1, -1) for _ in shape)]


def _stencils(mats):
    """diag and cross arrays of a stack, as the slice stencils give them."""
    n = mats.shape[-1]
    diag = [mats[..., i, i].copy() for i in range(n)]
    cross = {(i, j): mats[..., j, i].copy() for i in range(n) for j in range(i + 1, n)}
    return diag, cross


def _certified(mats):
    """Independent Gershgorin test: semidefinite by diagonal dominance."""
    n = mats.shape[-1]
    d = np.diagonal(mats, axis1=-2, axis2=-1)
    radius = np.where(np.eye(n, dtype=bool), 0.0, np.abs(mats)).sum(axis=-1)
    return np.all(d >= radius, axis=-1) | np.all(d <= -radius, axis=-1)


def _count_eigen_rows(monkeypatch):
    """Record the number of rows of every stack handed to the eigen-solver."""
    sent = []
    solve = operators.jacobi_eigh_batch

    def counting(mats, *args, **kwargs):
        sent.append(int(np.prod(mats.shape[:-2])))
        return solve(mats, *args, **kwargs)

    monkeypatch.setattr(operators, "jacobi_eigh_batch", counting)
    return sent


def _rotated(spectra, rng):
    n = spectra.shape[-1]
    q, _ = np.linalg.qr(rng.standard_normal(spectra.shape[:-1] + (n, n)))
    return _sym(q @ (spectra[..., :, None] * np.swapaxes(q, -1, -2)))


def _property_stacks(n, rng, k=400):
    scale = 10.0 ** rng.uniform(-6, 6, (k, 1, 1))
    noise = _sym(rng.standard_normal((k, n, n)))
    # strictly diagonally dominant, half of them negative definite
    margin = rng.uniform(0.0, 1.0, (k, n, 1))
    dominant = noise + np.eye(n) * (np.abs(noise).sum(axis=-1)[..., None] + margin)
    dominant *= np.where(np.arange(k) % 2 == 0, 1.0, -1.0)[:, None, None]
    # one eigenvalue of size 1e-16: of either sign after a rotation, and
    # positive on the diagonal, where Gershgorin certifies it
    spectra = np.sort(rng.uniform(0.5, 2.0, (k, n)), axis=-1)
    spectra[:, 0] = 1e-16 * rng.standard_normal(k)
    unrotated = np.zeros((k, n, n))
    unrotated[:, np.arange(n), np.arange(n)] = np.abs(spectra)
    c = rng.choice([-1.0, 1.0], (k, 1, 1)) * 10.0 ** rng.uniform(-3, 3, (k, 1, 1))
    return {
        "definite": dominant * scale,
        "indefinite": noise * scale,
        "singular_rotated": _rotated(spectra, rng) * scale,
        "singular_diagonal": unrotated * scale,
        "rank_one": np.ones((k, n, n)) * scale,
        "near_cI": c * np.eye(n) + 1e-9 * np.abs(c) * noise,
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certified_rows_agree_with_eigvalsh_and_the_rest_stays_bitwise(n, monkeypatch):
    rng = np.random.default_rng(100 + n)
    for name, mats in _property_stacks(n, rng).items():
        sent = _count_eigen_rows(monkeypatch)
        pos, neg = _eigen_sign_sums(*_stencils(mats))
        certified = _certified(mats)
        assert sum(sent) == int(np.sum(~certified)), name
        # the rows left over: the parent formula on the whole stack, bitwise
        whole_pos, whole_neg = _eigen_value_sums(jacobi_eigh_batch(mats))
        assert np.array_equal(pos[~certified], whole_pos[~certified]), name
        assert np.array_equal(neg[~certified], whole_neg[~certified]), name
        # certified rows: (trace, 0) or (0, trace), close to the LAPACK sums
        exact = np.linalg.eigvalsh(mats)
        want_pos = np.where(exact > 0.0, exact, 0.0).sum(axis=-1)
        want_neg = np.where(exact < 0.0, exact, 0.0).sum(axis=-1)
        norm = np.sqrt(np.sum(mats * mats, axis=(-2, -1)))
        bound = CLOSED_FORM_TOL * norm[certified]
        assert np.all(np.abs(pos - want_pos)[certified] <= bound), name
        assert np.all(np.abs(neg - want_neg)[certified] <= bound), name
        trace = np.einsum("...ii->...", mats)
        assert np.all((pos + neg)[certified] == trace[certified]), name
        assert np.all(((pos == 0.0) | (neg == 0.0))[certified]), name
        if name in ("definite", "singular_diagonal", "near_cI") or n == 1:
            assert certified.all() and sent == [], name


def test_near_identity_slice_never_reaches_an_eigen_solver(monkeypatch):
    grid = Grid(n_dim=3, h=0.125, tau=2.0**-10, spatial_extent=0.5, time_extent=2.0**-6)
    # Hessians 2I + O(1e-9): noise of 1e-9 h^2 on a quadratic
    noise = 1e-9 * grid.h**2 * np.random.default_rng(5).standard_normal(grid.spatial_shape)
    g = sample(
        lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + mesh[2] ** 2 + 6.0 * t + noise, grid
    )
    ell = EllipticityPair(1.0, 1.5)
    calls = []
    monkeypatch.setattr(operators, "jacobi_eigh_batch", lambda *a, **k: calls.append("batch"))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append("eigvalsh"))
    u = solve_dirichlet(
        DirichletProblem(op_tag=PucciPlusOp(ell), f=lambda mesh, t: 0.0, g=g, grid=grid)
    )
    sl = u.data[0]
    value = _interior(PucciPlusOp(ell).slice_value(sl, grid.h), sl.shape)
    lower = _interior(PucciMinusOp(ell).slice_value(sl, grid.h), sl.shape)
    report = class_membership(u, ell, f_bound=0.0)
    assert calls == []
    diag = [_interior(d, sl.shape) for d in _slice_diag_diffs(sl, grid.h)]
    assert np.max(np.abs(diag[0] - 2.0)) > 0.0
    trace = diag[0] + diag[1] + diag[2]
    assert np.array_equal(value, 1.5 * trace) and np.array_equal(lower, 1.0 * trace)
    assert report.verdict in ("pass", "fail")


@pytest.mark.parametrize("n_dim", [1, 2, 3])
def test_point_value_equals_the_slice_kernel_bitwise(n_dim):
    grid = Grid(n_dim=n_dim, h=0.125, tau=2.0**-10, spatial_extent=0.5, time_extent=2.0**-6)
    mesh = grid.coordinate_mesh()
    y = mesh[1] if n_dim > 1 else 0.0
    z = mesh[2] if n_dim > 2 else 1.0
    sl = np.broadcast_to(
        np.sin(3.0 * mesh[0]) * np.cos(2.0 * y) * np.cos(z) + mesh[0] * y + 0.4 * mesh[0] ** 2,
        grid.spatial_shape,
    )
    diag = [_interior(d, sl.shape) for d in _slice_diag_diffs(sl, grid.h)]
    cross = {k: _interior(c, sl.shape) for k, c in _slice_cross_diffs(sl, grid.h).items()}
    hess = _hessian_stack(diag, cross).reshape(-1, n_dim, n_dim)
    certified = _certified(hess)
    # both paths are exercised (in 1-D every row is certified)
    assert certified.any() and (n_dim == 1 or not certified.all())
    # every tag runs its slice arithmetic on a one-row stack; the heat
    # and Pucci values ignore the gradient
    grad = np.stack([_interior(g, sl.shape).ravel() for g in _slice_gradient(sl, grid.h)], -1)
    ell = EllipticityPair(1.0, 1.5)
    exact = [PLaplaceOp(PLaplaceParams(p)) for p in (1.5, 2.0, 3.0)]
    regularized = PLaplaceOp(PLaplaceParams(2.5, epsilon=grid.h))
    for op in [HeatOp(0.75), PucciPlusOp(ell), PucciMinusOp(ell), *exact, regularized]:
        kernel = _interior(op.slice_value(sl, grid.h), sl.shape).ravel()
        point = [op.point_value(m, q) for m, q in zip(hess, grad)]
        assert np.array_equal(point, kernel), op
    # away from a zero gradient both ends of the envelope are the value
    for op in exact:
        p = op.params.p
        point = [op.point_value(m, q) for m, q in zip(hess, grad)]
        assert all(_envelope(m, q, p) == (v, v) for m, q, v in zip(hess, grad, point))
    assert regularized._envelope(*_point_stencils(hess[0], grad[0], True)) is None


def _planted_zero_gradients(n_dim, rng):
    """A random 9^n level whose centered gradient vanishes exactly at 3^n planted nodes.

    The planted nodes sit three steps apart, so the neighbours copied to
    plant one never belong to the stencil of another.
    """
    sl = rng.standard_normal((9,) * n_dim)
    planted = list(itertools.product((1, 4, 7), repeat=n_dim))
    for node in planted:
        for i in range(n_dim):
            up, down = list(node), list(node)
            up[i] += 1
            down[i] -= 1
            sl[tuple(up)] = sl[tuple(down)]
    return sl, planted


@pytest.mark.parametrize("n_dim", [1, 2, 3])
def test_envelope_solves_only_zero_gradient_rows_and_matches_pointwise(n_dim, monkeypatch):
    rng = np.random.default_rng(50 + n_dim)
    sl, planted = _planted_zero_gradients(n_dim, rng)
    h = 0.125
    diag, cross, grad = _slice_diag_diffs(sl, h), _slice_cross_diffs(sl, h), _slice_gradient(sl, h)
    sent = _count_eigen_rows(monkeypatch)
    low, high = _plaplace_envelope_value(2.5, diag, cross, grad, operators._Workspace(sl.shape))
    assert sent == [len(planted)]
    # the pointwise envelope on every interior row, bit for bit
    inner_cross = {k: _interior(c, sl.shape) for k, c in cross.items()}
    hess = _hessian_stack([_interior(d, sl.shape) for d in diag], inner_cross)
    hess = hess.reshape(-1, n_dim, n_dim)
    grads = np.stack([_interior(g, sl.shape).ravel() for g in grad], -1)
    point = np.array([_envelope(m, q, 2.5) for m, q in zip(hess, grads)])
    assert np.array_equal(point[:, 0], _interior(high, sl.shape).ravel())
    assert np.array_equal(point[:, 1], _interior(low, sl.shape).ravel())
    zero = np.all(grads == 0.0, axis=-1)
    assert zero.sum() == len(planted)
    # in 1-D both extreme eigenvalues are the one entry
    assert np.all(point[zero, 0] > point[zero, 1]) == (n_dim > 1)
    # the residual takes the same path, one stack of planted rows per level
    grid = Grid(n_dim=n_dim, h=h, tau=2.0**-10, spatial_extent=0.5, time_extent=2.0**-9)
    u = GridFunction(grid=grid, data=np.stack([sl, sl, sl]))
    sent.clear()
    res = pde_residual(u, PLaplaceOp(PLaplaceParams(2.5)), sample(lambda x, t: 0.0, grid),
                       zero_gradient="envelope")
    assert sent == [len(planted)] * 2
    # u_t = f = 0: the residual is the distance of 0 to [low, high], with its sign
    want = _interior(np.maximum(-high, 0.0) + np.minimum(-low, 0.0), sl.shape)
    assert np.array_equal(res.data[1][(slice(1, -1),) * n_dim], want)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_envelope_at_zero_gradient_is_max_and_min_of_the_extreme_values(p):
    rng = np.random.default_rng(int(10 * p))
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = _sym(rng.standard_normal((n, n)))
        e = np.linalg.eigvalsh(m)
        ends = (np.trace(m) + (p - 2.0) * e[0], np.trace(m) + (p - 2.0) * e[-1])
        sub, sup = _envelope(m, np.zeros(n), p)
        assert (sub, sup) == pytest.approx((max(ends), min(ends)), abs=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: PLaplaceOp(PLaplaceParams(3.0)).point_value(np.eye(2), np.ones(3)),
        lambda: PLaplaceOp(PLaplaceParams(3.0)).point_value(np.eye(2), [np.nan, 1.0]),
        lambda: PLaplaceOp(PLaplaceParams(3.0)).point_value(np.eye(2)),
        lambda: PLaplaceOp(PLaplaceParams(0.5)).point_value(np.eye(2), [1.0, 0.0]),
        lambda: PLaplaceOp(PLaplaceParams(np.inf)).point_value(np.eye(2), [1.0, 0.0]),
        lambda: _envelope(np.eye(2), np.zeros(3), 3.0),
        lambda: _envelope(np.eye(2), [0.0, np.inf], 3.0),
        lambda: _envelope(np.eye(2), np.zeros(2), 0.5),
    ],
    ids=[
        "nplap-shape", "nplap-nan", "nplap-no-q", "nplap-p", "nplap-p-inf",
        "env-shape", "env-inf", "env-p",
    ],
)
def test_pointwise_p_laplace_rejects_malformed_input(call):
    with pytest.raises(InputError):
        call()


_GRID = Grid(n_dim=2, h=0.25, tau=1.0 / 64, time_extent=0.25)


@pytest.mark.parametrize(
    "call",
    [
        lambda: PLaplaceOp(PLaplaceParams(3.0)).point_value(np.eye(2), ["a", 1]),
        lambda: PLaplaceOp(PLaplaceParams(3.0)).point_value(np.eye(2), ["1", 1]),
        lambda: PLaplaceOp(PLaplaceParams("3")).point_value(np.eye(2), [1, 1]),
        lambda: _envelope(np.eye(2), [0, 0], None),
        lambda: p_laplace_coeff(["a", 1], PLaplaceParams(3.0)),
        lambda: EllipticityPair("1", 2.0),
        lambda: EllipticityPair(1.0, [2.0]),
        lambda: PLaplaceParams(2.0, "0.1"),
        lambda: HeatOp(lam=1j),
        lambda: PucciPlusOp(EllipticityPair(1, 2)).point_value([["a", 0], [0, 1]]),
        lambda: _symmetric([[object(), 0], [0, 1]]),
        lambda: cylinder_nodes(_GRID, (["a", 0], 0.0), 0.5),
        lambda: cylinder_nodes(_GRID, ([0, 0], "0"), 0.5),
        lambda: cylinder_nodes(_GRID, ([0, 0], 0.0), "0.5"),
        lambda: decay_sequence(sample(lambda x, t: x[0] + 0.0 * t, _GRID), (["a", 0], 0.0)),
    ],
    ids=[
        "nplap-text-q", "nplap-numeric-text-q", "nplap-text-p", "env-none-p",
        "coeff-text-q", "ellipticity-text", "ellipticity-list", "plaplace-text-eps",
        "heat-complex", "pucci-text-matrix", "symmatrix-object", "cylinder-text-center",
        "cylinder-text-time", "cylinder-text-radius", "decay-text-center",
    ],
)
def test_non_numeric_library_input_is_an_input_error(call):
    with pytest.raises(InputError, match="real number"):
        call()


def test_parameters_are_stored_as_floats():
    assert EllipticityPair(1, 2) == EllipticityPair(1.0, 2.0)
    assert type(EllipticityPair(1, 2).Lam) is float
    params = PLaplaceParams(np.float64(2.5), 0)
    assert type(params.p) is float and type(params.epsilon) is float


@pytest.mark.parametrize("n_dim", [1, 2, 3])
def test_plaplace_slice_values_keep_their_summation_order(n_dim):
    # Reference: trace, |Du|^2 and Du . D^2 u Du written out term by term
    # in the order the reports were produced with; the shared helper must
    # give the same bits.
    rng = np.random.default_rng(30 + n_dim)
    sl = rng.standard_normal((9,) * n_dim)
    h = 0.125
    diag, cross = _slice_diag_diffs(sl, h), _slice_cross_diffs(sl, h)
    grad = _slice_gradient(sl, h)
    trace = diag[0].copy()
    for d in diag[1:]:
        trace += d
    norm2 = grad[0] * grad[0]
    for g in grad[1:]:
        norm2 = norm2 + g * g
    quad = grad[0] * grad[0] * diag[0]
    for i in range(1, n_dim):
        quad = quad + grad[i] * grad[i] * diag[i]
    for (i, j), val in cross.items():
        quad = quad + 2.0 * (grad[i] * grad[j] * val)
    for p, eps in ((3.0, 0.1), (1.5, 0.0)):
        value = PLaplaceOp(PLaplaceParams(p=p, epsilon=eps)).slice_value(sl, h)
        assert np.array_equal(value, trace + (p - 2.0) * (quad / (norm2 + eps * eps)))
    low, high = _plaplace_envelope_value(2.5, diag, cross, grad, operators._Workspace(sl.shape))
    smooth = trace + 0.5 * (quad / norm2)
    assert np.array_equal(low, smooth) and np.array_equal(high, smooth)


# ---------------------------------------------------------------------------
# The flat layout: ghost positions between interior rows never count.


def _ghost_hessians(sl, h):
    """Hessian rows of the flat kernels at the ghost positions of a level."""
    ws = operators._Workspace(sl.shape)
    ghost = ~ws.valid
    diag = [d[ghost] for d in _slice_diag_diffs(sl, h)]
    cross = {k: c[ghost] for k, c in _slice_cross_diffs(sl, h).items()}
    return _hessian_stack(diag, cross)


@pytest.mark.parametrize("n_dim", [2, 3])
def test_ghost_rows_never_reach_the_eigen_solver(n_dim, monkeypatch):
    grid = Grid(n_dim=n_dim, h=0.125, tau=2.0**-10, spatial_extent=0.5, time_extent=2.0**-7)
    g = lambda mesh, t: sum(x * x for x in mesh) + 2.0 * n_dim * t
    sl = sample(g, grid).data[0]
    # every interior Hessian is close to 2I, but the rows that wrap around
    # a row end are not
    diag = [_interior(d, sl.shape) for d in _slice_diag_diffs(sl, grid.h)]
    cross = {k: _interior(c, sl.shape) for k, c in _slice_cross_diffs(sl, grid.h).items()}
    assert _certified(_hessian_stack(diag, cross).reshape(-1, n_dim, n_dim)).all()
    assert not _certified(_ghost_hessians(sl, grid.h)).all()
    ell = EllipticityPair(1.0, 1.5)
    calls = []
    monkeypatch.setattr(operators, "jacobi_eigh_batch", lambda *a, **k: calls.append("batch"))
    value = PucciPlusOp(ell).slice_value(sl, grid.h)
    u = solve_dirichlet(
        DirichletProblem(op_tag=PucciMinusOp(ell), f=lambda mesh, t: 0.0, g=g, grid=grid)
    )
    report = class_membership(u, ell, f_bound=0.0)
    assert calls == []
    assert np.array_equal(_interior(value, sl.shape), 1.5 * sum(diag[1:], diag[0]))
    assert report.verdict == "pass"


def _strided_membership(u, ell, f_bound):
    """class_membership on strided interior views, one stack per slice."""
    grid = u.grid
    n = grid.n_dim
    worst = {"sub": np.inf, "super": np.inf}
    worst_key, worst_node = np.inf, None

    def at(sl, moves):
        shift = [moves.get(k, 0) for k in range(n)]
        return sl[tuple(slice(1 + s, d - 1 + s) for s, d in zip(shift, sl.shape))]

    for m in range(1, grid.n_time_levels):
        sl = u.data[m]
        h2 = grid.h * grid.h
        diag = [(at(sl, {i: 1}) - 2.0 * at(sl, {}) + at(sl, {i: -1})) / h2 for i in range(n)]
        cross = {
            (i, j): (at(sl, {i: 1, j: 1}) - at(sl, {i: 1, j: -1}) - at(sl, {i: -1, j: 1})
                     + at(sl, {i: -1, j: -1})) / (4.0 * h2)
            for i in range(n)
            for j in range(i + 1, n)
        }
        pos, neg = _eigen_sign_sums(*_stencils(_hessian_stack(diag, cross).reshape(-1, n, n)))
        dt = ((at(sl, {}) - at(u.data[m - 1], {})) / grid.tau).ravel()
        sub = dt - (ell.lam * pos + ell.Lam * neg) + f_bound
        sup = f_bound - (dt - (ell.Lam * pos + ell.lam * neg))
        for name, slack in (("sub", sub), ("super", sup)):
            k = int(np.argmin(slack))
            worst[name] = min(worst[name], slack[k])
            if slack[k] < worst_key:
                worst_key = slack[k]
                idx = np.unravel_index(k, tuple(s - 2 for s in sl.shape))
                worst_node = (m, tuple(int(i) + 1 for i in idx))
    return worst["sub"], worst["super"], worst_node


@pytest.mark.parametrize("n_dim", [2, 3])
def test_membership_minimum_ignores_ghost_positions(n_dim):
    grid = Grid(n_dim=n_dim, h=0.125, tau=2.0**-10, spatial_extent=0.5, time_extent=2.0**-7)
    wave = lambda mesh, t: np.sin(3.0 * mesh[0] + t) * np.cos(2.0 * mesh[1])
    data = sample(wave, grid).data.copy()
    # the boundary nodes fall fast in time, so the ghost positions of the
    # flat range would hold the smallest sub slack
    edge = np.ones(grid.spatial_shape, dtype=bool)
    edge[tuple(slice(1, -1) for _ in range(n_dim))] = False
    data[:, edge] -= 5.0 * np.arange(grid.n_time_levels)[:, None]
    u = GridFunction(grid=grid, data=data)
    ell = EllipticityPair(1.0, 2.0)
    ws = operators._Workspace(grid.spatial_shape)
    dt = operators._slice_time_diff(data[1], data[0], grid.tau)
    flat_sub = dt - PucciMinusOp(ell).slice_value(data[1], grid.h)
    assert not ws.valid[np.argmin(flat_sub)]
    report = class_membership(u, ell, f_bound=0.25)
    sub, sup, node = _strided_membership(u, ell, 0.25)
    assert report.worst_sub_slack == sub
    assert report.worst_super_slack == sup
    assert report.worst_node == node


@pytest.mark.parametrize(
    "grid_kw",
    [dict(n_dim=2), dict(n_dim=3, h=0.25), dict(n_dim=2, half_space=True)],
    ids=["2d", "3d", "half_space"],
)
def test_restricted_levels_are_contiguous_and_strided_levels_refused(grid_kw):
    grid = Grid(**(dict(h=0.125, tau=2.0**-9, spatial_extent=1.0, time_extent=2.0**-6) | grid_kw))
    u = sample(lambda mesh, t: np.sin(3.0 * mesh[0] + t) * np.cos(2.0 * mesh[-1]), grid)
    # a GridFunction stores its levels C-contiguous, which the kernels
    # read flat; they refuse a strided level rather than copy it
    assert restrict(u, 0.5).data.flags.c_contiguous
    with pytest.raises(ValueError):
        _slice_diag_diffs(u.data[1][tuple(slice(2, -2) for _ in range(grid.n_dim))], grid.h)


def test_interior_overflow_in_membership_and_residual_still_warns():
    grid = Grid(n_dim=2, h=0.125, tau=2.0**-10, spatial_extent=0.5, time_extent=2.0**-9)
    # flat levels keep every Hessian 0, while the time difference
    # 2e307 / tau overflows at every node
    data = np.full((grid.n_time_levels,) + grid.spatial_shape, 1e307)
    data[0] = -1e307
    u = GridFunction(grid=grid, data=data)
    ell = EllipticityPair(1.0, 2.0)
    with pytest.warns(RuntimeWarning, match="membership slack"):
        class_membership(u, ell, f_bound=0.0, tol=0.0)
    f = sample(lambda mesh, t: 0.0, grid)
    # the residual field cannot hold the overflow either
    with pytest.warns(RuntimeWarning, match="residual"), pytest.raises(
        InputError, match=r"residual is not finite at level 1, node \(1, 1\)"
    ):
        pde_residual(u, PucciPlusOp(ell), f)


def test_divide_by_a_power_of_two_keeps_the_bits_of_the_division():
    tiny = np.nextafter(0.0, 1.0)
    values = np.array(
        [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, 3.0 * tiny, 1.0, -3.0, 0.1,
         1.7e308, -1.7e308, np.finfo(float).max, np.inf, -np.inf, np.nan, 1.0 / 3.0]
    )
    for k in (-1023, -1022, -60, -12, -1, 0, 1, 15, 1000, 1023):
        for den in (2.0**k, -(2.0**k)):
            with np.errstate(all="ignore"):
                want = values / den
                got = operators._divide(values.copy(), den)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), den


def test_divide_divides_when_no_exact_reciprocal_exists():
    # 1/0.1 and 1/2^-1074 (an overflow) are inexact; a multiply by
    # either one changes these values, the division path does not
    values = np.array([3.0, 0.7, 2.0**-1074, 1.0, -5.5])
    for den in (0.1, 2.0**-1074):
        with np.errstate(all="ignore"):
            want = values / den
            by_reciprocal = values * (1.0 / np.float64(den))
            got = operators._divide(values.copy(), den)
        assert not np.array_equal(by_reciprocal, want)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "n_dim, op, bound",
    [
        (2, PLaplaceOp(PLaplaceParams(p=2.5, epsilon=1.0 / 64)), 8),
        (3, PucciPlusOp(EllipticityPair(1.0, 2.0)), 20),
        (2, PucciPlusOp(EllipticityPair(1.0, 2.0)), 14),
        (3, PLaplaceOp(PLaplaceParams(p=2.5, epsilon=1.0 / 8)), 12),
        (2, HeatOp(), 3),
    ],
    ids=["2d-p-flow", "3d-pucci", "2d-pucci", "3d-p-flow", "2d-heat"],
)
def test_one_slice_keeps_the_workspace_small(n_dim, op, bound, monkeypatch):
    # Every buffer of a workspace is as long as the stencil range, and a
    # march reads them all at every step: their count is the step's cache
    # footprint.  Pucci data with a saddle send rows through the gather.
    h = 1.0 / 64 if n_dim == 2 else 1.0 / 8
    grid = Grid(n_dim=n_dim, h=h, tau=h * h / 16, spatial_extent=1.0, time_extent=h * h / 16)
    sl = sample(lambda x, t: np.sin(3.0 * x[0]) * np.cos(2.0 * x[1]) + x[0] * x[-1], grid).data[1]
    sent = _count_eigen_rows(monkeypatch)
    ws = operators._Workspace(sl.shape, h)
    assert ws.units == (h * h, 4.0 * h * h, 2.0 * h)
    op.slice_value(sl, h, ws)
    buffers = ws._buffers
    for key, b in buffers.items():
        # the raw gradient's components past the first also cover the
        # shifted range that the shared cross differences read
        extra = ws.strides[0] if key in [("grad_raw", i) for i in range(1, n_dim)] else 0
        assert b.shape == (ws.hi - ws.lo + extra,), key
    assert len(buffers) <= bound
    assert sum(sent) > 0 or not isinstance(op, PucciPlusOp)


def _starts_on_a_page(a, whole=True):
    """Whether a starts on a 4096-byte boundary; if whole, of an allocation at most one page longer."""
    owner = a
    while owner.base is not None:
        owner = owner.base
    return a.ctypes.data % 4096 == 0 and (not whole or owner.nbytes <= a.nbytes + 4096)


@pytest.mark.parametrize("h", [1.0 / 8, 0.1], ids=["dyadic", "h=0.1"])
@pytest.mark.parametrize("shape", [(9,), (9, 11), (5, 6, 7)], ids=["1d", "2d", "3d"])
def test_every_workspace_array_starts_on_a_page(shape, h):
    # what a workspace hands out is page-aligned, so every out-of-place
    # pass writes from the start of a 64-byte line
    x = np.random.default_rng(7).standard_normal(shape)
    ws = operators._Workspace(shape, h)
    for op in [HeatOp(), PucciPlusOp(EllipticityPair(1.0, 2.0)), PLaplaceOp(PLaplaceParams(2.5, h))]:
        op.slice_value(x, h, ws)
    operators._slice_time_diff(x, x, 0.1, ws)
    step = [ws.trace, ws.tmp, ws.norm2, *ws.diag, *ws.grad_raw]
    arrays = [ws.valid, ws.ghost, *step, *ws._buffers.values()]
    assert all(_starts_on_a_page(a) for a in arrays)
    # grad is the first hi - lo entries of grad_raw
    assert all(_starts_on_a_page(g, whole=False) for g in ws.grad)
    assert {a.dtype for a in arrays} == {np.dtype(bool), np.dtype(float)}
    # the raw gradient's longer components, and at h = 0.1 its divided copies
    assert [g.size for g in ws.grad_raw] == [ws.hi - ws.lo + (i and ws.strides[0]) for i in ws.axes]
    assert (("grad", 0) in ws._buffers) == (h == 0.1)


@pytest.mark.parametrize("rows", [1, 5, 600])
def test_a_row_workspace_starts_on_a_page(rows):
    ws = operators._Workspace.for_rows(rows)
    diag, cross, _, _ = _point_stencils(np.arange(9.0).reshape(3, 3), None, False)
    diag = [np.repeat(d, rows) for d in diag]
    cross = {key: np.repeat(c, rows) for key, c in cross.items()}
    pos, neg = _eigen_sign_sums(diag, cross, ws)
    value = _pucci_combine(pos, neg, EllipticityPair(1.0, 2.0), True, ws)
    assert value.size == rows
    assert all(_starts_on_a_page(a) for a in [ws.valid, ws.ghost, *ws._buffers.values()])


@pytest.mark.parametrize("source", ["level", "gradient"])
@pytest.mark.parametrize("h", [1.0 / 8, 0.1], ids=["dyadic", "h=0.1"])
@pytest.mark.parametrize("shape", [(9, 11), (5, 6, 7)], ids=["2d", "3d"])
def test_cross_terms_equal_the_four_point_formula(shape, h, source):
    # every position of [lo, hi), ghosts included, on a random level;
    # the first difference is formed from the level or read from the
    # raw gradient of the same level
    x = np.random.default_rng(5).standard_normal(shape).reshape(-1)
    ws = operators._Workspace(shape, h)
    lo, hi = ws.lo, ws.hi
    grad = _slice_gradient(x, h, ws)
    assert [g.shape for g in grad] == [(hi - lo,)] * len(shape)
    at = lambda o: x[lo + o : hi + o]
    for i, s in enumerate(ws.strides):
        want = (at(s) - at(-s)) / (2.0 * h / ws.units[2])
        assert np.array_equal(grad[i].view(np.int64), want.view(np.int64))
    grad_raw = ws.grad_raw if source == "gradient" else None
    terms = list(_slice_cross_diffs(x, h, ws, grad_raw).items())
    assert [key for key, _ in terms] == list(itertools.combinations(range(len(shape)), 2))
    for (i, j), c in terms:
        si, sj = ws.strides[i], ws.strides[j]
        want = ((at(si + sj) - at(si - sj)) - at(-si + sj)) + at(-si - sj)
        want /= 4.0 * h * h / ws.units[1]
        assert np.array_equal(c.view(np.int64), want.view(np.int64)), (i, j)


@pytest.mark.parametrize(
    "op",
    [HeatOp(), PLaplaceOp(PLaplaceParams(2.5, 1.0 / 64)), PucciPlusOp(EllipticityPair(1.0, 2.0))],
    ids=["heat", "p-flow", "pucci"],
)
@pytest.mark.parametrize("n_dim", [2, 3])
def test_a_repeated_slice_value_allocates_no_level_sized_array(op, n_dim, monkeypatch):
    # the march calls slice_value once per step on one workspace; on
    # quadratic data Gershgorin certifies every Pucci row, so none is
    # gathered into a Hessian stack
    h = 1.0 / 32 if n_dim == 2 else 1.0 / 8
    grid = Grid(n_dim=n_dim, h=h, tau=h * h / 16, spatial_extent=1.0, time_extent=h * h / 16)
    quadratic = lambda x, t: sum((i + 1.0) * xi * xi for i, xi in enumerate(x)) + 0.25 * x[0] * x[-1]
    sl = sample(quadratic, grid).data[1]
    sent = _count_eigen_rows(monkeypatch)
    ws = operators._Workspace(sl.shape, h)
    first = op.slice_value(sl, h, ws).copy()
    tracemalloc.start()
    try:
        again = op.slice_value(sl, h, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(again, first) and sent == []
    assert peak < (ws.hi - ws.lo) * again.itemsize, peak
