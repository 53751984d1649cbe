"""Extremal operators, p-Laplace coefficients, and the class checks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puccilab.errors import InputError, SingularGradientError
from puccilab.grid import Grid, GridFunction, sample
from puccilab.linalg import SymMatrix, jacobi_eigh_batch
from puccilab.operators import (
    ClassReport,
    EllipticityPair,
    HeatOp,
    PLaplaceOp,
    PLaplaceParams,
    PucciPlusOp,
    class_membership,
    envelope_residuals,
    membership_tolerance,
    normalized_p_laplacian,
    p_laplace_coeff,
    pde_residual,
    pucci_minus,
    pucci_plus,
)
from puccilab.solver import DirichletProblem, solve_dirichlet

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


def test_pucci_frozen_hand_values():
    # diag(1,-1), lam=1, Lam=2: plus = 2*1 + 1*(-1) = 1, minus = 1 - 2 = -1
    m = SymMatrix(np.diag([1.0, -1.0]))
    ell = EllipticityPair(1.0, 2.0)
    assert abs(pucci_plus(m, ell) - 1.0) < 1e-14
    assert abs(pucci_minus(m, ell) + 1.0) < 1e-14
    # lam = Lam = 1 degenerates to the trace
    one = EllipticityPair(1.0, 1.0)
    assert abs(pucci_plus(m, one) - 0.0) < 1e-14


def test_pucci_matches_brute_force():
    for lam, lam_big in ((1.0, 1.0), (1.0, 1.2), (1.0, 2.0)):
        ell = EllipticityPair(lam, lam_big)
        for _ in range(25):
            a = np.random.randn(3, 3) * 2.0
            m = 0.5 * (a + a.T)
            tol = 1e-2 * (1.0 + np.linalg.norm(m))
            assert abs(pucci_plus(SymMatrix(m), ell) - brute_force_pucci(m, lam, lam_big, True)) < tol
            assert abs(pucci_minus(SymMatrix(m), ell) - brute_force_pucci(m, lam, lam_big, False)) < tol


def test_pucci_algebraic_properties():
    ell = EllipticityPair(1.0, 1.7)
    for _ in range(100):
        a = np.random.randn(3, 3)
        b = np.random.randn(3, 3)
        ma, mb = 0.5 * (a + a.T), 0.5 * (b + b.T)
        scale = 1e-12 * (1 + np.linalg.norm(ma) + np.linalg.norm(mb))
        # duality
        assert abs(pucci_minus(SymMatrix(ma), ell) + pucci_plus(SymMatrix(-ma), ell)) < scale
        # positive homogeneity
        assert abs(pucci_plus(SymMatrix(2.5 * ma), ell) - 2.5 * pucci_plus(SymMatrix(ma), ell)) < 10 * scale
        # subadditivity of the maximal operator
        assert (
            pucci_plus(SymMatrix(ma + mb), ell)
            <= pucci_plus(SymMatrix(ma), ell) + pucci_plus(SymMatrix(mb), ell) + scale
        )
        # monotonicity: adding a PSD matrix cannot decrease either operator
        psd = mb @ mb.T
        assert pucci_plus(SymMatrix(ma + psd), ell) >= pucci_plus(SymMatrix(ma), ell) - scale
        assert pucci_minus(SymMatrix(ma + psd), ell) >= pucci_minus(SymMatrix(ma), ell) - scale


def test_p_laplace_coeff_matrix():
    params = PLaplaceParams(p=3.0, epsilon=0.0)
    a = p_laplace_coeff(np.array([1.0, 0.0]), params).entries
    assert np.allclose(a, [[2.0, 0.0], [0.0, 1.0]], atol=1e-15)
    with pytest.raises(SingularGradientError):
        p_laplace_coeff(np.zeros(2), params)
    # regularized version tolerates q = 0
    soft = p_laplace_coeff(np.zeros(2), PLaplaceParams(p=3.0, epsilon=0.5))
    assert np.allclose(soft.entries, np.eye(2), atol=1e-15)


def test_coefficient_eigenvalue_sandwich():
    for _ in range(300):
        n = np.random.randint(1, 5)
        q = np.random.randn(n) * np.random.choice([1e-3, 1.0, 1e3])
        p = np.random.uniform(1.05, 6.0)
        eps = np.random.choice([0.0, 1e-6, 0.1])
        if eps == 0.0 and np.linalg.norm(q) == 0.0:
            continue
        vals = np.linalg.eigvalsh(p_laplace_coeff(q, PLaplaceParams(p=p, epsilon=eps)).entries)
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
        direct = normalized_p_laplacian(SymMatrix(m), q, p)
        coeff = p_laplace_coeff(q, PLaplaceParams(p=p, epsilon=0.0)).entries
        assert abs(direct - np.trace(coeff @ m)) < 1e-10 * (1 + abs(direct))
    with pytest.raises(SingularGradientError):
        normalized_p_laplacian(SymMatrix(np.eye(2)), np.zeros(2), 3.0)


def test_envelope_frozen_values():
    m = SymMatrix(np.diag([2.0, -1.0]))
    # p = 3: sub = tr + e_max = 1 + 2 = 3, super = tr + e_min = 1 - 1 = 0
    sub, sup = envelope_residuals(m, np.zeros(2), 3.0)
    assert (sub, sup) == pytest.approx((3.0, 0.0), abs=1e-12)
    # p = 1.5 swaps the branches: sub = 1 - 0.5*(-1) = 1.5, super = 1 - 0.5*2 = 0
    sub, sup = envelope_residuals(m, np.zeros(2), 1.5)
    assert (sub, sup) == pytest.approx((1.5, 0.0), abs=1e-12)
    # away from q = 0 both coincide with the smooth value
    q = np.array([0.7, -0.2])
    sub, sup = envelope_residuals(m, q, 3.0)
    smooth = normalized_p_laplacian(m, q, 3.0)
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
)
def test_duality_property(entries, width):
    m = np.array([[entries[0], entries[1]], [entries[1], entries[2]]])
    ell = EllipticityPair(1.0, 1.0 + width)
    lhs = pucci_minus(SymMatrix(m), ell)
    rhs = -pucci_plus(SymMatrix(-m), ell)
    assert abs(lhs - rhs) < 1e-11 * (1.0 + np.abs(m).max())


def test_no_floating_point_warnings_in_3d_pucci_and_membership():
    # Quadratic data make every interior Hessian close to 2I, the stack
    # on which a rotation-based eigen-solver divides by tiny pivots.
    grid = Grid(n_dim=3, h=0.125, tau=2.0**-10, spatial_extent=0.5, time_extent=2.0**-6)
    g = lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + mesh[2] ** 2 + 6.0 * t
    ell = EllipticityPair(1.0, 1.5)
    stacks = np.stack(
        [np.zeros((3, 3))] + [c * np.eye(3) for c in (2.0, 1.0 / 3.0, -7.5, 1e-150)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = solve_dirichlet(
            DirichletProblem(op_tag=PucciPlusOp(ell), f=lambda mesh, t: 0.0, g=g, grid=grid)
        )
        report = class_membership(u, ell, f_bound=0.0)
        values, _ = jacobi_eigh_batch(stacks)
        values_2d, _ = jacobi_eigh_batch(stacks[:, :2, :2])
    assert np.all(np.isfinite(u.data))
    assert report.verdict in ("pass", "fail")
    assert np.allclose(values, np.linalg.eigvalsh(stacks), rtol=0, atol=1e-15)
    assert np.allclose(values_2d, np.linalg.eigvalsh(stacks[:, :2, :2]), rtol=0, atol=1e-15)
