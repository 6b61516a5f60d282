"""Untouched modes take the per-mode sign rule exactly, at any |lambda| rho.

A band-limited condition is the APS condition B(a) off a finite band.  So at a
coordinate that no W vector or g entry touches, each end either constrains
the mode (its perp span has the unit vector there) or leaves it free.  The
mode's constraint column then has rank 1 when either end constrains it and is
a null direction when neither does, whatever the value exp(-|lambda| rho) of
the normalized homogeneous solution at the constraining end.  Ranking those
values against a normwise cut dropped the graded ones (e^-25, e^-50 and e^-75
of the top on ``index_fresh``'s long_aps slot at rho 25) and counted one
kernel and one cokernel mode too many for each.  ``solve_bvp`` solves such a
column in closed form, so a right-hand side that misses the cokernel is
solvable at any length.
"""

import numpy as np
import pytest

from apslab.boundary_conditions import make_generalized_aps
from apslab.cylinder_solver import (
    CylinderProblem,
    CylinderSection,
    solve_bvp,
)
from apslab.expoly import Profile
from apslab.index_calculus import index, kernel_dim
from apslab.spectral_core import EigenmodeBasis, SigmaZero


def aps_problem(basis, a, c, rho):
    """B(a) over A at t=0 and B(c) over -A at t=rho."""
    left, right = make_generalized_aps(basis, a), make_generalized_aps(basis.negated(), c)
    return CylinderProblem(basis, SigmaZero.scalar(basis, 1j), rho, left, right)


def sign_rule(P):
    """(dim ker, dim coker): a mode is in the kernel when both ends leave it free
    (lambda < a and -lambda < c), and in the cokernel when both constrain it."""
    lam, a, c = P.basis.coord_eigenvalue, P.left.cut, P.right.cut
    return int(np.sum((lam < a) & (-lam < c))), int(np.sum((lam >= a) & (-lam >= c)))


def assert_counts(P, want):
    assert sign_rule(P) == want
    rep = index(P)
    assert (rep.dim_ker, rep.dim_coker) == want
    assert rep.truncation_certificate["doubled_agrees"] is True
    assert kernel_dim(P) == want[0]
    bases = index(P, certify=False, with_bases=True)
    assert (len(bases.kernel_basis), len(bases.cokernel_basis)) == want
    res = solve_bvp(P, CylinderSection.zero(P.basis, P.rho))
    assert (len(res.kernel_basis), len(res.obstruction_basis)) == want


@pytest.mark.parametrize("rho", [1.0, 10.0, 25.0, 50.0])
def test_long_aps(rho):
    # index_fresh's long_aps slot: it counted (3, 1) at rho 10 and (5, 3) at 25 and 50
    basis = EigenmodeBasis.lattice(128, band_limit=6.0)
    assert_counts(aps_problem(basis, -3.5, 5.5, rho), (2, 0))


@pytest.mark.parametrize("rho", [25.0, 200.0])
def test_modes_constrained_at_one_end_only(rho):
    # lambda = -2 is constrained at both ends, lambda in [-1, 1] by B(-2.5)
    # alone, at the value e^(lambda rho) for lambda = -1; this counted (1, 2) at
    # both lengths, and at rho 200 the scales of |lambda| >= 4 underflow to 0
    basis = EigenmodeBasis.lattice(8, band_limit=4.0)
    assert_counts(aps_problem(basis, -2.5, 1.5, rho), (0, 1))


@pytest.mark.parametrize("rho", [25.0, 50.0])
def test_a_mode_constrained_at_one_end_is_solved(rho):
    # lambda = -1 is constrained at t=0 alone, where its homogeneous solution is
    # e^-rho of its top; lstsq on the whole matrix dropped that column at rho 50
    # and reported every right-hand side on the mode unsolvable, although the
    # cokernel is the mode lambda = -2 alone
    basis = EigenmodeBasis.lattice(8, band_limit=4.0)
    P = aps_problem(basis, -2.5, 1.5, rho)
    profile = Profile.from_terms([(1.0 + 0.5j, 1, 0.3j), (0.7, 0, -0.2)], 0.0, rho)
    modes = [m.mode_id for m in basis.modes if m.eigenvalue != -2.0]
    res = solve_bvp(P, CylinderSection(basis, rho, {j: [profile] for j in modes}))
    assert res.consistent and res.residuals["constraint_residual"] <= 1e-12
    lam = basis.coord_eigenvalue
    x0, xr = (res.particular.trace(t).to_dense() for t in (0.0, rho))
    assert np.abs(x0[lam >= -2.5]).max() <= 1e-12
    assert np.abs(xr[lam <= -1.5]).max() <= 1e-12
