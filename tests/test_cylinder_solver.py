"""Tests for closed-form cylinder sections, the model-operator solver, and the
analytic identities (reference isomorphism, Green, energy, a-priori bounds)."""

import math
import tracemalloc

import numpy as np
import pytest

from apslab.boundary_conditions import make_generalized_aps, seeded_graph_condition
from apslab.cylinder_solver import (
    CylinderProblem,
    CylinderSection,
    SolverError,
    _homogeneous_scales,
    adjoint_problem,
    cutoff_profile,
    energy_identity_residual,
    extension_apply,
    extension_bound_probe,
    greens_residual,
    model_adjoint_apply,
    model_apply,
    ode_bound_check,
    random_cylinder_section,
    riso_residual,
    s0_apply,
    solve_bvp,
)
from apslab.expoly import Profile, first_order_solve
from apslab.index_calculus import index
from apslab.spectral_core import EigenmodeBasis, SigmaZero, random_section

RHO = 1.0


@pytest.fixture
def basis():
    return EigenmodeBasis.lattice(8, band_limit=4.0)


@pytest.fixture
def sigma(basis):
    return SigmaZero.scalar(basis, 1j)


def reference_problem(basis, sigma, rho=RHO):
    """Strictly-lower spectral data at the left end, the exact complement at the
    right: every mode is constrained at exactly one end, so the problem is an
    isomorphism."""
    nb = basis.negated()
    return CylinderProblem(
        basis,
        sigma,
        rho,
        make_generalized_aps(basis, 0.0),
        make_generalized_aps(nb, nb.cut_above(0.0)),
    )


def relaxed_problem(basis, sigma, rho=RHO):
    """Cuts just above zero at both ends: the zero mode is free, kernel dim 1."""
    nb = basis.negated()
    return CylinderProblem(
        basis,
        sigma,
        rho,
        make_generalized_aps(basis, basis.cut_above(0.0)),
        make_generalized_aps(nb, nb.cut_above(0.0)),
    )


class TestCylinderSection:
    def test_trace_and_arithmetic(self, basis):
        p = Profile.exponential(2.0, -1.0, 0.0, RHO)
        sec = CylinderSection.single_mode(basis, RHO, 3, p)
        assert abs(sec.trace0().coeff(3)[0] - 2.0) < 1e-15
        assert abs(sec.trace_rho().coeff(3)[0] - 2.0 * math.exp(-1.0)) < 1e-15
        assert (sec - sec).is_zero()
        assert abs(sec.scale(0.5).trace0().coeff(3)[0] - 1.0) < 1e-15

    def test_deriv_plus_a_kills_homogeneous_profile(self, basis):
        sec = CylinderSection.single_mode(
            basis, RHO, 2, Profile.exponential(1.0, -2.0, 0.0, RHO)
        )
        assert sec.deriv_plus_a().sup_on_grid() < 1e-13

    def test_exact_l2_matches_grid_quadrature(self, basis):
        rng = np.random.default_rng(0)
        ts = np.linspace(0.0, RHO, 4001)
        for _ in range(5):
            sec = random_cylinder_section(basis, rng, RHO)
            exact = sec.l2_norm_sq()
            # trapezoid rule on the t-grid, profile by profile
            grid = sum(
                float(np.trapezoid(np.abs(np.array([p(t) for t in ts])) ** 2, ts))
                for profs in sec.profiles.values()
                for p in profs
            )
            assert abs(exact - grid) < 1e-4 * (1.0 + exact)

    def test_profile_interval_must_match_cylinder(self, basis):
        with pytest.raises(SolverError, match="rho"):
            CylinderSection(basis, RHO, {0: [Profile.constant(1.0, 0.0, 2.0)]})

    def test_fiber_count_checked(self, basis):
        with pytest.raises(SolverError, match="fiber"):
            CylinderSection(basis, RHO, {0: []})

    def test_positive_length_required(self, basis):
        with pytest.raises(SolverError):
            CylinderSection(basis, 0.0)


class TestRightInverse:
    def test_r_lambda_solves_per_mode(self):
        f = first_order_solve(2.0, Profile.constant(1.0, 0.0, RHO))
        res = f.derivative() + f.scale(2.0) - Profile.constant(1.0, 0.0, RHO)
        assert res.sup_on_grid(33) < 1e-13
        assert f(0.0) == 0.0

    def test_s0_is_a_right_inverse(self, basis, sigma):
        rng = np.random.default_rng(1)
        for _ in range(20):
            psi = random_cylinder_section(basis, rng, RHO)
            phi = s0_apply(psi, sigma)
            res = model_apply(phi, sigma) - psi
            assert res.sup_on_grid() < 1e-12 * (1.0 + psi.sup_on_grid())

    def test_s0_split_trace_conditions(self, basis, sigma):
        rng = np.random.default_rng(2)
        psi = random_cylinder_section(basis, rng, RHO, n_modes=8)
        phi = s0_apply(psi, sigma)
        for mid, vec in phi.trace0().coeffs.items():
            if basis.eigenvalue(mid) >= 0:
                assert np.max(np.abs(vec)) < 1e-12
        for mid, vec in phi.trace_rho().coeffs.items():
            if basis.eigenvalue(mid) < 0:
                assert np.max(np.abs(vec)) < 1e-12


def homogeneous_solve(P):
    """solve_bvp with a zero right-hand side: the kernel and obstruction bases of P."""
    return solve_bvp(P, CylinderSection.zero(P.basis, P.rho))


@pytest.mark.parametrize("rho", [0.3, 25.0, 200.0])
def test_homogeneous_scales_match_a_per_mode_loop(rho):
    # one np.exp over the coordinates against math.exp per mode: both round
    # exp(-|lambda| rho) to within an ulp, so they agree to a few ulps
    basis = EigenmodeBasis.lattice(8, shift=0.3, fiber_dim=2, band_limit=4.0)
    d0, dr = _homogeneous_scales(basis, rho)
    for m in basis.modes:
        off = basis.offset(m.mode_id)
        far = math.exp(-abs(m.eigenvalue) * rho)
        want = (1.0, far) if m.eigenvalue >= 0 else (far, 1.0)
        for d, w in zip((d0, dr), want):
            got = d[off : off + m.fiber_dim]
            np.testing.assert_allclose(got, w, rtol=4 * np.finfo(float).eps, atol=0)


class TestSolveBvp:
    def test_reference_problem_has_trivial_kernel(self, basis, sigma):
        P = reference_problem(basis, sigma)
        assert homogeneous_solve(P).kernel_basis == []

    def test_reference_solve_meets_both_conditions(self, basis, sigma):
        P = reference_problem(basis, sigma)
        rng = np.random.default_rng(3)
        psi = random_cylinder_section(basis, rng, RHO)
        res = solve_bvp(P, psi)
        assert res.consistent and res.kernel_basis == [] and res.obstruction_basis == []
        assert res.residuals["operator_residual"] < 1e-10 * (1.0 + math.sqrt(psi.l2_norm_sq()))
        assert P.left.membership(res.particular.trace0())
        tr = res.particular.trace_rho()
        assert P.right.membership(tr.on_basis(P.right.basis))

    def test_relaxed_problem_kernel_is_the_constant_zero_mode(self, basis, sigma):
        P = relaxed_problem(basis, sigma)
        kernel = homogeneous_solve(P).kernel_basis
        assert len(kernel) == 1
        k = kernel[0]
        assert set(k.profiles) == {0}
        assert abs(abs(k.trace0().coeff(0)[0]) - 1.0) < 1e-12
        assert k.deriv_plus_a().sup_on_grid() < 1e-13

    def test_obstructed_problem_reports_inconsistency(self, basis, sigma):
        nb = basis.negated()
        P = CylinderProblem(
            basis,
            sigma,
            RHO,
            make_generalized_aps(basis, -0.5),
            make_generalized_aps(nb, -0.5),
        )
        obstructions = homogeneous_solve(P).obstruction_basis
        assert len(obstructions) == 1
        w = obstructions[0]
        # a right-hand side with nonzero pairing against the cokernel
        psi = CylinderSection(basis, RHO, w.profiles)
        res = solve_bvp(P, psi)
        assert not res.consistent
        assert res.particular is None
        assert len(res.obstruction_basis) == 1

    def test_rhs_must_share_the_cylinder(self, basis, sigma):
        P = reference_problem(basis, sigma)
        psi = CylinderSection.zero(basis, 2.0)
        with pytest.raises(Exception):
            solve_bvp(P, psi)


class TestAdjointProblem:
    def test_adjoint_eigenvalues_are_negated(self, basis, sigma):
        P = reference_problem(basis, sigma)
        Q = adjoint_problem(P)
        for m in basis.modes:
            assert Q.basis.eigenvalue(m.mode_id) == -m.eigenvalue

    def test_adjoint_kernel_pairs_to_zero_with_the_range(self, basis, sigma):
        nb = basis.negated()
        P = CylinderProblem(
            basis,
            sigma,
            RHO,
            make_generalized_aps(basis, -0.5),
            make_generalized_aps(nb, -0.5),
        )
        obstructions = homogeneous_solve(P).obstruction_basis
        rng = np.random.default_rng(4)
        window = Profile.from_terms([(RHO, 1, 0.0), (-1.0, 2, 0.0)], 0.0, RHO)
        for _ in range(5):
            raw = random_cylinder_section(basis, rng, RHO)
            # t(rho - t) * raw vanishes at both ends, so it satisfies every
            # boundary condition and its image lies in the range of P
            phi = CylinderSection(
                basis,
                RHO,
                {mid: [window.multiply(p) for p in profs] for mid, profs in raw.profiles.items()},
            )
            image = model_apply(phi, sigma)
            for w in obstructions:
                num = abs(image.l2_inner(w))
                assert num < 1e-10 * (1.0 + math.sqrt(image.l2_norm_sq()))


class TestReferenceIsomorphism:
    def test_decaying_mode_has_zero_residual(self, basis, sigma):
        phi = CylinderSection.single_mode(
            basis, RHO, 2, Profile.exponential(1.0, -2.0, 0.0, RHO)
        )
        assert riso_residual(phi, sigma) < 1e-12

    def test_s0_image_satisfies_identity(self, basis, sigma):
        rng = np.random.default_rng(5)
        for _ in range(10):
            psi = random_cylinder_section(basis, rng, RHO)
            phi = s0_apply(psi, sigma)
            assert riso_residual(phi, sigma) < 1e-10 * (1.0 + phi.sup_on_grid())

    def test_right_end_hypothesis_enforced(self, basis, sigma):
        phi = CylinderSection.single_mode(basis, RHO, -1, Profile.constant(1.0, 0.0, RHO))
        with pytest.raises(SolverError, match="right-end hypothesis"):
            riso_residual(phi, sigma)


class TestGreensIdentity:
    def test_single_mode_example(self, basis, sigma):
        ab = sigma.adjoint_basis()
        phi = CylinderSection.single_mode(basis, RHO, 1, Profile.constant(1.0, 0.0, RHO))
        psi = CylinderSection.single_mode(ab, RHO, 1, Profile.constant(1.0, 0.0, RHO))
        assert abs(greens_residual(phi, psi, sigma)) < 1e-14

    def test_seeded_sections(self, basis, sigma):
        ab = sigma.adjoint_basis()
        rng = np.random.default_rng(6)
        for _ in range(25):
            phi = random_cylinder_section(basis, rng, RHO)
            psi = random_cylinder_section(ab, rng, RHO)
            scale = 1.0 + phi.sup_on_grid() * psi.sup_on_grid()
            assert abs(greens_residual(phi, psi, sigma)) < 1e-10 * scale


class TestEnergyIdentity:
    def test_homogeneous_profile_exact(self, basis):
        phi = CylinderSection.single_mode(
            basis, RHO, 1, Profile.exponential(1.0, -1.0, 0.0, RHO)
        )
        assert energy_identity_residual(phi) < 1e-13

    def test_zero_mode(self, basis):
        phi = CylinderSection.single_mode(basis, RHO, 0, Profile.from_terms([(1.0, 2, 0.0)], 0.0, RHO))
        assert energy_identity_residual(phi) < 1e-13

    def test_seeded_sections(self, basis):
        rng = np.random.default_rng(7)
        for _ in range(25):
            phi = random_cylinder_section(basis, rng, RHO)
            scale = 1.0 + phi.l2_norm_sq()
            assert energy_identity_residual(phi) < 1e-10 * scale


class TestOdeBounds:
    @pytest.mark.parametrize("lam", [0.0, 1.0, -1.0, 2.0, -2.0, 10.0, -10.0])
    def test_a_priori_bounds_hold(self, lam):
        rng = np.random.default_rng(int(abs(lam) * 10 + (lam < 0)))
        for _ in range(10):
            c = complex(rng.standard_normal(), rng.standard_normal())
            p = int(rng.integers(0, 3))
            mu = complex(rng.standard_normal(), rng.standard_normal())
            if abs(mu + lam) < 0.1:
                mu += 0.2
            rhs = Profile.from_terms([(c, p, mu)], 0.0, RHO)
            rep = ode_bound_check(lam, rhs)
            assert rep["pass"]
            assert rep["l2_slack"] >= -1e-12 and rep["h1_slack"] >= -1e-12


class TestExtension:
    def test_cutoff_shape(self):
        chi = cutoff_profile(0.9, RHO)
        assert abs(chi(0.0) - 1.0) < 1e-14
        assert abs(chi(0.3) - 1.0) < 1e-12
        assert abs(chi(0.6)) < 1e-12
        assert abs(chi(0.45) - 0.5) < 1e-12  # smoothstep midpoint
        d = chi.derivative()
        assert abs(d(0.3 + 1e-9)) < 1e-6 and abs(d(0.6 - 1e-9)) < 1e-6

    def test_trace_is_exact_and_support_is_inside_cutoff(self, basis):
        rng = np.random.default_rng(8)
        phi = random_section(basis, rng)
        e = extension_apply(phi, 0.9, RHO)
        tr = e.trace0()
        for mid in phi.support():
            assert np.allclose(tr.coeff(mid), phi.coeff(mid), atol=1e-14)
        for t in np.linspace(0.61, RHO, 20):
            assert np.max(np.abs(e.trace(t).to_dense())) < 1e-14

    def test_probe_is_finite_and_monotone_in_the_sample_set(self, basis):
        rng = np.random.default_rng(9)
        samples = [random_section(basis, rng) for _ in range(30)]
        small = extension_bound_probe(samples[:10], 0.0, 0.9, RHO)
        big = extension_bound_probe(samples, 0.0, 0.9, RHO)
        assert 0.0 < small <= big < math.inf

    def test_probe_rejects_empty_input(self):
        with pytest.raises(SolverError):
            extension_bound_probe([], 0.0, 0.9, RHO)


def traced_peak(fn) -> float:
    """The tracemalloc peak, in bytes, of a second call of ``fn``."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ends", ["aps", "graph"])
def test_solve_and_bases_build_no_total_dim_squared_array(ends):
    # one complex total_dim x total_dim array at 1025 takes 16.8 MB: the dense
    # constraint matrix and lstsq took the solve to 50.8 MB, and the dense
    # sigma_0 of the cokernel sections took index(with_bases=True) to 17.1 MB
    basis = EigenmodeBasis.lattice(512, shift=0.1, band_limit=2.0, spacing=0.5)
    nb = basis.negated()
    if ends == "aps":
        left, right = make_generalized_aps(basis, 0.4), make_generalized_aps(nb, -0.1)
    else:
        rng = np.random.default_rng(2)
        left = seeded_graph_condition(basis, rng, cut=0.5, dim_w_plus=1, dim_w_minus=2, g_norm=0.7)
        right = seeded_graph_condition(nb, rng, cut=-0.3, g_norm=0.6)
    P = CylinderProblem(basis, SigmaZero.scalar(basis, 1j), 1.3, left, right)
    assert P.basis.total_dim == 1025
    rng = np.random.default_rng(3)
    psi = random_cylinder_section(basis, rng, P.rho, n_modes=6, max_abs_eigenvalue=4.0)
    assert traced_peak(lambda: solve_bvp(P, psi)) < 4e6
    assert traced_peak(lambda: index(P, with_bases=True)) < 4e6
