"""Tests for graph-form boundary conditions: constructors, adjoints, projectors,
deformations, quotients, and the mode-diagonal ellipticity check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from apslab.boundary_conditions import (
    BoundaryCondition,
    ConditionError,
    ModeMap,
    adjoint,
    complement_condition,
    deform,
    make_chiral,
    make_generalized_aps,
    make_transmission,
    pseudo_local_check,
    quotient_dim,
    seeded_graph_condition,
)
from apslab.index_calculus import chiral_block_basis, chiral_block_symbol
from apslab.spectral_core import (
    BoundarySection,
    EigenmodeBasis,
    SigmaZero,
    beta_pairing,
    random_section,
)

PROJECTOR_TOL = 1e-12
ALGEBRA_TOL = 1e-14


@pytest.fixture
def basis():
    return EigenmodeBasis.lattice(8, band_limit=4.0)


@pytest.fixture
def fine():
    # half-integer spacing gives 8 band modes per side of a mid-band cut,
    # enough room for seeded graph data with dim W <= 3 and two g pairs
    return EigenmodeBasis.lattice(16, shift=0.25, spacing=0.5, band_limit=4.0)


def negating_sigma(basis):
    """Skew-unitary sigma_0 = i with the eigenvalue-negating mode pairing."""
    blocks = {m.mode_id: np.array([[1j]]) for m in basis.modes}
    targets = {m.mode_id: -m.mode_id for m in basis.modes}
    return SigmaZero(basis, blocks, targets=targets, skew_unitary=True)


def members(cond, rng, count=10):
    """Random elements of the condition, via the explicit projector."""
    out = []
    for _ in range(count):
        x = rng.standard_normal(cond.basis.total_dim) + 1j * rng.standard_normal(
            cond.basis.total_dim
        )
        out.append(BoundarySection.from_dense(cond.basis, cond.project(x)))
    return out


def span_equal(c1, c2, tol=1e-9):
    if c1.dim() != c2.dim():
        return False
    S1 = c1.span_matrix().dense()
    for i in range(S1.shape[1]):
        if not dense_oracle.membership(c2, BoundarySection.from_dense(c1.basis, S1[:, i]), tol):
            return False
    return True


class TestModeMap:
    def test_apply_and_adjoint(self, basis):
        g = ModeMap(basis, {(2, -1): np.array([[3.0]])}, "finite_band")
        phi = BoundarySection.unit(basis, -1)
        assert np.allclose(g.apply(phi).coeff(2), [3.0])
        assert np.allclose(g.adjoint().apply(BoundarySection.unit(basis, 2)).coeff(-1), [3.0])

    def test_operator_norm_paired_diagonal(self, basis):
        g = ModeMap(
            basis,
            {(1, -1): np.array([[2.0]]), (2, -2): np.array([[0.5]])},
            "paired_diagonal",
        )
        assert abs(g.operator_norm() - 2.0) < 1e-14

    def test_zero_entries_are_dropped(self, basis):
        g = ModeMap(basis, {(1, -1): np.array([[0.0]])}, "finite_band")
        assert g.is_zero() and g.tag == "zero"

    def test_bad_tag_rejected(self, basis):
        with pytest.raises(ConditionError, match="tag"):
            ModeMap(basis, {}, "mystery")

    def test_block_shape_checked(self, basis):
        with pytest.raises(ConditionError, match="shape"):
            ModeMap(basis, {(1, -1): np.eye(2)}, "finite_band")

    def test_paired_diagonal_must_be_bijective(self, basis):
        entries = {(1, -1): np.array([[1.0]]), (1, -2): np.array([[1.0]])}
        with pytest.raises(ConditionError, match="bijective"):
            ModeMap(basis, entries, "paired_diagonal")


class TestGeneralizedAps:
    def test_membership_by_spectral_side(self, basis):
        B = make_generalized_aps(basis, 0.5)
        assert B.membership(BoundarySection.unit(basis, 0))
        assert B.membership(BoundarySection.unit(basis, -3))
        assert not B.membership(BoundarySection.unit(basis, 1))

    def test_dim_counts_lower_modes(self, basis):
        B = make_generalized_aps(basis, 0.5)
        assert B.dim() == 9  # eigenvalues -8..0

    def test_cut_on_eigenvalue_excludes_it(self, basis):
        B = make_generalized_aps(basis, 0.0)
        assert not B.membership(BoundarySection.unit(basis, 0))


class TestChiral:
    def test_graph_relation(self, basis):
        sigma = negating_sigma(basis)
        B = make_chiral(basis, sigma, sign=1)
        # g maps mode -1 to mode +1 with block i * sigma = i*i = -1
        inside = BoundarySection(basis, {-1: [1.0], 1: [-1.0]})
        outside = BoundarySection(basis, {-1: [1.0], 1: [1.0]})
        assert B.membership(inside)
        assert not B.membership(outside)

    def test_kernel_mode_splits_by_sign(self, basis):
        sigma = negating_sigma(basis)
        Bp = make_chiral(basis, sigma, sign=1)
        Bm = make_chiral(basis, sigma, sign=-1)
        zero_vec = BoundarySection.unit(basis, 0)
        # i*sigma acts on the zero mode by i*i = -1: the -1-eigenvector
        # lands in W_minus of the +1 condition and W_plus of the -1 condition
        assert Bp.dim_w_plus() == 0 and Bp.dim_w_minus() == 1
        assert Bm.dim_w_plus() == 1 and Bm.dim_w_minus() == 0
        assert not Bp.membership(zero_vec)
        assert Bm.membership(zero_vec)

    def test_requires_skew_unitary(self, basis):
        with pytest.raises(ConditionError, match="skew-unitary"):
            make_chiral(basis, SigmaZero.scalar(basis, 2.0))

    def test_requires_eigenvalue_negating_pairing(self, basis):
        with pytest.raises(ConditionError, match="anticommute"):
            make_chiral(basis, SigmaZero.scalar(basis, 1j))

    def test_opposite_signs_are_adjoint(self, basis):
        sigma = negating_sigma(basis)
        Bp = make_chiral(basis, sigma, sign=1)
        Bm = make_chiral(basis, sigma, sign=-1)
        ad = adjoint(Bp, sigma)
        assert ad.dim_w_plus() == Bm.dim_w_plus()
        assert ad.dim_w_minus() == Bm.dim_w_minus()
        rng = np.random.default_rng(0)
        for phi in members(Bp, rng, 5):
            for psi in members(ad, rng, 5):
                assert abs(beta_pairing(phi, psi, sigma)) < 1e-10

    def test_regenerates_on_extended_lattice(self, basis):
        sigma = negating_sigma(basis)
        B = make_chiral(basis, sigma, sign=1)
        # on_basis transfers the condition's data to a lattice-equal basis
        again = B.on_basis(EigenmodeBasis.lattice(8, band_limit=4.0))
        assert again.dim() == B.dim()


class TestTransmission:
    def test_diagonal_is_inside_antidiagonal_is_not(self, basis):
        db = basis.doubled()
        B = make_transmission(db)
        for j in (0, 2, -3):
            same = BoundarySection(db, {2 * j: [1.0], 2 * j + 1: [1.0]})
            flip = BoundarySection(db, {2 * j: [1.0], 2 * j + 1: [-1.0]})
            assert B.membership(same)
            assert not B.membership(flip)

    def test_kernel_pair_splits_w_families(self, basis):
        B = make_transmission(basis.doubled())
        assert B.dim_w_plus() == 1 and B.dim_w_minus() == 1

    def test_needs_pairings(self, basis):
        with pytest.raises(ConditionError, match="doubled"):
            make_transmission(basis)

    def test_dim_is_half_the_doubled_space(self, basis):
        db = basis.doubled()
        B = make_transmission(db)
        assert B.dim() == basis.total_dim


class TestAdjoint:
    def test_aps_adjoint_keeps_nonpositive_adjoint_modes(self, basis):
        sigma = SigmaZero.scalar(basis, 1j)
        ad = adjoint(make_generalized_aps(basis, 0.0), sigma)
        ab = ad.basis
        # adjoint eigenvalues are negated: the old zero mode stays at 0
        assert ad.membership(BoundarySection(ab, {0: [1.0]}))
        assert ad.membership(BoundarySection(ab, {3: [1.0]}))  # old +3 -> -3
        assert not ad.membership(BoundarySection(ab, {-1: [1.0]}))  # old -1 -> +1

    def test_involution_recovers_condition(self, fine):
        rng = np.random.default_rng(11)
        sigma = SigmaZero.scalar(fine, 1j)
        for _ in range(5):
            B = seeded_graph_condition(fine, rng, cut=0.75, dim_w_plus=2, dim_w_minus=1)
            back = adjoint(adjoint(B, sigma), sigma.adjoint_sigma())
            assert back.basis.same_modes(B.basis)
            assert span_equal(back, B)

    def test_beta_annihilation_all_constructors(self, basis, fine):
        rng = np.random.default_rng(7)
        sigma_f = SigmaZero.scalar(fine, 1j)
        cases = [
            (make_generalized_aps(fine, 0.75), sigma_f),
            (seeded_graph_condition(fine, rng, cut=-0.25, g_norm=0.8), sigma_f),
            (make_chiral(basis, negating_sigma(basis)), negating_sigma(basis)),
        ]
        db = basis.doubled()
        blocks = {m.mode_id: np.array([[1j]]) for m in db.modes}
        targets = {j: t for j, t in db.pairings.items()}
        cases.append((make_transmission(db), SigmaZero(db, blocks, targets=targets)))
        for B, sigma in cases:
            ad = adjoint(B, sigma)
            for phi in members(B, rng, 5):
                for psi in members(ad, rng, 5):
                    assert abs(beta_pairing(phi, psi, sigma)) < 1e-10

    def test_needs_sigma_for_plain_condition(self, basis):
        with pytest.raises(ConditionError, match="sigma_0"):
            adjoint(make_generalized_aps(basis, 0.0))


class TestComplement:
    def test_complement_spans_the_orthocomplement(self, fine):
        rng = np.random.default_rng(3)
        B = seeded_graph_condition(fine, rng, cut=0.75, g_norm=0.7)
        C = complement_condition(B)
        S = B.span_matrix().dense()
        T = C.span_matrix().dense()
        assert S.shape[1] + T.shape[1] == fine.total_dim
        # the negated basis re-sorts modes, so re-express the complement's
        # columns over the original basis mode by mode before comparing
        T_on_B = np.column_stack(
            [
                BoundarySection(fine, BoundarySection.from_dense(C.basis, T[:, i]).coeffs).to_dense()
                for i in range(T.shape[1])
            ]
        )
        assert np.max(np.abs(S.conj().T @ T_on_B)) < 1e-10

    def test_complement_of_aps_is_upper_aps(self, basis):
        C = complement_condition(make_generalized_aps(basis, 0.5))
        nb = C.basis
        assert C.membership(BoundarySection(nb, {1: [1.0]}))
        assert not C.membership(BoundarySection(nb, {0: [1.0]}))


class TestDeform:
    def test_endpoints(self, fine):
        rng = np.random.default_rng(5)
        B = seeded_graph_condition(fine, rng, cut=0.75, g_norm=0.9)
        assert span_equal(deform(B, 1.0), B)
        assert deform(B, 0.0).g.is_zero()

    def test_norm_scales_linearly(self, fine):
        rng = np.random.default_rng(6)
        B = seeded_graph_condition(fine, rng, cut=0.75, g_norm=0.8)
        for s in (0.25, 0.5, 0.75):
            assert abs(deform(B, s).g.operator_norm() - 0.8 * s) < 1e-12

    def test_parameter_range_enforced(self, fine):
        B = make_generalized_aps(fine, 0.0)
        with pytest.raises(ConditionError):
            deform(B, 1.5)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_rebuilt_on_a_doubled_lattice(self, s):
        # the chiral condition built on the 2N chiral symbol, then s scales its g
        def block(j):
            return 0.0 if j == 0 else 1j * j

        b2 = chiral_block_basis(3, block, band_limit=2.0)[0].extended(2)
        moved = deform(make_chiral(b2, chiral_block_symbol(b2)), s)
        fresh = deform(make_chiral(*chiral_block_basis(6, block, band_limit=2.0)), s)
        assert moved.basis.same_modes(fresh.basis)
        assert moved.cut == fresh.cut
        assert fresh.dim_w_plus() + fresh.dim_w_minus() > 0
        assert np.array_equal(moved.w_plus, fresh.w_plus)
        assert np.array_equal(moved.w_minus, fresh.w_minus)
        assert moved.g.entries.keys() == fresh.g.entries.keys()
        assert len(fresh.g.entries) == (0 if s == 0.0 else 12)
        for key, block_value in fresh.g.entries.items():
            assert np.array_equal(moved.g.entries[key], block_value)


class TestProjectors:
    def seeded(self, fine, seed):
        rng = np.random.default_rng(seed)
        return seeded_graph_condition(
            fine, rng, cut=0.75, dim_w_plus=2, dim_w_minus=1, g_norm=0.9
        )

    def test_idempotent_and_self_adjoint(self, fine):
        B = self.seeded(fine, 8)
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.standard_normal(fine.total_dim) + 1j * rng.standard_normal(fine.total_dim)
            y = rng.standard_normal(fine.total_dim) + 1j * rng.standard_normal(fine.total_dim)
            px = B.project(x)
            assert np.linalg.norm(B.project(px) - px) < PROJECTOR_TOL * np.linalg.norm(x)
            lhs = np.vdot(y, px)
            rhs = np.vdot(B.project(y), x)
            assert abs(lhs - rhs) < PROJECTOR_TOL * (np.linalg.norm(x) * np.linalg.norm(y))

    def test_complementary_with_perp_span(self, fine):
        B = self.seeded(fine, 10)
        S = B.perp_span_matrix().dense()
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = rng.standard_normal(fine.total_dim) + 1j * rng.standard_normal(fine.total_dim)
            recon = B.project(x) + S @ (S.conj().T @ x)
            assert np.linalg.norm(recon - x) < PROJECTOR_TOL * np.linalg.norm(x)

    def test_span_matrices_are_orthonormal(self, fine):
        B = self.seeded(fine, 13)
        for M in (B.span_matrix().dense(), B.perp_span_matrix().dense()):
            gram = M.conj().T @ M
            assert np.max(np.abs(gram - np.eye(M.shape[1]))) < 10 * ALGEBRA_TOL

    def test_graph_and_cograph_projectors_annihilate(self, fine):
        B = self.seeded(fine, 14)
        rng = np.random.default_rng(15)
        x = rng.standard_normal(fine.total_dim) + 1j * rng.standard_normal(fine.total_dim)
        # the graph projection lies in graph(g), orthogonal to graph(-g^*) and W_minus
        N = B.perp_span_matrix().dense()
        assert np.linalg.norm(N.conj().T @ dense_oracle.graph_projector_apply(B, x)) < 1e-11


class TestQuotient:
    def test_nested_aps_dimension(self, basis):
        lo = make_generalized_aps(basis, -0.5)
        hi = make_generalized_aps(basis, 1.5)
        assert quotient_dim(lo, hi) == 2  # eigenvalues 0 and 1

    def test_equal_conditions_give_zero(self, basis):
        B = make_generalized_aps(basis, 0.5)
        assert quotient_dim(B, B) == 0

    def test_non_nested_rejected(self, basis):
        lo = make_generalized_aps(basis, -0.5)
        hi = make_generalized_aps(basis, 1.5)
        with pytest.raises(ConditionError, match="not nested"):
            quotient_dim(hi, lo)


class TestPseudoLocalCheck:
    def test_coinciding_projections_fail_with_witness(self):
        ok, report = pseudo_local_check([("m0", [[1.0]], [[1.0]])], a=0.0)
        assert not ok and report["witness"] == "m0"

    def test_complementary_projections_pass(self):
        ok, report = pseudo_local_check([("m0", [[1.0]], [[0.0]])], a=0.0)
        assert ok and abs(report["smallest_sv"] - 1.0) < 1e-12

    def test_diagonal_projection_against_split_spectrum(self):
        A = np.diag([1.0, -1.0])
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        P = np.outer(v, v)
        ok, report = pseudo_local_check([("pair", A, P)], a=0.0)
        assert ok
        assert abs(report["smallest_sv"] - 1.0 / math.sqrt(2.0)) < 1e-10

    def test_non_projector_rejected(self):
        with pytest.raises(ConditionError, match="projector"):
            pseudo_local_check([("bad", [[1.0]], [[0.5]])], a=0.0)


class TestValidation:
    def test_straddling_w_vector_rejected(self, basis):
        w = BoundarySection(basis, {-1: [1.0], 1: [1.0]})
        with pytest.raises(ConditionError, match="straddles"):
            BoundaryCondition(basis, 0.0, w_plus=[w])

    def test_out_of_band_w_vector_rejected(self, basis):
        w = BoundarySection(basis, {6: [1.0]})
        with pytest.raises(ConditionError, match="leaves the band"):
            BoundaryCondition(basis, 0.0, w_plus=[w])

    def test_w_on_g_mode_rejected(self, basis):
        g = ModeMap(basis, {(1, -1): np.array([[0.5]])}, "finite_band")
        w = BoundarySection(basis, {1: [1.0]})
        with pytest.raises(ConditionError, match="overlaps"):
            BoundaryCondition(basis, 0.0, w_plus=[w], g=g)

    def test_dependent_w_family_rejected(self, basis):
        w = BoundarySection(basis, {1: [1.0]})
        with pytest.raises(ConditionError, match="dependent"):
            BoundaryCondition(basis, 0.0, w_plus=[w, w.scale(2.0)])

    def test_g_orientation_enforced(self, basis):
        g = ModeMap(basis, {(-1, 1): np.array([[0.5]])}, "finite_band")
        with pytest.raises(ConditionError, match="lower side"):
            BoundaryCondition(basis, 0.0, g=g)


class TestSeededGraphCondition:
    def test_prescribed_shape(self, fine):
        rng = np.random.default_rng(20)
        B = seeded_graph_condition(
            fine, rng, cut=0.75, dim_w_plus=3, dim_w_minus=2, g_norm=1.5, n_g_pairs=2
        )
        assert B.dim_w_plus() == 3 and B.dim_w_minus() == 2
        assert abs(B.g.operator_norm() - 1.5) < 1e-12

    def test_insufficient_band_modes_rejected(self):
        small = EigenmodeBasis.lattice(8, shift=0.25, band_limit=4.0)
        rng = np.random.default_rng(21)
        with pytest.raises(ConditionError, match="not enough band modes"):
            seeded_graph_condition(small, rng, cut=1.75, dim_w_plus=3, dim_w_minus=3)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        cut=st.sampled_from([-1.25, -0.25, 0.75]),
        g_norm=st.floats(0.0, 2.0),
    )
    def test_graph_members_pass_membership(self, seed, cut, g_norm):
        fine = EigenmodeBasis.lattice(16, shift=0.25, spacing=0.5, band_limit=4.0)
        rng = np.random.default_rng(seed)
        B = seeded_graph_condition(fine, rng, cut=cut, g_norm=g_norm)
        for phi in members(B, rng, 3):
            assert B.membership(phi)
        # and a fresh random section is essentially never a member
        x = random_section(fine, rng)
        if np.linalg.norm(x.to_dense() - B.project(x.to_dense())) > 1e-6:
            assert not B.membership(x)
