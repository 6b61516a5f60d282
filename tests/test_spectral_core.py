"""Tests for eigenmode bases, sections, hybrid norms, and the boundary symbol."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apslab.spectral_core import (
    BasisMismatchError,
    BoundarySection,
    EigenmodeBasis,
    Interval,
    Mode,
    SigmaZero,
    beta_pairing,
    check_norm,
    hat_norm,
    l2_pairing,
    norm_equivalence_probe,
    project,
    random_section,
    sobolev_norm,
)

PROJECTION_TOL = 1e-14


@pytest.fixture
def basis():
    return EigenmodeBasis.lattice(8, band_limit=4.0)


@pytest.fixture
def shifted():
    return EigenmodeBasis.lattice(8, shift=0.25, band_limit=4.0)


def sections(basis, seed=0, count=20, **kw):
    rng = np.random.default_rng(seed)
    return [random_section(basis, rng, **kw) for _ in range(count)]


class TestInterval:
    def test_endpoint_openness(self):
        half_open = Interval(0.0, 1.0, True, False)
        assert half_open.contains(0.0)
        assert not half_open.contains(1.0)

    def test_default_halves(self):
        assert not Interval.below(0.0).contains(0.0)
        assert Interval.at_least(0.0).contains(0.0)


class TestEigenmodeBasis:
    def test_lattice_spectrum(self, basis):
        assert [m.eigenvalue for m in basis.modes] == list(range(-8, 9))
        assert basis.total_dim == 17

    def test_duplicate_mode_id_names_offender(self):
        modes = [Mode(3, "c0", 0.0, 1), Mode(3, "c0", 1.0, 1)]
        with pytest.raises(ValueError, match="duplicate mode_id: 3"):
            EigenmodeBasis(modes, band_limit=0.5)

    def test_band_limit_must_sit_inside_spectrum(self):
        with pytest.raises(ValueError):
            EigenmodeBasis.lattice(4, band_limit=5.0)

    def test_negated_flips_eigenvalues(self, shifted):
        nb = shifted.negated()
        for m in shifted.modes:
            assert nb.eigenvalue(m.mode_id) == -m.eigenvalue

    def test_extended_regenerates(self, basis):
        big = basis.extended(2)
        assert big.total_dim == 33
        assert all(m.mode_id in big for m in basis.modes)

    def test_cut_above_captures_exact_eigenvalue(self, basis):
        c = basis.cut_above(0.0)
        below = [m.mode_id for m in basis.modes if m.eigenvalue < c]
        assert 0 in below and 1 not in below

    def test_doubled_pairs_negated_copies(self, basis):
        db = basis.doubled()
        assert db.total_dim == 2 * basis.total_dim
        for j, t in db.pairings.items():
            assert db.pairings[t] == j
            assert db.eigenvalue(j) == -db.eigenvalue(t)


class TestBoundarySection:
    def test_dense_round_trip(self, basis):
        sec = random_section(basis, np.random.default_rng(1))
        back = BoundarySection.from_dense(basis, sec.to_dense())
        assert back.support() == sec.support()
        for mid in sec.support():
            assert np.allclose(back.coeffs[mid], sec.coeffs[mid])

    def test_arithmetic(self, basis):
        a = BoundarySection.unit(basis, 0)
        b = BoundarySection.unit(basis, 1)
        s = a + b.scale(2.0)
        assert np.allclose(s.coeff(1), [2.0])
        assert (s - s).is_zero()

    def test_wrong_lattice_rejected(self, basis):
        other = EigenmodeBasis.lattice(4, band_limit=2.0)
        with pytest.raises(BasisMismatchError):
            BoundarySection.unit(basis, 8).on_basis(other)


class TestNorms:
    def test_sobolev_weight_single_mode(self, basis):
        phi = BoundarySection.unit(basis, 1)
        assert abs(sobolev_norm(phi, 0.5) - 2.0**0.25) < 1e-15
        assert abs(sobolev_norm(phi, -0.5) - 2.0**-0.25) < 1e-15

    def test_h0_is_l2(self, basis):
        for phi in sections(basis, seed=2):
            l2 = math.sqrt(abs(l2_pairing(phi, phi)))
            assert abs(sobolev_norm(phi, 0.0) - l2) < 1e-12

    def test_check_norm_mixes_sides(self, basis):
        low = BoundarySection.unit(basis, -2)
        high = BoundarySection.unit(basis, 2)
        assert abs(check_norm(low, 0.0) - sobolev_norm(low, 0.5)) < 1e-15
        assert abs(check_norm(high, 0.0) - sobolev_norm(high, -0.5)) < 1e-15

    def test_cut_itself_sits_on_lower_side(self, basis):
        phi = BoundarySection.unit(basis, 0)
        assert abs(check_norm(phi, 0.0) - sobolev_norm(phi, 0.5)) < 1e-15

    def test_hat_is_check_over_negated(self, basis):
        nb = basis.negated()
        for phi in sections(basis, seed=3):
            flipped = BoundarySection(nb, phi.coeffs)
            assert abs(hat_norm(phi, 0.0) - check_norm(flipped, -0.0)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        s1=st.floats(-2, 2),
        s2=st.floats(-2, 2),
        seed=st.integers(0, 10_000),
    )
    def test_sobolev_monotone_in_order(self, s1, s2, seed):
        basis = EigenmodeBasis.lattice(8, band_limit=4.0)
        phi = random_section(basis, np.random.default_rng(seed))
        lo, hi = min(s1, s2), max(s1, s2)
        assert sobolev_norm(phi, lo) <= sobolev_norm(phi, hi) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), cut=st.floats(-3, 3))
    def test_check_hat_duality_inequality(self, seed, cut):
        basis = EigenmodeBasis.lattice(8, band_limit=4.0)
        rng = np.random.default_rng(seed)
        phi = random_section(basis, rng)
        psi = random_section(basis, rng)
        pairing = abs(l2_pairing(phi, psi))
        assert pairing <= check_norm(phi, cut) * hat_norm(psi, cut) + 1e-10

    def test_norm_equivalence_probe_bounds(self, basis):
        rep = norm_equivalence_probe(sections(basis, seed=4, count=50), -0.5, 1.5)
        assert 0.0 < rep["min_ratio"] <= rep["max_ratio"] < math.inf
        assert rep["count"] == 50

    def test_norm_equivalence_probe_requires_ordered_cuts(self, basis):
        with pytest.raises(ValueError):
            norm_equivalence_probe(sections(basis, count=3), 1.0, 1.0)


class TestProjections:
    def test_idempotent_and_complementary(self, basis):
        upper = Interval.at_least(0.0)
        lower = Interval.below(0.0)
        for phi in sections(basis, seed=5):
            q = project(phi, upper)
            assert (project(q, upper) - q).is_zero()
            recon = project(phi, lower) + q
            diff = recon - phi
            assert all(
                np.max(np.abs(v)) <= PROJECTION_TOL for v in diff.coeffs.values()
            ) or diff.is_zero()

    def test_disjoint_projections_annihilate(self, basis):
        phi = sections(basis, seed=6, count=1)[0]
        q = project(project(phi, Interval.at_least(1.0)), Interval.below(0.0))
        assert q.is_zero()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), a=st.floats(-3, 3))
    def test_projection_preserves_l2_pythagoras(self, seed, a):
        basis = EigenmodeBasis.lattice(8, band_limit=4.0)
        phi = random_section(basis, np.random.default_rng(seed))
        low = project(phi, Interval.below(a))
        high = project(phi, Interval.at_least(a))
        total = abs(l2_pairing(phi, phi))
        split = abs(l2_pairing(low, low)) + abs(l2_pairing(high, high))
        assert abs(total - split) <= PROJECTION_TOL * max(total, 1.0)


class TestSigmaZero:
    def test_scalar_apply_and_inverse(self, basis):
        s = SigmaZero.scalar(basis, 2.0)
        phi = random_section(basis, np.random.default_rng(7))
        back = s.inv_apply(s.apply(phi))
        assert all(np.allclose(back.coeffs[m], phi.coeffs[m]) for m in phi.support())

    def test_scalar_i_is_skew_unitary(self, basis):
        assert SigmaZero.scalar(basis, 1j).skew_unitary
        assert not SigmaZero.scalar(basis, 2.0).skew_unitary

    @pytest.mark.parametrize("fiber_dim", [1, 2])
    @pytest.mark.parametrize("value", [1j, 2.0, 0.5 + 0.5j])
    def test_closed_form_scalar_equals_the_validated_symbol(self, value, fiber_dim):
        basis = EigenmodeBasis.lattice(4, shift=0.2, fiber_dim=fiber_dim, band_limit=2.0)
        blocks = {m.mode_id: value * np.eye(fiber_dim) for m in basis.modes}
        ref = SigmaZero(basis, blocks, skew_unitary=value == 1j)
        s = SigmaZero.scalar(basis, value)
        assert list(s.blocks) == list(ref.blocks)
        assert all(np.array_equal(s.blocks[j], ref.blocks[j]) for j in ref.blocks)
        assert s.targets == ref.targets and s.sources == ref.sources
        assert s.scale == ref.scale
        assert s.skew_unitary is ref.skew_unitary

    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf, complex(1.0, math.nan)])
    def test_closed_form_scalar_rejects_what_the_constructor_rejects(self, value):
        basis = EigenmodeBasis.lattice(3, band_limit=1.0)
        blocks = {m.mode_id: value * np.eye(1) for m in basis.modes}
        with pytest.raises(ValueError) as validated:
            SigmaZero(basis, blocks)
        with pytest.raises(ValueError) as closed:
            SigmaZero.scalar(basis, value)
        assert str(closed.value) == str(validated.value) == "sigma_0 block at mode -3 is not conformal"

    def test_closed_form_scalar_shares_read_only_blocks(self):
        modes = [Mode(0, "c0", -1.0, 1), Mode(1, "c0", 0.5, 2), Mode(2, "c0", 1.5, 1)]
        basis = EigenmodeBasis(modes, band_limit=1.0)
        s = SigmaZero.scalar(basis, 1j)
        assert s.blocks[0] is s.blocks[2]
        assert s.blocks[1].shape == (2, 2)
        for block in s.blocks.values():
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 2.0
        assert s.blocks[0][0, 0] == 1j

    def test_non_conformal_block_rejected(self, basis):
        blocks = {m.mode_id: np.eye(m.fiber_dim) for m in basis.modes}
        blocks[0] = np.array([[2.0]])
        with pytest.raises(ValueError, match="conformal scale"):
            SigmaZero(basis, blocks)

    # NaN fails every comparison, so tests written as "fails" let NaN through:
    # all-NaN blocks built with scale nan, and one NaN block among unit ones with
    # scale 1.0.  Any non-finite block is not conformal at its mode.
    @pytest.mark.parametrize(
        "bad, first_bad",
        [
            ({j: math.nan for j in range(-3, 4)}, -3),
            ({1: math.nan}, 1),
            ({-1: math.inf}, -1),
            ({-3: math.inf}, -3),
            ({2: -math.inf, 3: math.nan}, 2),
            ({0: complex(1.0, math.nan)}, 0),
        ],
        ids=["all-nan", "one-nan", "one-inf", "first-inf", "inf-then-nan", "complex-nan"],
    )
    def test_non_finite_block_is_not_conformal(self, bad, first_bad):
        basis = EigenmodeBasis.lattice(3, band_limit=1.0)
        blocks = {m.mode_id: [[bad.get(m.mode_id, 1.0)]] for m in basis.modes}
        with pytest.raises(ValueError, match=f"at mode {first_bad} is not conformal"):
            SigmaZero(basis, blocks)

    def test_non_finite_fiber_block_is_not_conformal(self):
        basis = EigenmodeBasis.lattice(2, fiber_dim=2, band_limit=1.0)
        blocks = {m.mode_id: np.eye(2) for m in basis.modes}
        blocks[1] = np.array([[1.0, 0.0], [0.0, math.inf]])
        with pytest.raises(ValueError, match="at mode 1 is not conformal"):
            SigmaZero(basis, blocks)

    def test_beta_pairing_example(self, basis):
        s = SigmaZero.scalar(basis, 1j)
        phi = BoundarySection.unit(basis, 0)
        assert abs(beta_pairing(phi, phi, s) - (-1j)) < 1e-15

    def test_star_apply_is_adjoint_of_apply(self, basis):
        s = SigmaZero.scalar(basis, 1j)
        rng = np.random.default_rng(8)
        for _ in range(10):
            phi, psi = random_section(basis, rng), random_section(basis, rng)
            lhs = l2_pairing(s.apply(phi), psi)
            rhs = l2_pairing(phi, s.star_apply(psi))
            assert abs(lhs - rhs) < 1e-12

    def test_adjoint_basis_negates_eigenvalues(self, shifted):
        s = SigmaZero.scalar(shifted, 1.0)
        ab = s.adjoint_basis()
        for m in shifted.modes:
            assert ab.eigenvalue(m.mode_id) == -m.eigenvalue

    def test_adjoint_sigma_of_adjoint_sigma_round_trips(self, shifted):
        s = SigmaZero.scalar(shifted, 1j)
        ss = s.adjoint_sigma().adjoint_sigma()
        for m in shifted.modes:
            assert np.allclose(ss.blocks[m.mode_id], s.blocks[m.mode_id])
            assert ss.basis.eigenvalue(m.mode_id) == m.eigenvalue

    def test_mode_pairing_bijection_required(self, basis):
        blocks = {m.mode_id: np.eye(1) for m in basis.modes}
        targets = {m.mode_id: 0 for m in basis.modes}
        with pytest.raises(ValueError, match="bijection"):
            SigmaZero(basis, blocks, targets=targets)
