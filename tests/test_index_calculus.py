"""Tests for the exact index machinery: kernel and cokernel counts of the
production route against the banded test oracle, shift and graph corrections,
deformation invariance, Fredholm pairs, splitting, and the chiral cobordism
identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import banded_oracle
import dense_oracle
from apslab.boundary_conditions import (
    ConditionError,
    make_generalized_aps,
    quotient_dim,
    seeded_graph_condition,
)
from apslab.cylinder_solver import CylinderProblem
from apslab.index_calculus import (
    CertificateError,
    ClosedSubspace,
    FredholmPairReport,
    PairHypothesisError,
    aps_shift_check,
    chiral_block_basis,
    cobordism_check,
    deformation_sweep,
    fredholm_pair,
    graph_index_check,
    index,
    pair_index_identity_check,
    split_check,
)
from apslab.spectral_core import EigenmodeBasis, SigmaZero

RHO = 1.0
CUTS = [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]


@pytest.fixture
def basis():
    return EigenmodeBasis.lattice(8, band_limit=4.0)


@pytest.fixture
def fine():
    return EigenmodeBasis.lattice(16, shift=0.25, spacing=0.5, band_limit=4.0)


def aps_problem(basis, a, b, rho=RHO):
    nb = basis.negated()
    return CylinderProblem(
        basis,
        SigmaZero.scalar(basis, 1j),
        rho,
        make_generalized_aps(basis, a),
        make_generalized_aps(nb, b),
    )


def problem_with_left(basis, left, rho=RHO):
    nb = basis.negated()
    return CylinderProblem(
        basis,
        SigmaZero.scalar(basis, 1j),
        rho,
        left,
        make_generalized_aps(nb, nb.cut_above(0.0)),
    )


def aps_index_oracle(basis, a, b):
    """Independent per-mode count: each mode carries one homogeneous coefficient,
    constrained at the left end iff lambda >= a and at the right iff -lambda >= b."""
    ker = coker = 0
    for m in basis.modes:
        constraints = int(m.eigenvalue >= a) + int(-m.eigenvalue >= b)
        if constraints == 0:
            ker += m.fiber_dim
        elif constraints == 2:
            coker += m.fiber_dim
    return ker, coker


class TestApsOracle:
    @pytest.mark.parametrize("a", CUTS)
    @pytest.mark.parametrize("b", CUTS)
    def test_index_matches_per_mode_count(self, basis, a, b):
        rep = index(aps_problem(basis, a, b), certify=False)
        ker, coker = aps_index_oracle(basis, a, b)
        assert (rep.dim_ker, rep.dim_coker) == (ker, coker)
        assert rep.index == ker - coker

    def test_reference_problem_is_an_isomorphism(self, basis):
        nb = basis.negated()
        rep = index(aps_problem(basis, 0.0, nb.cut_above(0.0)))
        assert (rep.dim_ker, rep.dim_coker, rep.index) == (0, 0, 0)

    def test_relaxed_left_cut_gains_the_zero_mode(self, basis):
        nb = basis.negated()
        rep = index(aps_problem(basis, basis.cut_above(0.0), nb.cut_above(0.0)))
        assert (rep.dim_ker, rep.dim_coker, rep.index) == (1, 0, 1)

    def test_symmetric_cuts_give_a_cokernel(self, basis):
        rep = index(aps_problem(basis, 0.0, 0.0))
        assert (rep.dim_ker, rep.dim_coker, rep.index) == (0, 1, -1)


class TestDualRoutes:
    """The production route against the banded oracle, on ker and coker."""

    @staticmethod
    def counts(P):
        rep = index(P, certify=False)
        return rep.dim_ker, rep.dim_coker

    def test_routes_agree_on_aps_problems(self, basis):
        for a in CUTS:
            for b in CUTS:
                P = aps_problem(basis, a, b)
                assert banded_oracle.ker_coker(P) == self.counts(P)

    def test_routes_agree_on_seeded_graph_conditions(self, fine):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            left = seeded_graph_condition(
                fine,
                rng,
                cut=0.75,
                dim_w_plus=int(rng.integers(0, 3)),
                dim_w_minus=int(rng.integers(0, 3)),
                g_norm=float(rng.uniform(0.0, 2.0)),
            )
            P = problem_with_left(fine, left)
            assert banded_oracle.ker_coker(P) == self.counts(P)

    def test_index_identical_across_routes(self, fine):
        rng = np.random.default_rng(99)
        left = seeded_graph_condition(fine, rng, cut=-0.25, g_norm=1.2)
        P = problem_with_left(fine, left)
        ker, coker = banded_oracle.ker_coker(P)
        assert index(P).index == ker - coker


class TestCertificate:
    def test_band_limited_problems_certify(self, fine):
        rng = np.random.default_rng(5)
        left = seeded_graph_condition(fine, rng, cut=0.75, g_norm=0.9)
        rep = index(problem_with_left(fine, left))
        assert rep.truncation_certificate["doubled_agrees"] is True
        assert rep.truncation_certificate["N_used"] == fine.total_dim

    def test_truncation_dependent_answer_is_caught(self, basis):
        # a cut beyond every eigenvalue frees more modes on the doubled basis,
        # so the doubled recomputation must disagree and raise
        nb = basis.negated()
        P = aps_problem(basis, 100.0, nb.cut_above(0.0))
        with pytest.raises(CertificateError):
            index(P)


class TestShiftAndGraphIdentities:
    def test_aps_shift_all_pairs(self, basis):
        P = aps_problem(basis, 0.0, 0.5)
        for a in CUTS:
            for b in CUTS:
                if a <= b:
                    assert aps_shift_check(P, a, b)["equal"]

    def test_shift_matches_quotient_dimension(self, basis):
        P = aps_problem(basis, 0.0, 0.5)
        for a, b in [(-1.5, 0.5), (-0.5, 2.5)]:
            ia = index(problem_with_left(basis, make_generalized_aps(basis, a)))
            ib = index(problem_with_left(basis, make_generalized_aps(basis, b)))
            q = quotient_dim(make_generalized_aps(basis, a), make_generalized_aps(basis, b))
            assert ib.index - ia.index == q

    def test_ordering_enforced(self, basis):
        with pytest.raises(ValueError):
            aps_shift_check(aps_problem(basis, 0.0, 0.5), 1.0, -1.0)

    def test_graph_identity_seeded(self, fine):
        for seed in range(15):
            rng = np.random.default_rng(1000 + seed)
            left = seeded_graph_condition(
                fine,
                rng,
                cut=float(rng.choice([-1.25, -0.25, 0.75])),
                dim_w_plus=int(rng.integers(0, 4)),
                dim_w_minus=int(rng.integers(0, 4)),
                g_norm=float(rng.uniform(0.0, 2.0)),
            )
            rep = graph_index_check(problem_with_left(fine, left))
            assert rep["equal"], rep


class TestDeformation:
    def test_index_constant_along_graph_deformation(self, fine):
        for seed in range(5):
            rng = np.random.default_rng(2000 + seed)
            left = seeded_graph_condition(fine, rng, cut=0.75, g_norm=1.5)
            sweep = deformation_sweep(problem_with_left(fine, left), steps=11)
            assert sweep["constant"]
            assert sweep["indices"][0] == sweep["value"]

    def test_minimum_steps(self, fine):
        left = make_generalized_aps(fine, 0.75)
        with pytest.raises(ValueError):
            deformation_sweep(problem_with_left(fine, left), steps=1)


class TestFredholmPairs:
    def test_finite_dimensional_sanity(self):
        X = np.array([[1.0], [0.0]])
        Y = np.array([[0.0], [1.0]])
        rep = dense_oracle.subspace_pair_index(X, Y, 2)
        assert rep == FredholmPairReport(0, 0, 0)

    def test_aps_pair_counts_modes_between_cuts(self, basis):
        X = ClosedSubspace(make_generalized_aps(basis, 1.5))
        Y = ClosedSubspace(make_generalized_aps(basis, -0.5), complement=True)
        rep = fredholm_pair(X, Y)
        # intersection: modes with -0.5 <= lambda < 1.5; nothing is missed
        assert rep == FredholmPairReport(2, 0, 2)

    def test_identity_seeded(self, fine):
        P = problem_with_left(fine, make_generalized_aps(fine, 0.0))
        for seed in range(10):
            rng = np.random.default_rng(3000 + seed)
            B1 = seeded_graph_condition(fine, rng, cut=0.75, g_norm=float(rng.uniform(0, 0.9)))
            B2 = seeded_graph_condition(fine, rng, cut=-0.25, g_norm=float(rng.uniform(0, 0.9)))
            rep = pair_index_identity_check(P, B1, B2)
            assert rep["equal"], rep

    def test_antisymmetry(self, fine):
        P = problem_with_left(fine, make_generalized_aps(fine, 0.0))
        rng = np.random.default_rng(42)
        B1 = seeded_graph_condition(fine, rng, cut=0.75, g_norm=0.6)
        B2 = seeded_graph_condition(fine, rng, cut=-0.25, g_norm=0.6)
        r12 = pair_index_identity_check(P, B1, B2)
        r21 = pair_index_identity_check(P, B2, B1)
        assert r12["pair_index"] == -r21["pair_index"]

    def test_zero_g_pair_formula(self, fine):
        P = problem_with_left(fine, make_generalized_aps(fine, 0.0))
        B1 = seeded_graph_condition(fine, np.random.default_rng(1), cut=0.75, g_norm=0.0)
        B2 = seeded_graph_condition(fine, np.random.default_rng(2), cut=-1.25, g_norm=0.0)
        rep = pair_index_identity_check(P, B1, B2)
        assert rep["equal"]
        assert rep["norm_product"] == 0.0

    def test_norm_hypothesis_is_sharp(self, fine):
        rng = np.random.default_rng(3)
        B1 = seeded_graph_condition(fine, rng, cut=0.75, g_norm=1.2)
        B2 = seeded_graph_condition(fine, rng, cut=-0.25, g_norm=1.2)
        P = problem_with_left(fine, make_generalized_aps(fine, 0.0))
        with pytest.raises(PairHypothesisError) as exc:
            pair_index_identity_check(P, B1, B2)
        assert exc.value.norm_product >= 1.0

    def test_empty_subspace(self):
        # a span with no columns once had 0 rows, and np.column_stack raised
        b = EigenmodeBasis.lattice(4, band_limit=2.0)
        empty = ClosedSubspace(make_generalized_aps(b, -100.0))
        upper = ClosedSubspace(make_generalized_aps(b, 0.5), complement=True)
        assert empty.condition.span_matrix().shape == (9, 0)
        # nothing meets the 4 modes above 0.5, and the 5 below it are missed
        assert fredholm_pair(empty, upper) == FredholmPairReport(0, 5, -5)
        empty_perp = ClosedSubspace(make_generalized_aps(b, 100.0), complement=True)
        lower = ClosedSubspace(make_generalized_aps(b, 0.5))
        assert empty_perp.condition.perp_span_matrix().shape == (9, 0)
        assert fredholm_pair(lower, empty_perp) == FredholmPairReport(0, 4, -4)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_split_pair_matches_the_dense_route(self, data):
        # APS and graph pairs, with or without W and g, whose touched modes
        # overlap or not, either one the complement; cuts of +-100 give the
        # empty subspaces of test_empty_subspace
        fiber = data.draw(st.sampled_from([1, 2]))
        b = EigenmodeBasis.lattice(5, shift=0.2, fiber_dim=fiber, band_limit=5.0)

        def condition():
            if data.draw(st.booleans()):
                cut = data.draw(st.sampled_from([-100.0, -0.5, 1.5, 100.0]))
                return make_generalized_aps(b, cut)
            rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
            return seeded_graph_condition(
                b,
                rng,
                cut=data.draw(st.sampled_from([-0.5, 0.5, 1.5])),
                dim_w_plus=data.draw(st.integers(0, 1)),
                dim_w_minus=data.draw(st.integers(0, 1)),
                g_norm=data.draw(st.sampled_from([0.0, 0.6, 3.0])),
                n_g_pairs=data.draw(st.integers(1, 2)),
            )

        lower, upper = condition(), condition()
        X, Y = ClosedSubspace(lower), ClosedSubspace(upper, complement=True)
        if data.draw(st.booleans()):
            X, Y = Y, X
        assert fredholm_pair(X, Y) == dense_oracle.fredholm_pair(X, Y)

    def test_incompatible_tails_rejected(self, basis):
        X = ClosedSubspace(make_generalized_aps(basis, 0.0))
        Y = ClosedSubspace(make_generalized_aps(basis, 1.0))
        with pytest.raises(ConditionError, match="tails incompatible"):
            fredholm_pair(X, Y)


class TestSplit:
    def glued(self, basis, left_cut=0.0):
        nb = basis.negated()
        return CylinderProblem(
            basis,
            SigmaZero.scalar(basis, 1j),
            2.0,
            make_generalized_aps(basis, left_cut),
            make_generalized_aps(nb, nb.cut_above(0.0)),
        )

    def test_aps_cut_conditions(self, basis):
        nb = basis.negated()
        P = self.glued(basis)
        for cut in (-0.5, 0.5, 1.5):
            rep = split_check(P, make_generalized_aps(nb, cut))
            assert rep["equal"], rep
            assert rep["glued"] == rep["left"] + rep["right"]

    def test_nonzero_halves_still_sum(self, basis):
        nb = basis.negated()
        P = self.glued(basis, left_cut=basis.cut_above(2.0))
        rep = split_check(P, make_generalized_aps(nb, -2.0))
        assert rep["equal"]
        assert rep["left"] != 0 or rep["right"] != 0

    def test_seeded_graph_cut_conditions(self):
        fine = EigenmodeBasis.lattice(16, shift=0.25, spacing=0.5, band_limit=4.0)
        nfine = fine.negated()
        P = CylinderProblem(
            fine,
            SigmaZero.scalar(fine, 1j),
            2.0,
            make_generalized_aps(fine, 0.25),
            make_generalized_aps(nfine, nfine.cut_above(0.0)),
        )
        for seed in range(5):
            rng = np.random.default_rng(4000 + seed)
            B1 = seeded_graph_condition(nfine, rng, cut=0.75, g_norm=0.8)
            rep = split_check(P, B1)
            assert rep["equal"], rep


class TestCobordism:
    def test_normal_form_with_kernel_blocks(self):
        basis, sigma = chiral_block_basis(4, lambda j: 1j * j, band_limit=2.0)
        rep = cobordism_check(basis, sigma)
        assert rep["pass"], rep
        # one kernel pair (j = 0): each end contributes W_+ - W_- = 0
        assert rep["contribution_left"] + rep["contribution_right"] == 0

    def test_normal_form_without_kernel(self):
        basis, sigma = chiral_block_basis(4, lambda j: j + 0.5, band_limit=2.0)
        rep = cobordism_check(basis, sigma)
        assert rep["pass"], rep

    def test_seeded_block_functions(self):
        for seed in range(3):
            rng = np.random.default_rng(5000 + seed)
            vals = {
                j: (0.5 + 1.5 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                if rng.uniform() > 0.3
                else 0.0
                for j in range(-12, 13)
            }
            basis, sigma = chiral_block_basis(4, lambda j: vals[j], band_limit=0.4)
            rep = cobordism_check(basis, sigma)
            assert rep["pass"], rep

    def test_requires_chiral_normal_form(self, basis):
        with pytest.raises(ConditionError):
            cobordism_check(basis, SigmaZero.scalar(basis, 1j))

    def test_requires_the_chiral_block_symbol(self, basis):
        # skew-unitary and eigen-negating, but not the symbol whose doubled
        # lattice the certificate builds: refused before any index is taken
        cb, sigma = chiral_block_basis(4, lambda j: 1j * j, band_limit=2.0)
        flipped = SigmaZero(
            cb, {j: -S for j, S in sigma.blocks.items()}, targets=sigma.targets, skew_unitary=True
        )
        negating = SigmaZero(
            basis,
            {m.mode_id: 1j * np.eye(1) for m in basis.modes},
            targets={m.mode_id: -m.mode_id for m in basis.modes},
            skew_unitary=True,
        )
        for b, s in ((cb, flipped), (basis, negating)):
            assert s.skew_unitary and s.eigen_negating()
            with pytest.raises(ConditionError, match="not the chiral symbol"):
                cobordism_check(b, s)


class TestAdjointSymmetry:
    def test_adjoint_problem_negates_the_index(self, fine):
        from apslab.cylinder_solver import adjoint_problem

        rng = np.random.default_rng(77)
        left = seeded_graph_condition(fine, rng, cut=0.75, g_norm=0.9)
        P = problem_with_left(fine, left)
        rep = index(P)
        # the adjoint-side basis carries no extension rule, so skip the
        # doubled-basis certificate for this direct cross-check
        rep_ad = index(adjoint_problem(P), certify=False)
        assert rep_ad.index == -rep.index
        assert (rep_ad.dim_ker, rep_ad.dim_coker) == (rep.dim_coker, rep.dim_ker)
