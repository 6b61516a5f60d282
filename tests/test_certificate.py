"""Tests for the rank-free truncation certificate and the shared rank cut.

A certified ``index()`` checks ker - coker against the index formula
dim B_L + dim B_R - total_dim, and counts what the doubled lattice adds by the
per-mode sign rule instead of solving it.  ``full_resolve`` moves the
conditions' data onto the doubled lattice and solves that problem; it is the
reference those counts must equal.  A problem that is not band-limited is
solved again at 2N through its ``family``.  Tests parametrized by ``route``
run the production ``index()`` ("dense") and the banded test oracle
("banded").
"""

import dataclasses

import numpy as np
import pytest

import banded_oracle
from apslab import boundary_conditions, cylinder_solver, index_calculus
from apslab.boundary_conditions import (
    BoundaryCondition,
    complement_condition,
    deform,
    make_chiral,
    make_generalized_aps,
    make_transmission,
    seeded_graph_condition,
)
from apslab.cylinder_solver import (
    RANK_GAP,
    RANK_THRESHOLD,
    CylinderProblem,
    CylinderSection,
    _shared_cut,
    adjoint_problem,
    assemble,
    solve_bvp,
)
from apslab.index_calculus import (
    CertificateError,
    _certify,
    _doubling_counts,
    _formula_index,
    chiral_block_basis,
    cobordism_check,
    index,
    kernel_dim,
)
from apslab.spectral_core import EigenmodeBasis, SigmaZero

CUTS = [-100.0, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 100.0]


def problem(basis, left, right, rho=1.0, family=None):
    return CylinderProblem(basis, SigmaZero.scalar(basis, 1j), rho, left, right, family)


def aps_problem(basis, a, b):
    return problem(
        basis, make_generalized_aps(basis, a), make_generalized_aps(basis.negated(), b)
    )


def ker_coker(P, route="dense"):
    """(dim ker, dim coker) of P from ``index()`` or from the banded oracle."""
    if route == "banded":
        return banded_oracle.ker_coker(P)
    rep = index(P, certify=False)
    return rep.dim_ker, rep.dim_coker


def profile_terms(sec):
    """Every profile coefficient of a section, mode by mode, for exact comparison."""
    return {mid: [(p.breaks, p.pieces) for p in profs] for mid, profs in sec.profiles.items()}


def doubled(P):
    """P on the doubled lattice, its conditions' W, g and cuts moved there unchanged."""
    b2 = P.basis.extended(2)
    return problem(b2, P.left.on_basis(b2), P.right.on_basis(b2.negated()), P.rho)


def full_resolve(P, route="dense"):
    """(dim ker, dim coker) of the doubled problem, solved."""
    return ker_coker(doubled(P), route)


def exact_doubled(P, route="dense"):
    """(dim ker, dim coker) on the doubled lattice from the sign-rule counts of the added modes.

    The counts rest on two identities, asserted here: each end's data touch
    the same modes on the doubled lattice, and the formula index grows by
    exactly ker - coker of the added modes.
    """
    ker, coker = ker_coker(P, route)
    added = _doubling_counts(P, P.basis.extended(2))
    P2 = doubled(P)
    for end, end2 in ((P.left, P2.left), (P.right, P2.right)):
        assert banded_oracle.touched_modes(end2) == banded_oracle.touched_modes(end)
    assert _formula_index(P2) == _formula_index(P) + added[0] - added[1]
    return ker + added[0], coker + added[1]


def graph_problem(shift, rho, graph_seed, a, c, left_w, right_w):
    """One ``index_fresh`` problem of the benchmark: lattice(128), graph conditions at both ends."""
    basis = EigenmodeBasis.lattice(128, shift=shift, band_limit=6.0)
    nb = basis.negated()
    rng = np.random.default_rng(graph_seed)
    left = seeded_graph_condition(
        basis, rng, cut=a, dim_w_plus=left_w[0], dim_w_minus=left_w[1], g_norm=0.7
    )
    right = seeded_graph_condition(
        nb, rng, cut=c, dim_w_plus=right_w[0], dim_w_minus=right_w[1], g_norm=0.6
    )
    return problem(basis, left, right, rho)


class TestExactDoublingMatchesResolve:
    @pytest.fixture
    def basis(self):
        return EigenmodeBasis.lattice(8, band_limit=4.0)

    @pytest.mark.parametrize("a", CUTS)
    @pytest.mark.parametrize("b", CUTS)
    def test_aps_cut_grid(self, basis, a, b):
        P = aps_problem(basis, a, b)
        assert exact_doubled(P) == full_resolve(P)

    @pytest.mark.parametrize("fiber_dim", [1, 2])
    @pytest.mark.parametrize("route", ["dense", "banded"])
    def test_seeded_graph_conditions(self, fiber_dim, route):
        basis = EigenmodeBasis.lattice(12, shift=0.25, fiber_dim=fiber_dim, band_limit=6.0)
        nb = basis.negated()
        for seed in range(6):
            rng = np.random.default_rng(600 + seed)
            left = seeded_graph_condition(
                basis,
                rng,
                cut=float(rng.choice([-0.75, 0.75, 1.75])),
                dim_w_plus=int(rng.integers(0, 3)),
                dim_w_minus=int(rng.integers(0, 3)),
                g_norm=float(rng.uniform(0.2, 1.5)),
            )
            right = seeded_graph_condition(nb, rng, cut=-0.25, g_norm=0.6)
            P = problem(basis, left, right)
            assert exact_doubled(P, route) == full_resolve(P, route)

    def test_deformed_conditions(self):
        basis = EigenmodeBasis.lattice(16, shift=0.25, spacing=0.5, band_limit=4.0)
        nb = basis.negated()
        left = seeded_graph_condition(basis, np.random.default_rng(31), cut=0.75, g_norm=1.3)
        for s in (0.0, 0.4, 1.0):
            P = problem(basis, deform(left, s), make_generalized_aps(nb, nb.cut_above(0.0)))
            assert exact_doubled(P) == full_resolve(P)

    def test_complement_conditions(self):
        basis = EigenmodeBasis.lattice(16, shift=0.25, spacing=0.5, band_limit=4.0)
        for seed in range(4):
            B = seeded_graph_condition(basis, np.random.default_rng(70 + seed), cut=0.75)
            P = problem(basis, make_generalized_aps(basis, -0.25), complement_condition(B))
            assert exact_doubled(P) == full_resolve(P)


class TestCertificateCatches:
    @pytest.mark.parametrize(
        "a, b, message",
        [
            (-100.0, None, "ker 0->0, coker 8->16"),
            (0.0, 100.0, "ker 8->16, coker 0->0"),
            (0.0, -100.0, "ker 0->0, coker 9->17"),
        ],
    )
    def test_cut_beyond_the_spectrum(self, a, b, message):
        # the doubled lattice frees (or constrains) the added modes at both ends
        basis = EigenmodeBasis.lattice(8, band_limit=4.0)
        nb = basis.negated()
        P = aps_problem(basis, a, nb.cut_above(0.0) if b is None else b)
        with pytest.raises(CertificateError) as err:
            index(P)
        assert str(err.value) == f"truncation certificate failed: {message}"

    def test_banded_long_cylinder_miscount_fails_the_formula(self):
        # index_fresh seed 7 round 2 slot 2 at rho=25: at the starting cut the
        # banded oracle counts ker 4, coker 1 against the formula index 2, as it
        # splits a value of 0.95 and 1.09 times the cut in its two matrices; the
        # gap in the shared cut keeps that value in both
        P = graph_problem(
            0.18014373174994236, 25.0, 1800582554,
            -0.4278831136217871, 1.2231595559620276, (2, 1), (1, 1),
        )
        assert banded_oracle.ker_coker(P) == (3, 1)
        with pytest.raises(CertificateError, match="index formula check failed"):
            _certify(P, 4, 1)
        assert index(P).index == 2

    def test_doubled_lattice_that_moves_a_mode_is_refused(self):
        # the sign-rule counts assume the old modes keep their eigenvalues at 2N
        base = EigenmodeBasis.lattice(4, band_limit=2.0)
        basis = EigenmodeBasis(
            base.modes, 2.0, extend_fn=lambda f: EigenmodeBasis.lattice(4 * f, 0.1, band_limit=2.0)
        )
        P = aps_problem(basis, 0.5, basis.negated().cut_above(0.0))
        with pytest.raises(CertificateError, match="the doubled lattice moves mode -4"):
            index(P)

    @pytest.mark.parametrize(
        "lattice, moved",
        [
            # every mode keeps its eigenvalue but doubles its fiber
            (lambda f: EigenmodeBasis.lattice(4 * f, fiber_dim=2, band_limit=2.0), -4),
            # mode 0 is missing at 2N
            (lambda f: EigenmodeBasis(
                [m for m in EigenmodeBasis.lattice(4 * f, band_limit=2.0).modes if m.mode_id], 2.0
            ), 0),
        ],
        ids=["fiber", "missing"],
    )
    def test_doubled_lattice_that_changes_a_fiber_or_drops_a_mode_is_refused(self, lattice, moved):
        base = EigenmodeBasis.lattice(4, band_limit=2.0)
        basis = EigenmodeBasis(base.modes, 2.0, extend_fn=lattice)
        P = aps_problem(basis, 0.5, basis.negated().cut_above(0.0))
        with pytest.raises(CertificateError, match=f"the doubled lattice moves mode {moved}$"):
            index(P)

    def test_regenerated_condition_that_moves_its_cut_is_resolved(self):
        # the family's left cut frees mode 1 on the doubled lattice, which the
        # sign-rule counts of the added modes cannot see; the family is solved
        basis = EigenmodeBasis.lattice(8, band_limit=4.0)
        right_cut = basis.negated().cut_above(0.0)

        def aps_at(left_cut):
            return lambda b: problem(
                b, make_generalized_aps(b, left_cut), make_generalized_aps(b.negated(), right_cut)
            )

        P = aps_at(0.5)(basis)
        assert _doubling_counts(P, basis.extended(2)) == (0, 0)
        with pytest.raises(CertificateError, match=r"ker 1->2, coker 0->0"):
            index(dataclasses.replace(P, family=aps_at(1.5)))

    def test_chiral_conditions_are_resolved_on_the_doubled_lattice(self, monkeypatch):
        # chiral g pairs every mode, so the added modes are touched and the
        # doubling cannot be counted by the sign rule
        basis, sigma = chiral_block_basis(4, lambda j: 1j * j, band_limit=2.0)
        calls = []
        real = index_calculus.assemble
        monkeypatch.setattr(
            index_calculus, "assemble", lambda Q, **kw: calls.append(Q.basis.total_dim) or real(Q, **kw)
        )
        rep = cobordism_check(basis, sigma)
        assert rep["pass"], rep
        assert all(r.truncation_certificate["doubled_agrees"] is True for r in rep["reports"])
        # index_plus and index_minus each assemble at D and at 2N
        D, D2 = basis.total_dim, basis.extended(2).total_dim
        assert sorted(calls) == [D, D, D2, D2]

    @pytest.mark.parametrize(
        "name, build",
        [
            ("chiral", lambda: chiral_problem(chiral_block_basis(4, lambda j: 1j * j, 2.0), 1)),
            ("transmission", lambda: transmission_problem(
                EigenmodeBasis.lattice(4, shift=0.3, band_limit=2.0).doubled()
            )),
        ],
    )
    def test_not_band_limited_without_a_family_is_refused(self, name, build):
        # their g pairs every mode, so the doubled spectrum alone cannot certify them
        P = build()
        assert P.family is None
        assert index(P, certify=False).index == _formula_index(P)
        with pytest.raises(CertificateError, match="no family"):
            index(P)


def chiral_problem(setup, sign, rho=1.0):
    """The chiral problem of one sign on a chiral block lattice, with no family."""
    basis, sigma = setup
    neg = sigma.negated_boundary()
    return CylinderProblem(
        basis, sigma, rho, make_chiral(basis, sigma, sign), make_chiral(neg.basis, neg, sign)
    )


def transmission_problem(db):
    return problem(db, make_transmission(db), make_transmission(db.negated()))


def same_condition(B, C):
    """Bit-for-bit equality of two conditions' basis, cut, W and g."""
    return (
        B.basis.modes == C.basis.modes
        and B.cut == C.cut
        and B.provenance == C.provenance
        and np.array_equal(B.w_plus, C.w_plus)
        and np.array_equal(B.w_minus, C.w_minus)
        and B.g.tag == C.g.tag
        and list(B.g.entries) == list(C.g.entries)
        and all(np.array_equal(B.g.entries[k], C.g.entries[k]) for k in B.g.entries)
    )


class TestCobordismFamily:
    """The problems that cobordism_check's families build on the doubled lattice
    are those that a fresh chiral_block_basis(2n) gives, bit for bit."""

    @pytest.mark.parametrize(
        "block",
        [lambda j: 1j * j + 0.5, lambda j: 0.0 if j in (-1, 0, 2) else 1j * j],
        ids=["no_kernel", "kernel_blocks"],
    )
    def test_family_at_2n_is_a_fresh_problem(self, block, monkeypatch):
        n, band, rho = 3, 1.5, 0.7
        basis, sigma = chiral_block_basis(n, block, band)
        D2 = basis.extended(2).total_dim
        built = []
        real = index_calculus.assemble
        monkeypatch.setattr(
            index_calculus,
            "assemble",
            lambda Q, **kw: (built.append(Q) if Q.basis.total_dim == D2 else None) or real(Q, **kw),
        )
        assert cobordism_check(basis, sigma, rho)["pass"]
        assert len(built) == 2
        for sign, got in zip((1, -1), built):
            want = chiral_problem(chiral_block_basis(2 * n, block, band), sign, rho)
            assert got.basis.modes == want.basis.modes and got.rho == want.rho
            assert list(got.sigma0.targets.items()) == list(want.sigma0.targets.items())
            assert list(got.sigma0.blocks) == list(want.sigma0.blocks)
            assert all(
                np.array_equal(got.sigma0.blocks[j], want.sigma0.blocks[j])
                for j in want.sigma0.blocks
            )
            assert got.sigma0.scale == want.sigma0.scale and got.sigma0.skew_unitary
            assert same_condition(got.left, want.left)
            assert same_condition(got.right, want.right)
            # kernel blocks give the chiral conditions W data to compare
            assert (got.left.dim_w_plus() + got.left.dim_w_minus() > 0) == (block(0) == 0)


class TestCertificateWork:
    """A certified APS or graph index() takes no rank at 2N, and every reader
    of a problem's constraints builds and factors each matrix once, from the
    problem's own spans: no adjoint problem or condition is built.  Each matrix
    is built as one dense block of rows per end, on the coordinates that end's
    W data or g touch, and only those coordinates reach a dense SVD: an APS
    problem builds empty blocks and takes no SVD, a graph problem one per
    matrix, on the touched block."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {
            "matrices": [],
            "adjoints": 0,
            "adjoint_conditions": 0,
            "spans": 0,
            "perp_spans": 0,
            "svd_widths": [],
        }
        build = cylinder_solver.homogeneous_constraint_matrix
        svd = np.linalg.svd

        def count_matrix(span, scale):
            M = build(span, scale)
            calls["matrices"].append(M.shape)
            return M

        def count_svd(M, *args, **kwargs):
            calls["svd_widths"].append(M.shape[1])
            return svd(M, *args, **kwargs)

        def count(key, fn):
            def counting(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counting

        monkeypatch.setattr(cylinder_solver, "homogeneous_constraint_matrix", count_matrix)
        monkeypatch.setattr(
            cylinder_solver, "adjoint_problem", count("adjoints", cylinder_solver.adjoint_problem)
        )
        adjoint_condition = count("adjoint_conditions", boundary_conditions.adjoint)
        monkeypatch.setattr(boundary_conditions, "adjoint", adjoint_condition)
        monkeypatch.setattr(cylinder_solver, "adjoint", adjoint_condition)
        monkeypatch.setattr(
            BoundaryCondition, "span_matrix", count("spans", BoundaryCondition.span_matrix)
        )
        monkeypatch.setattr(
            BoundaryCondition,
            "perp_span_matrix",
            count("perp_spans", BoundaryCondition.perp_span_matrix),
        )
        monkeypatch.setattr(np.linalg, "svd", count_svd)
        return calls

    @staticmethod
    def once(blocks=((0, 0),) * 4, svd_widths=()):
        """The work of one assembly of a problem: its cokernel and constraint
        matrices, one row block per end from its own spans (``blocks``, by
        default those of APS ends, which touch nothing), with no adjoint built."""
        return {
            "matrices": list(blocks),
            "adjoints": 0,
            "adjoint_conditions": 0,
            "spans": 2,
            "perp_spans": 2,
            "svd_widths": list(svd_widths),
        }

    def test_aps_problem(self, counted):
        basis = EigenmodeBasis.lattice(8, band_limit=4.0)
        rep = index(aps_problem(basis, 0.5, basis.negated().cut_above(0.0)))
        assert rep.truncation_certificate["doubled_agrees"] is True
        assert counted == self.once()

    def test_graph_problem(self, counted):
        P = graph_problem(0.1, 1.5, 12345, -0.5, 1.4, (1, 1), (1, 2))
        rep = index(P)
        assert rep.truncation_certificate["doubled_agrees"] is True
        widths, blocks = counted["svd_widths"], counted["matrices"]
        assert counted == self.once(blocks, widths)
        touched = banded_oracle.touched_modes(P.left) | banded_oracle.touched_modes(P.right)
        coords = sum(P.basis.fiber_dim(mid) for mid in touched)
        assert len(widths) == 2 and len(blocks) == 4
        assert 0 < max(widths) <= coords < 20
        # each end's block covers that end's touched coordinates only
        assert all(0 < cols < coords for _, cols in blocks)

    def test_bases_reuse_the_counting_factorization(self, counted):
        # with_bases once built and factored both matrices a second time for
        # the vectors: 4 matrices, 8 perp_span_matrix calls and 4 SVDs
        basis = EigenmodeBasis.lattice(8, band_limit=4.0)
        P = aps_problem(basis, 0.5, basis.negated().cut_above(0.0))
        index(P, certify=False, with_bases=True)
        assert counted == self.once()

    def test_solve_builds_each_span_once(self, counted):
        # solve_bvp once built the problem's two spans again for its
        # right-hand side: 6 perp_span_matrix calls
        basis = EigenmodeBasis.lattice(8, band_limit=4.0)
        P = aps_problem(basis, 0.5, basis.negated().cut_above(0.0))
        res = solve_bvp(P, CylinderSection.zero(basis, P.rho))
        assert res.consistent
        assert counted == self.once()


# index_fresh seeds 6 and 7 (round 5 and round 9, slot 0): a singular value of
# ~1.1e-9 that a problem and its adjoint share sat between their two relative
# cuts, so it was kept for one and dropped for the other
SHORT_CYLINDERS = {
    "seed6": (0.10346194702664824, 1.754093010461263, 217770344,
              -0.4305214439225634, 1.3197921408933408),
    "seed7": (-0.20370340119245967, 1.9207194727256045, 582814436,
              0.5049163958596536, 0.8193523643353233),
}


# index_fresh (seed, round, slot) = (1, 642, 3), (2, 345, 1) and (4, 692, 2): a
# value that the constraint and cokernel matrices share sat just above the
# shared cut in one and just below it in the other, and the certificate raised
# "index formula check failed".  At rho/2 no value is near the cut.
SPLIT_VALUES = {
    "seed1": (0.14640280678672002, 1.7736520486352434, 1751369389,
              -0.2950138454720128, -0.5311989502658514, (1, 2), (1, 1)),
    "seed2": (0.3059727057440248, 1.7966469104506602, 1282366292,
              0.03757645428988221, 0.05750395159044841, (1, 1), (1, 2)),
    "seed4": (0.30262573437821316, 1.9166959777196224, 619033262,
              0.02226795279166527, 1.0897821421757503, (2, 1), (1, 1)),
}


class TestSharedRankCut:
    @pytest.mark.parametrize("case", sorted(SPLIT_VALUES))
    def test_a_value_split_by_the_cut_counts_in_both_matrices(self, case):
        shift, rho, graph_seed, a, c, left_w, right_w = SPLIT_VALUES[case]
        P = graph_problem(shift, rho, graph_seed, a, c, left_w, right_w)
        A = assemble(P)
        start = RANK_THRESHOLD * max(max(f.s.max(initial=0.0), f.top) for f in A.factors)
        ker, coker = (f.nullity(start) for f in A.factors)
        # the starting cut splits the two copies of a value, which the gap keeps
        assert ker - coker != _formula_index(P)
        kept = np.concatenate([f.s for f in A.factors])
        assert kept[(kept > A.cut) & (kept <= start)].min() >= start / RANK_GAP
        rep = index(P)
        assert rep.truncation_certificate["doubled_agrees"] is True
        half = index(graph_problem(shift, rho / 2, graph_seed, a, c, left_w, right_w))
        assert (rep.dim_ker, rep.dim_coker) == (half.dim_ker, half.dim_coker)
        res = solve_bvp(P, CylinderSection.zero(P.basis, P.rho))
        assert (len(res.kernel_basis), len(res.obstruction_basis)) == (rep.dim_ker, rep.dim_coker)
        assert kernel_dim(P) == rep.dim_ker

    @pytest.mark.parametrize(
        "spectra, cut",
        [
            # a value on each side of the starting cut 1e-9, within the gap: both kept
            (([1.0, 1.1e-9], [1.0, 0.9e-9]), 0.0),
            (([1.0, 1.1e-9, 1e-12], [1.0, 0.9e-9]), 1e-12),
            # a chain of values, each within the gap of the one above
            (([1.0, 1.2e-9, 0.6e-9], [1.0, 0.9e-9, 1e-20]), 1e-20),
            # the value below the cut is not within the gap of the smallest kept
            (([1.0, 3e-9], [1.0, 0.9e-9]), 1e-9),
            # ... or too far below the starting cut
            (([1.0, 1.1e-9], [1.0, 0.4e-9]), 1e-9),
            (([1.0], [1.0, 0.9e-9]), 1e-9),
            (([], [0.0]), 0.0),
        ],
    )
    def test_the_cut_sits_in_a_gap(self, spectra, cut):
        assert _shared_cut(*(np.array(s) for s in spectra)) == cut

    @pytest.mark.parametrize("case", sorted(SHORT_CYLINDERS))
    @pytest.mark.parametrize("route", ["dense", "banded"])
    def test_short_cylinder_index(self, case, route):
        shift, rho, graph_seed, a, c = SHORT_CYLINDERS[case]
        for r in (rho, rho / 2):
            P = graph_problem(shift, r, graph_seed, a, c, (1, 1), (1, 2))
            ker, coker = ker_coker(P, route)
            assert ker - coker == 0
            _certify(P, ker, coker)

    @pytest.mark.parametrize("case", sorted(SHORT_CYLINDERS))
    def test_solve_and_kernel_dim_agree_with_index(self, case):
        # solve_bvp and kernel_dim once cut each matrix on its own and gave
        # (3, 2) on seed 6 and (2, 3) on seed 7 where index() gives (3, 3)
        shift, rho, graph_seed, a, c = SHORT_CYLINDERS[case]
        P = graph_problem(shift, rho, graph_seed, a, c, (1, 1), (1, 2))
        rep = index(P)
        res = solve_bvp(P, CylinderSection.zero(P.basis, P.rho))
        assert (len(res.kernel_basis), len(res.obstruction_basis)) == (rep.dim_ker, rep.dim_coker)
        assert kernel_dim(P) == rep.dim_ker
        assert kernel_dim(adjoint_problem(P)) == rep.dim_coker
        # the bases of index() and of solve_bvp are read from one factorization
        bases = index(P, certify=False, with_bases=True)
        assert (len(bases.kernel_basis), len(bases.cokernel_basis)) == (rep.dim_ker, rep.dim_coker)
        for listed, solved in (
            (bases.kernel_basis, res.kernel_basis),
            (bases.cokernel_basis, res.obstruction_basis),
        ):
            assert [profile_terms(sec) for sec in listed] == [profile_terms(sec) for sec in solved]

    def test_bases_have_the_reported_dimensions(self):
        shift, rho, graph_seed, a, c = SHORT_CYLINDERS["seed7"]
        P = graph_problem(shift, rho, graph_seed, a, c, (1, 1), (1, 2))
        rep = index(P, certify=False, with_bases=True)
        assert len(rep.kernel_basis) == rep.dim_ker
        assert len(rep.cokernel_basis) == rep.dim_coker

    def test_one_threshold(self):
        assert index_calculus.RANK_THRESHOLD is cylinder_solver.RANK_THRESHOLD
