"""The split assembly against the dense full-basis oracle.

``assemble`` builds each span from ``(cut, W, g)`` on the coordinates that W
or g touch, with implied unit columns elsewhere, and each constraint matrix as
per-end touched blocks with implied unit rows.  ``tests/dense_oracle.py`` keeps
the dense builders it replaced.  The singular values and the perp spans match
the oracle's to round-off; a span keeps its block columns first and its unit
columns after them, so columns are matched by a permutation.  ker and coker
are the oracle's exactly, also on six
``index_fresh`` inputs with a singular value within 10% of the shared 1e-9
cut, except where the oracle ranks against the cut the graded value
e^(lambda rho) of a column that only one end constrains (``DENSE_MISCOUNTS``):
there the sign rule ranks the column 1, and every APS/APS problem gives the
sign rule's counts.  The counts of the six inputs are known to be wrong (a
1e-13 cut gives one less ker and coker), so they are compared with the oracle,
not pinned.  The kernel and cokernel sections match the oracle's to 1e-12, up
to their order, with the oracle's matrices in the split spans' row order; so
does a solve with a seeded right-hand side match ``np.linalg.lstsq`` on the
oracle's whole constraint matrix, up to round-off amplified by the condition
number of what lstsq inverts.
``quotient_dim`` reads its nesting from the two split spans, checked here
against the dense ``membership`` route.
"""

import time

import numpy as np
import pytest

import dense_oracle
from banded_oracle import touched_modes
from apslab.boundary_conditions import (
    ConditionError,
    complement_condition,
    deform,
    make_generalized_aps,
    quotient_dim,
    seeded_graph_condition,
)
from apslab.cylinder_solver import (
    CONSISTENCY_TOL,
    CylinderProblem,
    CylinderSection,
    _coeffs_to_section,
    assemble,
    random_cylinder_section,
    s0_apply,
    solve_bvp,
)
from apslab.index_calculus import index
from apslab.spectral_core import BoundarySection, EigenmodeBasis, Mode, SigmaZero

from test_certificate import graph_problem
from test_split_factor import PROBLEMS as SPLIT_PROBLEMS
from test_split_factor import (
    assert_spans_match,
    column_permutation,
    descending,
    sign_rule_count,
    whole_matrices,
)

# (shift, rho, graph_seed, left cut, right cut, left W dims, right W dims) of
# index_fresh (seed, round, slot) = (4, 4, 0), (5, 9, 3), (6, 3, 0), (6, 5, 0),
# (7, 9, 0) and (8, 2, 2)
NEAR_CUT = {
    "s4r4t0": (0.1645558902366212, 1.6953628324898182, 509761083,
               0.43486447867303213, 0.1758546542751599, (1, 1), (1, 2)),
    "s5r9t3": (-0.03958661582856127, 1.7568252433595055, 1826122869,
               0.5989376988418209, -1.3979614287821365, (1, 2), (1, 1)),
    "s6r3t0": (0.3806863951041741, 1.5938916290239804, 355516339,
               0.02018538988271179, 0.8977353847310525, (1, 1), (1, 2)),
    "s6r5t0": (0.10346194702664824, 1.754093010461263, 217770344,
               -0.4305214439225634, 1.3197921408933408, (1, 1), (1, 2)),
    "s7r9t0": (-0.20370340119245967, 1.9207194727256045, 582814436,
               0.5049163958596536, 0.8193523643353233, (1, 1), (1, 2)),
    "s8r2t2": (0.1678992364394526, 1.3873250697186883, 1934040469,
               -0.5220474030617558, 1.5612895171012005, (2, 1), (1, 1)),
}


def scalar_problem(basis, left, right, rho):
    return CylinderProblem(basis, SigmaZero.scalar(basis, 1j), rho, left, right)


def long_aps(rho):
    """index_fresh's long_aps slot: APS ends on lattice(128), B(-3.5) and -A cut at 5.5."""
    basis = EigenmodeBasis.lattice(128, band_limit=6.0)
    left = make_generalized_aps(basis, -3.5)
    return scalar_problem(basis, left, make_generalized_aps(basis.negated(), 5.5), rho)


def deformed(s):
    def build(rho):
        P = SPLIT_PROBLEMS["graph_f2_s3"](rho)
        return scalar_problem(P.basis, deform(P.left, s), P.right, rho)

    return build


def half(rho):
    """The right half of a split cylinder: a complement condition at its left end."""
    basis = EigenmodeBasis.lattice(10, shift=0.2, fiber_dim=2, band_limit=6.0)
    rng = np.random.default_rng(7)
    cut = seeded_graph_condition(basis.negated(), rng, cut=-0.5, dim_w_minus=2, g_norm=0.8)
    right = seeded_graph_condition(basis.negated(), rng, cut=0.3, g_norm=0.4)
    return scalar_problem(basis, complement_condition(cut), right, rho)


def mixed_fibers(rho):
    """Fiber dims 1 and 2 placed so that the right end's coordinate order is
    not its own inverse: the dense constraint rows must be gathered, not scattered."""
    modes = [Mode(j, "c0", 0.5 * j + 0.1, 1 + (j > 2)) for j in range(-6, 7)]
    basis = EigenmodeBasis(modes, 3.0)
    rng = np.random.default_rng(3)
    left = seeded_graph_condition(basis, rng, cut=0.3, g_norm=0.5)
    right = seeded_graph_condition(basis.negated(), rng, cut=-0.2, g_norm=0.5)
    return scalar_problem(basis, left, right, rho)


PROBLEMS = {
    **SPLIT_PROBLEMS,
    "deformed_0.4": deformed(0.4),
    "deformed_0": deformed(0.0),
    "complement": half,
    "mixed_fibers": mixed_fibers,
}
GRID = [(name, rho) for name in sorted(PROBLEMS) for rho in (0.3, 1.0, 25.0)]
GRID += [("long_aps", rho) for rho in (1.0, 10.0, 25.0, 50.0)]
GRID += [(name, None) for name in sorted(NEAR_CUT)]


def build(name, rho):
    if name == "long_aps":
        return long_aps(rho)
    if name in NEAR_CUT:
        return graph_problem(*NEAR_CUT[name])
    return PROBLEMS[name](rho)


# The dense oracle ranks every value against the cut, and so drops the graded
# values e^(lambda rho) of the columns that only one end constrains
DENSE_MISCOUNTS = {
    ("aps_-2.5_1.5", 25.0), ("aps_-2.5_100.0", 25.0), ("aps_1.5_-2.5", 25.0),
    ("aps_100.0_-2.5", 25.0), ("long_aps", 10.0), ("long_aps", 25.0), ("long_aps", 50.0),
}


def sign_rule(P):
    """(dim ker, dim coker) of a problem with APS ends B(a) over A and B(c) over -A:
    a mode is in the kernel when free at both ends (lambda < a, -lambda < c),
    and in the cokernel when constrained at both."""
    lam, a, c = P.basis.coord_eigenvalue, P.left.cut, P.right.cut
    return int(np.sum((lam < a) & (-lam < c))), int(np.sum((lam >= a) & (-lam >= c)))


@pytest.mark.parametrize("name, rho", GRID)
def test_spectra_match_the_dense_oracle(name, rho):
    P = build(name, rho)
    A = assemble(P, vectors=True)
    NL, NR, _, spectra, _, cut = dense_oracle.assemble(P)
    top = max((s[0] for s in spectra if s.size), default=0.0)
    whole = whole_matrices(P, A)
    for (values, _, _), s_dense in zip(whole, spectra):
        s = descending(values, None, (s_dense.size, values.size))[0]
        assert s.shape == s_dense.shape
        assert np.max(np.abs(s - s_dense), initial=0.0) <= 1e-14 * top
    D = P.basis.total_dim
    dense_counts = tuple(D - int(np.sum(s > cut)) for s in spectra)
    assert A.dims() == tuple(sign_rule_count(D, s, cut, f[2]) for s, f in zip(spectra, whole))
    assert (A.dims() != dense_counts) == ((name, rho) in DENSE_MISCOUNTS)
    if P.left.provenance == P.right.provenance == "aps":
        assert A.dims() == sign_rule(P)
    assert_spans_match(A, NL, NR, tol=1e-14)
    # only the touched coordinates are dense: each end's block covers the
    # coordinates that its own W and g reach
    for end, span in zip((P.left, P.right), (A.NL, A.NR)):
        reach = sum(end.basis.fiber_dim(mid) for mid in touched_modes(end))
        assert span.block.shape[0] == span.rows.size <= reach


def traces(sec, rho):
    return np.concatenate([sec.trace(t).to_dense(sec.basis) for t in (0.0, rho)])


def oracle_solve(P, psi, order):
    """The dense solve: ``np.linalg.lstsq`` on the oracle's whole constraint matrix
    M, with its rows in ``order``.  Returns the particular solution, the
    constraint residual, 1 + the norm of the right-hand side, and the condition
    number of the part of M that lstsq inverts (values above its default rcond)."""
    NL, NR, M, spectra, *_ = dense_oracle.assemble(P, order=order)
    phi = s0_apply(psi, P.sigma0)
    x0, xr = phi.trace0().to_dense(P.basis), phi.trace_rho().to_dense(P.right.basis)
    rhs = -np.concatenate([NL.conj().T @ x0, NR.conj().T @ xr])
    c = np.linalg.lstsq(M, rhs, rcond=None)[0]
    s = spectra[0]
    inverted = s[s > np.finfo(float).eps * max(M.shape) * s[0]]
    particular = phi + _coeffs_to_section(P.basis, P.rho, c)
    scale = 1.0 + float(np.linalg.norm(rhs))
    return particular, float(np.linalg.norm(M @ c - rhs)), scale, s[0] / inverted[-1]


# the problems whose seeded right-hand side meets the cokernel
OBSTRUCTED = {(name, rho) for name in ("graph_f1_s3", "mixed_fibers") for rho in (0.3, 25.0)}


@pytest.mark.parametrize(
    "name", ["graph_f1_s3", "graph_f2_s11", "chiral", "transmission", "mixed_fibers"]
)
@pytest.mark.parametrize("rho", [0.3, 25.0])
def test_sections_match_the_dense_oracle(name, rho):
    P = build(name, rho)
    # the oracle's spans, and so the rows of its matrices, in the split spans' order
    builds = ((dense_oracle.span, "span_matrix"), (dense_oracle.perp_span, "perp_span_matrix"))
    order = [
        column_permutation(getattr(end, split)().dense(), oracle(end), tol=1e-14)
        for oracle, split in builds
        for end in (P.left, P.right)
    ]
    want = dense_oracle.sections(P, order)
    rep = index(P, certify=False, with_bases=True)
    psi = random_cylinder_section(P.basis, np.random.default_rng(1), P.rho)
    solves = [solve_bvp(P, CylinderSection.zero(P.basis, P.rho)), solve_bvp(P, psi)]
    got = [(rep.kernel_basis, rep.cokernel_basis)]
    got += [(res.kernel_basis, res.obstruction_basis) for res in solves]
    for bases in got:
        for sections, oracle in zip(bases, want):
            # the same sections, in another order: matched by a permutation
            found = [traces(sec, P.rho) for sec in sections]
            wanted = [traces(sec, P.rho) for sec in oracle]
            assert len(found) == len(wanted)
            if found:
                column_permutation(np.transpose(found), np.transpose(wanted), tol=1e-12)
    # the split solve against lstsq on the whole matrix: round-off, amplified by
    # the condition number of what lstsq inverts (1.1e13 for graph_f1_s3 at rho
    # 25, whose value 9.4e-14 of the top lies under the rank cut but is inverted)
    res = solves[1]
    particular, gap, scale, kappa = oracle_solve(P, psi, order)
    tol = 1e-12 + kappa * np.finfo(float).eps
    assert res.consistent == (gap <= CONSISTENCY_TOL * scale) == ((name, rho) not in OBSTRUCTED)
    assert abs(res.residuals["constraint_residual"] - gap) <= tol * scale
    if res.consistent:
        wanted = traces(particular, P.rho)
        found = traces(res.particular, P.rho)
        assert np.linalg.norm(found - wanted) <= tol * np.linalg.norm(wanted)
    else:
        assert res.particular is None


def nested_by_membership(B1, B2):
    """The dense route: every column of span(B1) is a member of B2, by the
    oracle's closed-form projector."""
    S = B1.span_matrix().dense()
    return all(
        dense_oracle.membership(B2, BoundarySection.from_dense(B1.basis, S[:, i]))
        for i in range(S.shape[1])
    )


def pairs():
    basis = EigenmodeBasis.lattice(12, shift=0.1, fiber_dim=2, band_limit=4.0)
    aps = {a: make_generalized_aps(basis, a) for a in (-4.5, -0.5, 0.5, 4.5)}
    graph = seeded_graph_condition(basis, np.random.default_rng(2), cut=0.5, g_norm=0.6)
    out = {f"aps_{a}_{b}": (aps[a], aps[b]) for a in aps for b in aps}
    out.update({
        "graph_in_itself": (graph, graph),
        "graph_in_deformed": (graph, deform(graph, 0.5)),
        # the graph data touch modes in (-4.5, 4.5) only
        "aps_below_graph": (aps[-4.5], graph),
        "graph_below_aps": (graph, aps[4.5]),
        "graph_across_aps": (aps[0.5], graph),
        "aps_across_graph": (graph, aps[0.5]),
    })
    return out


@pytest.mark.parametrize("name", sorted(pairs()))
def test_quotient_dim_nests_as_membership_says(name):
    B1, B2 = pairs()[name]
    if nested_by_membership(B1, B2):
        assert quotient_dim(B1, B2) == B2.dim() - B1.dim() >= 0
    else:
        with pytest.raises(ConditionError, match="conditions are not nested"):
            quotient_dim(B1, B2)


def test_quotient_dim_at_total_dim_513_is_one_product():
    # the membership route took one dense 513 x 513 solve per column of span(B1)
    basis = EigenmodeBasis.lattice(256, band_limit=4.0)
    lo, hi = make_generalized_aps(basis, -0.5), make_generalized_aps(basis, 1.5)
    graph = seeded_graph_condition(basis, np.random.default_rng(5), cut=0.5, g_norm=0.6)
    start = time.perf_counter()
    assert quotient_dim(lo, hi) == 2
    assert quotient_dim(graph, graph) == 0
    with pytest.raises(ConditionError, match="conditions are not nested"):
        quotient_dim(hi, lo)
    assert time.perf_counter() - start < 0.1
