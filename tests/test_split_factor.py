"""The split factorization against dense LAPACK on the whole matrix.

``cylinder_solver._factor`` gives a column alone on its nonzero rows its norm as
a singular value and sends only the coupled columns, on the rows they touch,
through ``np.linalg.svd``; it returns one value per column, with vh row i
belonging to value i, and here they are sorted as a dense SVD sorts them.
``boundary_conditions._orthonormalize`` normalizes such columns in place and
runs its pivoted QR on the coupled block.  Here both are checked against one
dense factorization of the whole matrix: on seeded matrices built from lone
columns (down to 1e-30), zero columns and a coupled block, permuted, with
fewer or more rows than columns; and on the constraint matrices of APS, graph,
chiral and transmission problems, built dense by ``tests/dense_oracle.py``,
whose cokernel matrix is also checked against the constraint matrix of the
adjoint problem.  ``assemble`` factors only the block on the touched
coordinates T; the whole matrix's values off T are rebuilt here from the
scales and the spans' unit coordinates, and the columns there that carry a
unit row count in the rank whatever their value, as the sign rule says.
"""

import numpy as np
import pytest
from scipy import linalg as sla

import dense_oracle
from banded_oracle import touched_modes
from apslab.boundary_conditions import (
    RANK_TOL,
    _coords_in,
    _orthonormalize,
    make_chiral,
    make_generalized_aps,
    make_transmission,
    seeded_graph_condition,
)
from apslab.cylinder_solver import (
    RANK_THRESHOLD,
    CylinderProblem,
    CylinderSection,
    _factor,
    adjoint_problem,
    assemble,
    solve_bvp,
)
from apslab.index_calculus import chiral_block_basis, index, kernel_dim
from apslab.spectral_core import EigenmodeBasis, SigmaZero
from test_certificate import graph_problem

LONE_SCALES = (1e-30, 1e-15, 1e-3, 1.0, 7.0)


def split_matrix(rng, n_lone, n_zero, block_shape, extra_rows=0, lone_scales=LONE_SCALES):
    """A permuted matrix of lone columns (one or two rows each), zero columns,
    a dense coupled block and zero rows."""
    kr, kc = block_shape
    lone_rows = rng.integers(1, 3, size=n_lone)
    m = kr + int(lone_rows.sum()) + extra_rows
    n = kc + n_lone + n_zero
    M = np.zeros((m, n), dtype=complex)
    scale = 10.0 ** rng.uniform(-2, 2)
    M[:kr, :kc] = scale * (rng.standard_normal((kr, kc)) + 1j * rng.standard_normal((kr, kc)))
    row = kr
    for j in range(n_lone):
        k = int(lone_rows[j])
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        M[row : row + k, kc + j] = rng.choice(lone_scales) * v / np.linalg.norm(v)
        row += k
    return M[rng.permutation(m)][:, rng.permutation(n)]


def null_projector(vh, rank):
    V = vh[rank:]
    return V.conj().T @ V


def descending(s, vh, shape):
    """(s, vh) with one value per column, as a dense SVD of a matrix of ``shape``
    gives them: the values in descending order, min(m, n) of them, and vh's
    rows in the same order.  Every value past the first min(m, n) is 0."""
    order = np.argsort(-s, kind="stable")
    assert not np.any(s[order][min(shape) :])
    return s[order][: min(shape)], None if vh is None else vh[order]


def factor_dense(M, vectors=False):
    """``_factor`` of a dense matrix, ``descending``.  ``_factor`` gives one
    value per column, with vh row i belonging to value i."""
    s, vh = _factor(M, vectors)
    assert s.shape == (M.shape[1],)
    if vh is not None:
        top = max(s.max(initial=0.0), 1e-300)
        assert np.allclose(np.linalg.norm(M @ vh.conj().T, axis=0), s, atol=1e-13 * top)
    return descending(s, vh, M.shape)


def assert_matches_dense(M, cut=None):
    """``_factor`` gives the dense spectrum and, at ``cut`` (by default
    RANK_THRESHOLD times the top singular value), the dense null space."""
    s, none = factor_dense(M)
    s_v, vh = factor_dense(M, vectors=True)
    assert none is None
    # both calls rank the values of the values-only routine, bit for bit
    assert np.array_equal(s, s_v)
    assert_factor_of(M, s, vh, cut)


def assert_factor_of(M, s, vh, cut=None):
    """(s, vh) are the spectrum and right singular vectors of M, and give its
    dense null space at ``cut``."""
    m, n = M.shape
    assert s.shape == (min(m, n),)
    assert np.all(np.diff(s) <= 0)
    assert np.allclose(vh @ vh.conj().T, np.eye(n), atol=1e-13)
    if not M.size:
        assert np.array_equal(vh, np.eye(n))
        return
    _, s_d, vh_d = np.linalg.svd(M)
    top = max(s_d[0], 1e-300)
    assert np.max(np.abs(s - s_d)) <= 1e-13 * top
    # each right singular vector is mapped to its singular value
    assert np.allclose(np.linalg.norm(M @ vh[: s.size].conj().T, axis=0), s, atol=1e-13 * top)
    cut = RANK_THRESHOLD * top if cut is None else cut
    rank = int(np.sum(s > cut))
    assert rank == int(np.sum(s_d > cut))
    # Wedin: the null spaces differ by at most the error over the smallest kept value
    tol = 1e-12 * top / s[rank - 1] if rank else 1e-12
    assert np.max(np.abs(null_projector(vh, rank) - null_projector(vh_d, rank))) <= tol


CASES = {
    "lone_only": dict(n_lone=9, n_zero=0, block_shape=(0, 0)),
    "lone_and_zero": dict(n_lone=6, n_zero=4, block_shape=(0, 0)),
    "block_only": dict(n_lone=0, n_zero=0, block_shape=(5, 4)),
    "two_column_block": dict(n_lone=5, n_zero=2, block_shape=(3, 2)),
    "fewer_rows": dict(n_lone=4, n_zero=6, block_shape=(2, 5)),
    "more_rows": dict(n_lone=3, n_zero=1, block_shape=(6, 3), extra_rows=4),
    "wide_block": dict(n_lone=7, n_zero=3, block_shape=(3, 8)),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(8))
def test_split_svd_matches_dense(case, seed):
    rng = np.random.default_rng([seed, sorted(CASES).index(case)])
    assert_matches_dense(split_matrix(rng, **CASES[case]))


@pytest.mark.parametrize("shape", [(0, 5), (4, 1), (1, 6), (6, 6)])
def test_degenerate_shapes(shape):
    assert_matches_dense(np.zeros(shape, dtype=complex))
    if shape[0] and shape[1]:
        M = np.zeros(shape, dtype=complex)
        M[0, 0] = 1e-30
        assert_matches_dense(M)


def test_a_row_shared_by_two_columns_couples_them():
    # columns 0 and 1 are orthogonal to column 2 but not to each other
    M = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]], dtype=complex)
    s, _ = factor_dense(M)
    assert np.allclose(s, [2.0, np.sqrt((3 + np.sqrt(5)) / 2), np.sqrt((3 - np.sqrt(5)) / 2)])
    assert_matches_dense(M)


def test_only_the_coupled_block_reaches_lapack(monkeypatch):
    shapes = []
    real = np.linalg.svd
    monkeypatch.setattr(
        np.linalg,
        "svd",
        lambda B, **kw: shapes.append((B.shape, kw.get("compute_uv", True))) or real(B, **kw),
    )
    rng = np.random.default_rng(5)
    M = split_matrix(rng, n_lone=20, n_zero=5, block_shape=(3, 4))
    factor_dense(M)
    factor_dense(M, vectors=True)
    # the values always come from the values-only routine; vectors add one
    # full SVD of the block for vh
    assert shapes == [((3, 4), False), ((3, 4), False), ((3, 4), True)]
    shapes.clear()
    factor_dense(split_matrix(rng, n_lone=20, n_zero=5, block_shape=(0, 0)), vectors=True)
    assert shapes == []
    # assemble: an APS problem touches no coordinate, so it takes no SVD
    for vectors in (False, True):
        assemble(PROBLEMS["aps_0.5_1.5"](1.0), vectors)
    assert shapes == []
    # an index_fresh graph problem takes SVDs of its touched block only
    P = graph_problem(0.1, 1.5, 12345, -0.5, 1.4, (1, 1), (1, 2))
    touched = touched_modes(P.left) | touched_modes(P.right)
    width = sum(P.basis.fiber_dim(mid) for mid in touched)
    for vectors in (False, True):
        assemble(P, vectors)
    assert shapes and all(cols <= width < P.basis.total_dim for (_, cols), _ in shapes)


# -- _orthonormalize -----------------------------------------------------------

def orthonormalize(M):
    return _orthonormalize(M)[0]


def reference_orthonormalize(M, tol=RANK_TOL):
    """One pivoted QR of every column, with the rank cut at tol times its first pivot."""
    q, r, _ = sla.qr(M, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    return q[:, : int(np.sum(diag > tol * max(diag[0], 1e-300)))]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(8))
def test_orthonormalize_matches_one_pivoted_qr(case, seed):
    rng = np.random.default_rng([seed, sorted(CASES).index(case), 1])
    M = split_matrix(rng, **CASES[case])
    if not M.size:
        return
    q = orthonormalize(M)
    ref = reference_orthonormalize(M)
    assert q.shape == ref.shape
    assert np.allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-12)
    assert np.allclose(q @ q.conj().T, ref @ ref.conj().T, atol=1e-12)
    # rows that every input column leaves at zero stay exactly zero
    assert not np.any(q[~np.any(M != 0, axis=1)])


def test_lone_columns_below_the_rank_cut_are_dropped():
    # the tiny column is alone on its row, but it is 1e-12 of the largest norm
    M = np.zeros((3, 3), dtype=complex)
    M[0, 0], M[1, 1], M[2, 2] = 2.0, 1e-12, 1e-30
    q = orthonormalize(M)
    assert q.shape == (3, 1)
    assert np.array_equal(q[:, 0], [1, 0, 0])
    # the largest norm may sit in the coupled block
    M = np.zeros((4, 3), dtype=complex)
    M[:2, :2] = [[3.0, 1.0], [1.0, -3.0]]
    M[3, 2] = 1e-11
    assert orthonormalize(M).shape == (4, 2)


# -- the constraint matrices of assemble ----------------------------------------

def scalar_problem(basis, left, right, rho):
    return CylinderProblem(basis, SigmaZero.scalar(basis, 1j), rho, left, right)


def aps_grid():
    basis = EigenmodeBasis.lattice(8, band_limit=4.0)
    nb = basis.negated()
    cuts = (-2.5, -0.5, 0.5, 1.5, 100.0)
    return {
        f"aps_{a}_{b}": lambda rho, a=a, b=b: scalar_problem(
            basis, make_generalized_aps(basis, a), make_generalized_aps(nb, b), rho
        )
        for a in cuts
        for b in cuts
    }


def graph(fiber_dim, seed):
    def build(rho):
        basis = EigenmodeBasis.lattice(10, shift=0.2, fiber_dim=fiber_dim, band_limit=4.0)
        rng = np.random.default_rng(seed)
        left = seeded_graph_condition(basis, rng, cut=0.5, dim_w_plus=1, dim_w_minus=2, g_norm=0.7)
        right = seeded_graph_condition(basis.negated(), rng, cut=-0.3, g_norm=0.6)
        return scalar_problem(basis, left, right, rho)

    return build


def chiral(rho):
    basis, sigma = chiral_block_basis(4, lambda j: 1j * j, band_limit=2.0)
    neg = sigma.negated_boundary()
    return CylinderProblem(
        basis, sigma, rho, make_chiral(basis, sigma), make_chiral(neg.basis, neg, sign=-1)
    )


def transmission(rho):
    db = EigenmodeBasis.lattice(4, shift=0.3, band_limit=2.0).doubled()
    return scalar_problem(db, make_transmission(db), make_transmission(db.negated()), rho)


PROBLEMS = {
    **aps_grid(),
    **{f"graph_f{f}_s{s}": graph(f, s) for f in (1, 2) for s in (3, 11)},
    "chiral": chiral,
    "transmission": transmission,
}


def whole_matrices(P, A):
    """Per matrix of the assembly ``A`` of P (constraint, cokernel): the values and
    vh of the whole matrix, and the values of its columns off T that carry a
    unit row at either end.

    The block's values and vectors come from ``A``.  The values off T are
    rebuilt here from the scales and the spans' unit coordinates: such a
    coordinate has at most one unit row per end, so its column is alone on its
    rows, with the value sqrt(d0^2 [unit at t=0] + dr^2 [unit at t=rho]) and a
    unit right singular vector.  The sign rule ranks the unit-carrying columns
    1, whatever their value, and the others 0.
    """
    D = P.basis.total_dim
    d0, dr = A.scales
    ends = (
        ((A.NL, A.NR), (d0, dr)),
        ((P.left.span_matrix(), P.right.span_matrix()), (dr, d0)),
    )
    out = []
    for (spans, scales), f in zip(ends, A.factors):
        sq, unit, T = np.zeros(D), np.zeros(D, dtype=bool), []
        for span, end, d in zip(spans, (P.left, P.right), scales):
            at = _coords_in(end.basis, P.basis, span.unit)
            sq[at] += d[at] ** 2
            unit[at] = True
            T.append(_coords_in(end.basis, P.basis, span.rows))
        off = np.setdiff1d(np.arange(D), f.T)
        assert np.array_equal(f.T, np.union1d(*T))
        assert np.array_equal(f.free, off[~unit[off]])
        assert f.top == np.sqrt(sq[off].max(initial=0.0))
        vh = np.zeros((D, D), dtype=complex)
        vh[: f.T.size, f.T] = f.vh
        vh[f.T.size + np.arange(off.size), off] = 1.0
        out.append((np.concatenate([f.s, np.sqrt(sq[off])]), vh, np.sqrt(sq[off][unit[off]])))
    return out


def sign_rule_count(n, s_d, cut, ranked):
    """The nullity at ``cut`` of a matrix of n columns from its dense values
    ``s_d``, with the values ``ranked`` of the unit-carrying columns off T
    counted in the rank even where they are at or below the cut, as the sign
    rule says."""
    return n - int(np.sum(s_d > cut)) - int(np.sum(ranked <= cut))


def column_permutation(got, want, tol):
    """The permutation p with got[:, i] equal to want[:, p[i]] to ``tol``, entry by
    entry.  Both hold orthonormal columns, so p[i] is where |want^* got[:, i]|
    peaks; no rotation is allowed."""
    assert got.shape == want.shape
    p = np.argmax(np.abs(want.conj().T @ got), axis=0) if got.size else np.zeros(0, int)
    assert np.array_equal(np.sort(p), np.arange(got.shape[1]))
    assert np.max(np.abs(got - want[:, p]), initial=0.0) <= tol
    return p


def assert_spans_match(A, NL, NR, tol):
    """The split perp spans of an assembly against the oracle's dense ones, their
    columns matched by a permutation."""
    for got, want in ((A.NL, NL), (A.NR, NR)):
        column_permutation(got.dense(), want, tol)


@pytest.mark.parametrize("rho", [1.0, 25.0])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_assembly_matches_dense_svd(name, rho):
    P = PROBLEMS[name](rho)
    A = assemble(P, vectors=True)
    NL, NR = dense_oracle.perp_span(P.left), dense_oracle.perp_span(P.right)
    M = dense_oracle.homogeneous_constraint_matrix(P, NL, NR)
    C = dense_oracle.homogeneous_constraint_matrix(
        P, dense_oracle.span(P.left), dense_oracle.span(P.right), negated=True
    )
    assert_spans_match(A, NL, NR, tol=1e-14)
    whole = whole_matrices(P, A)
    for N, f, d in zip((M, C), whole, A.dims()):
        assert_matches_dense(N, cut=A.cut)
        assert_factor_of(N, *descending(f[0], f[1], N.shape), cut=A.cut)
        s_d = np.linalg.svd(N, compute_uv=False) if N.size else np.zeros(0)
        assert d == sign_rule_count(N.shape[1], s_d, A.cut, f[2])
    # oracle: the adjoint problem's constraint matrix, from its own perp spans,
    # has the cokernel matrix's shape, spectrum and nullity at the shared cut
    Q = adjoint_problem(P)
    M_ad = dense_oracle.homogeneous_constraint_matrix(
        Q, dense_oracle.perp_span(Q.left), dense_oracle.perp_span(Q.right)
    )
    assert M_ad.shape == C.shape
    s_ad = np.linalg.svd(M_ad, compute_uv=False) if M_ad.size else np.zeros(0)
    top = max(A.cut / RANK_THRESHOLD, 1e-300)
    s_co = descending(whole[1][0], None, C.shape)[0]
    assert np.max(np.abs(s_ad - s_co), initial=0.0) <= 1e-13 * top
    assert A.dims()[1] == sign_rule_count(M_ad.shape[1], s_ad, A.cut, whole[1][2])


@pytest.mark.parametrize("rho", [1.0, 25.0])
@pytest.mark.parametrize("name", [n for n in sorted(PROBLEMS) if not n.startswith("aps_")])
def test_every_reader_ranks_the_same_values(name, rho):
    # index(P) and index(P, with_bases=True) once ranked the values of two
    # LAPACK routines, which differ in the last bits on these coupled blocks
    P = PROBLEMS[name](rho)
    plain, full = assemble(P), assemble(P, vectors=True)
    for f, f_v in zip(plain.factors, full.factors):
        assert np.array_equal(f.s, f_v.s) and f.top == f_v.top
        assert np.array_equal(f.T, f_v.T) and np.array_equal(f.free, f_v.free)
    assert plain.cut == full.cut
    rep = index(P, certify=False)
    bases = index(P, certify=False, with_bases=True)
    res = solve_bvp(P, CylinderSection.zero(P.basis, P.rho))
    dims = (rep.dim_ker, rep.dim_coker)
    assert (bases.dim_ker, bases.dim_coker) == dims
    assert (len(bases.kernel_basis), len(bases.cokernel_basis)) == dims
    assert (len(res.kernel_basis), len(res.obstruction_basis)) == dims
    assert kernel_dim(P) == dims[0]
