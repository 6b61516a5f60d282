"""Coupling components as the factorization engine.

``_components`` labels the columns of a matrix that shared nonzero rows join;
``_split`` cuts a matrix into its lone columns and blocks of coupled columns
(the whole coupled part when it spans at most SPLIT_CELLS cells, one block per
component beyond), and ``_factor`` and ``_orthonormalize`` work block by
block.  They are checked here on derandomized random block-sparse matrices,
on both sides of SPLIT_CELLS: components of random shapes and ranks, some
scaled by 1e-30, zero rows and columns, rows and columns permuted.  The
labels are compared with scipy's graph components; ``_factor``'s values with
a dense SVD, its nullity at the rank cut with the dense one, and vh must be
unitary and map to the values; ``_orthonormalize`` must span what one pivoted
QR of the whole matrix spans.

Also: ``dim()``, read on the rows that W touches, against the count over every
coordinate on the tier-1 condition grids; spans built once per condition and
side in ``pair_index_identity_check``; and ``make_chiral``'s W, built per
tau-orbit in closed form, against the eigenspaces of i sigma_0 on all kernel
modes at once.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import test_mode_arrays
from apslab.boundary_conditions import (
    SPLIT_CELLS,
    BoundaryCondition,
    _components,
    _orthonormalize,
    _split,
    deform,
    make_chiral,
    make_generalized_aps,
    seeded_graph_condition,
)
from apslab.cylinder_solver import RANK_THRESHOLD, CylinderProblem, _factor
from apslab.index_calculus import chiral_block_basis, pair_index_identity_check
from apslab.spectral_core import EigenmodeBasis, Mode, SigmaZero
from test_split_factor import PROBLEMS, descending, reference_orthonormalize


@st.composite
def block_sparse(draw):
    """A permuted direct sum of random blocks, with zero rows and columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count, largest = int(rng.integers(0, 61)), int(rng.integers(2, 5))
    blocks = []
    for _ in range(count):
        r, c = (int(x) for x in rng.integers(1, largest + 1, size=2))
        rank = int(rng.integers(1, min(r, c) + 1))  # some blocks are rank deficient
        B = (rng.standard_normal((r, rank)) + 1j * rng.standard_normal((r, rank))) @ (
            rng.standard_normal((rank, c)) + 1j * rng.standard_normal((rank, c))
        )
        blocks.append(B * (1e-30 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3, 3)))
    m = sum(B.shape[0] for B in blocks) + draw(st.integers(0, 3))
    n = sum(B.shape[1] for B in blocks) + draw(st.integers(0, 3))
    M = np.zeros((m, n), dtype=complex)
    r0 = c0 = 0
    for B in blocks:
        M[r0 : r0 + B.shape[0], c0 : c0 + B.shape[1]] = B
        r0, c0 = r0 + B.shape[0], c0 + B.shape[1]
    return M[rng.permutation(m)][:, rng.permutation(n)]


def graph_labels(nz):
    """Per column, the smallest column of its component, by scipy's graph components."""
    adj = nz.astype(float)
    _, label = connected_components(csr_matrix(adj.T @ adj), directed=False)
    first = {}
    for j, c in enumerate(label.tolist()):
        first.setdefault(c, j)
    return np.array([first[c] for c in label.tolist()], dtype=int)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(block_sparse())
def test_factor_and_orthonormalize_on_block_sparse_matrices(M):
    m, n = M.shape
    nz = M != 0
    assert np.array_equal(_components(nz), graph_labels(nz))
    lone, rows, cols = _split(nz)
    # the blocks and the lone columns partition the columns; each block holds
    # the rows of its columns, and no row is in two blocks
    assert np.array_equal(np.sort(np.concatenate([lone, cols[cols < n]])), np.arange(n))
    assert np.unique(rows[rows < m]).size == np.count_nonzero(rows < m)
    for r, c in zip(rows, cols):
        r, c = r[r < m], c[c < n]
        assert np.array_equal(np.flatnonzero(nz[:, c].any(axis=1)), r)
    if rows.shape[0] > 1:  # the coupled part is split only above SPLIT_CELLS
        assert np.count_nonzero(rows < m) * np.count_nonzero(cols < n) > SPLIT_CELLS

    s, none = _factor(M)
    s_v, vh = _factor(M, vectors=True)
    assert none is None and s.shape == (n,) and np.array_equal(s, s_v)
    s_d = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)
    top = s_d.max(initial=0.0)
    values = descending(s, None, M.shape)[0]
    assert np.max(np.abs(values - s_d), initial=0.0) <= 1e-13 * max(top, 1e-300)
    cut = RANK_THRESHOLD * top
    assert np.sum(s <= cut) == n - np.sum(s_d > cut)
    assert np.allclose(vh @ vh.conj().T, np.eye(n), atol=1e-13)
    assert np.allclose(np.linalg.norm(M @ vh.conj().T, axis=0), s, atol=1e-13 * max(top, 1e-300))

    if M.size:
        q = _orthonormalize(M)[0]
        ref = reference_orthonormalize(M)
        assert q.shape == ref.shape
        assert np.allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-12)
        assert np.allclose(q @ q.conj().T, ref @ ref.conj().T, atol=1e-12)
        assert not np.any(q[~nz.any(axis=1)])


def test_chains_of_columns_are_one_component():
    # column j shares a row with column j+1 only: labels must travel the chain
    n = 300
    nz = np.zeros((n - 1, n), dtype=bool)
    nz[np.arange(n - 1), np.arange(n - 1)] = nz[np.arange(n - 1), np.arange(1, n)] = True
    perm = np.random.default_rng(3).permutation(n)
    assert not _components(nz[:, perm]).any()
    assert np.array_equal(_components(nz[:, perm]), graph_labels(nz[:, perm]))


# -- dim() on the touched rows -------------------------------------------------

@functools.cache
def grid_conditions():
    out = dict(test_mode_arrays.conditions())
    for name, build in PROBLEMS.items():
        P = build(1.0)
        out[f"{name}_left"], out[f"{name}_right"] = P.left, P.right
    return out


def full_side_dim(B, W, lower):
    """The count of W columns on one side of the cut, over every coordinate."""
    mask = (B.basis.coord_eigenvalue < B.cut) == lower
    return int(sum(np.linalg.norm(W[mask, i]) > 0.5 for i in range(W.shape[1])))


@pytest.mark.parametrize("name", sorted(grid_conditions()))
def test_dim_reads_the_touched_rows_alone(name):
    B = grid_conditions()[name]
    lower = int(np.sum(B.basis.coord_eigenvalue < B.cut))
    assert B.dim() == lower - full_side_dim(B, B.w_all(), True) + B.dim_w_plus()
    assert B.w_plus_upper_dim() == full_side_dim(B, B.w_plus, False)
    assert B.w_minus_lower_dim() == full_side_dim(B, B.w_minus, True)


# -- spans built once ------------------------------------------------------------

def test_pair_identity_builds_each_span_once(monkeypatch):
    calls = []
    build = BoundaryCondition._span
    monkeypatch.setattr(
        BoundaryCondition, "_span", lambda B, lower: calls.append((id(B), lower)) or build(B, lower)
    )
    basis = EigenmodeBasis.lattice(12, shift=0.1, band_limit=4.0)
    B1 = seeded_graph_condition(basis, np.random.default_rng(4), cut=0.5, g_norm=0.6)
    B2 = deform(B1, 0.5)
    right = make_generalized_aps(basis.negated(), -0.5)
    P = CylinderProblem(basis, SigmaZero.scalar(basis, 1j), 1.0, B1, right)
    out = pair_index_identity_check(P, B1, B2)
    assert out["equal"]
    assert calls and len(calls) == len(set(calls))
    # the spans are read-only, so that the one copy can be shared
    S = B1.span_matrix()
    assert S is B1.span_matrix()
    with pytest.raises(ValueError):
        S.block[0, 0] = 1.0


# -- make_chiral per tau-orbit -------------------------------------------------

def eigh_w(basis, sigma0, sign):
    """W_plus and W_minus of a chiral condition as dense columns: the +-sign
    eigenspaces of i sigma_0 on all kernel modes at once, by one eigh."""
    zero = np.flatnonzero(basis.coord_eigenvalue == 0.0)
    Z = np.zeros((zero.size, zero.size), dtype=complex)
    at = {j: basis.offset(j) for j in basis.mode_ids[basis.mode_eigenvalues == 0.0].tolist()}
    pos = {o: i for i, o in enumerate(zero.tolist())}
    for j, o in at.items():
        t = sigma0.tau(j)
        S = 1j * sigma0.blocks[j]
        rt, rj = pos[at[t]], pos[o]
        Z[rt : rt + S.shape[0], rj : rj + S.shape[1]] = S
    vals, vecs = np.linalg.eigh(Z)
    out = []
    for mu in (sign, -sign):
        W = np.zeros((basis.total_dim, int(np.sum(np.abs(vals - mu) < 1e-8))), dtype=complex)
        W[zero] = vecs[:, np.abs(vals - mu) < 1e-8]
        out.append(W)
    return out


def random_unitary(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def orbit_basis():
    """Kernel modes that sigma_0 swaps in pairs or fixes, fibers 1 and 2, beside
    a pair of eigenvalues +-1 and +-2."""
    rng = np.random.default_rng(11)
    modes, blocks, targets = [], {}, {}
    for j, t, lam, k in ((0, 1, 0.0, 2), (3, 4, 0.0, 1), (6, 7, 1.0, 2), (8, 9, 2.0, 1)):
        modes += [Mode(j, "c", lam, k), Mode(t, "c", -lam, k)]
        V = random_unitary(rng, k)
        blocks[j], blocks[t], targets[j], targets[t] = V, -V.conj().T, t, j
    for j, k, signs in ((2, 2, (1, -1)), (5, 1, (1,)), (10, 1, (-1,))):
        modes.append(Mode(j, "c", 0.0, k))
        U = random_unitary(rng, k)
        blocks[j], targets[j] = 1j * U @ np.diag(signs) @ U.conj().T, j
    basis = EigenmodeBasis(modes, 1.5)
    return basis, SigmaZero(basis, blocks, targets=targets, skew_unitary=True)


def chiral_cases():
    zeros = {-5, -2, 0, 1, 4}
    block = chiral_block_basis(8, lambda j: 0.0 if j in zeros else 0.5j * j + 0.2, band_limit=2.0)
    return {"chiral_block": block, "orbits": orbit_basis()}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("case", sorted(chiral_cases()))
def test_chiral_w_spans_the_eigenspaces_of_i_sigma(case, sign):
    basis, sigma = chiral_cases()[case]
    B = make_chiral(basis, sigma, sign)
    for got, want in zip((B.w_plus, B.w_minus), eigh_w(basis, sigma, sign)):
        assert got.shape == want.shape and want.shape[1] > 0
        assert np.allclose(got @ got.conj().T, want @ want.conj().T, atol=1e-12)
