"""The dense full-basis assembly, kept as a test oracle for the split one.

``assemble`` builds each span from ``(cut, W, g)`` on the coordinates that W
or g touch, and each constraint matrix as per-end touched blocks, with the
unit columns and rows of the untouched coordinates implied.  This module keeps
the builders that came before it: every span and constraint matrix as a dense
array with ``total_dim`` rows or columns, and its singular values from a
split of the whole matrix into lone columns and one coupled block.  The split
route must give the same singular values to round-off, and the same counts at
the shared cut.  The whole constraint matrix M, solved by
``np.linalg.lstsq``, is the reference for ``solve_bvp``'s fit on the split,
and ``unitary_part``, sigma_0 / scale as a dense matrix, the reference for the
cokernel sections.  It also keeps the dense route of the Fredholm pair index:
the rank of the two spans' full columns side by side, at RANK_THRESHOLD times
its largest singular value.  And it keeps the closed-form dense projector
onto a condition, through (1 + g* g)^{-1}, with the membership test built on
it: the program's ``project`` and ``membership`` read the span instead.
"""

import numpy as np
from scipy import linalg as sla

from apslab.boundary_conditions import MEMBERSHIP_TOL, RANK_TOL, _mode_positions
from apslab.cylinder_solver import (
    RANK_THRESHOLD,
    CylinderProblem,
    _coeffs_to_section,
    _shared_cut,
)
from apslab.index_calculus import FredholmPairReport


def coupled_block(M):
    """(cols, rows): the columns of M that share a nonzero row with another
    column, and the rows those columns touch."""
    nz = M != 0
    cols = nz[np.count_nonzero(nz, axis=1) > 1].any(axis=0)
    return cols, nz[:, cols].any(axis=1)


def orthonormalize(parts, tol=RANK_TOL):
    """Orthonormal columns spanning ``parts``: lone columns normalized in input
    order, then a pivoted QR of the coupled block, chopped at 1e-14."""
    height = parts[0].shape[0] if parts else 0
    parts = [p for p in parts if p.size]
    if not parts:
        return np.zeros((height, 0), dtype=complex)
    M = np.column_stack(parts)
    cols, rows = coupled_block(M)
    lone = M[:, ~cols]
    norms = np.linalg.norm(lone, axis=0)
    diag = np.zeros(0)
    if cols.any():
        qb, r, _ = sla.qr(M[np.ix_(rows, cols)], mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
    floor = tol * max(norms.max(initial=0.0), diag.max(initial=0.0), 1e-300)
    keep = norms > floor
    k, rank = int(keep.sum()), int(np.sum(diag > floor))
    q = np.zeros((M.shape[0], k + rank), dtype=complex)
    q[:, :k] = lone[:, keep] / norms[keep]
    if rank:
        q[rows, k:] = qb[:, :rank]
    q[np.abs(q) < 1e-14] = 0
    return q


def svd(M, vectors=False):
    """(s, vh) of M: lone columns take their norms, the coupled block one SVD."""
    m, n = M.shape
    cols, rows = coupled_block(M)
    lone, block = np.flatnonzero(~cols), np.flatnonzero(cols)
    values = [np.linalg.norm(M[:, lone], axis=0)]
    if block.size:
        B = M[np.ix_(rows, cols)]
        sb = np.linalg.svd(B, compute_uv=False)
        if vectors:
            vhb = np.linalg.svd(B)[2]
        values += [sb, np.zeros(block.size - sb.size)]
    values = np.concatenate(values)
    order = np.argsort(-values, kind="stable")
    s = values[order][: min(m, n)]
    if not vectors:
        return s, None
    vh = np.zeros((n, n), dtype=complex)
    vh[np.arange(lone.size), lone] = 1.0
    if block.size:
        vh[lone.size :, block] = vhb
    return s, vh[order]


def mode_map_dense(g):
    """The ModeMap g as a dense total_dim x total_dim matrix."""
    basis = g.basis
    G = np.zeros((basis.total_dim, basis.total_dim), dtype=complex)
    for (tgt, src), block in g.entries.items():
        ot, os = basis.offset(tgt), basis.offset(src)
        G[ot : ot + block.shape[0], os : os + block.shape[1]] = block
    return G


def graph_projector_apply(B, x):
    """Orthogonal projection onto graph(g) inside V_- (+) V_+, in closed form.

    Given the V-components x_- and x_+ of x, the projection is (v, g v)
    with v = (1 + g* g)^{-1} (x_- + g* x_+).
    """
    lower = B._side_mask(lower=True)
    W = B.w_all()
    xv = x - W @ (W.conj().T @ x) if W.size else x.copy()
    xm = np.where(lower, xv, 0)
    xp = np.where(~lower, xv, 0)
    G = mode_map_dense(B.g)
    rhs = xm + G.conj().T @ xp
    v = np.linalg.solve(np.eye(x.shape[0]) + G.conj().T @ G, rhs)
    return v + G @ v


def project(B, x):
    """Orthogonal projection onto B = W_plus (+) graph(g), in closed form."""
    out = graph_projector_apply(B, x)
    if B.w_plus.size:
        out = out + B.w_plus @ (B.w_plus.conj().T @ x)
    return out


def membership(B, phi, tol=MEMBERSHIP_TOL):
    """True when phi lies in B = W_plus (+) graph(g), by the closed-form projector."""
    x = phi.on_basis(B.basis).to_dense()
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        return True
    return float(np.linalg.norm(x - project(B, x))) <= tol * nrm


def side_columns(B, lower):
    """The unit vectors of one side of the cut with W_plus (+) W_minus projected
    out, dropping those whose norm falls below RANK_TOL."""
    idx = np.flatnonzero(B._side_mask(lower))
    C = np.zeros((B.basis.total_dim, idx.size), dtype=complex)
    C[idx, np.arange(idx.size)] = 1.0
    W = B.w_all()
    if W.size:
        C -= W @ W[idx, :].conj().T
    return C[:, ~(np.linalg.norm(C, axis=0) < RANK_TOL)]


def span(B):
    """Dense orthonormal columns spanning B = W_plus (+) graph(g)."""
    C = side_columns(B, lower=True)
    for (tgt, src), block in B.g.entries.items():
        ot, os = B.basis.offset(tgt), B.basis.offset(src)
        C[ot : ot + block.shape[0]] += block @ C[os : os + block.shape[1]]
    return orthonormalize([C, B.w_plus])


def perp_span(B):
    """Dense orthonormal columns spanning W_minus (+) {u - g* u}."""
    C = side_columns(B, lower=False)
    for (tgt, src), block in B.g.entries.items():
        ot, os = B.basis.offset(tgt), B.basis.offset(src)
        C[os : os + block.shape[1]] -= block.conj().T @ C[ot : ot + block.shape[0]]
    return orthonormalize([C, B.w_minus])


def right_permutation(basis, nb):
    """Index array p with x_nb = x_basis[p] for dense vectors over the two orderings."""
    src = np.arange(basis.total_dim)
    pos = basis.coord_mode
    dst = nb.mode_offsets[_mode_positions(basis, nb)][pos] + src - basis.mode_offsets[pos]
    perm = np.empty(basis.total_dim, dtype=int)
    perm[dst] = src
    return perm


def homogeneous_scales(basis, rho):
    """Per-coordinate values of the normalized homogeneous solutions at t=0 and t=rho.

    The exponentials are taken by ``np.exp``, as ``assemble`` takes them:
    ``math.exp`` differs from it in the last bit on some inputs, and LAPACK's
    choice of phase for a null vector can turn on that bit.
    """
    d0 = np.zeros(basis.total_dim)
    dr = np.zeros(basis.total_dim)
    far = np.exp(-np.abs([m.eigenvalue for m in basis.modes]) * rho)
    for m, x in zip(basis.modes, far.tolist()):
        off = basis.offset(m.mode_id)
        v0, vr = (1.0, x) if m.eigenvalue >= 0 else (x, 1.0)
        d0[off : off + m.fiber_dim] = v0
        dr[off : off + m.fiber_dim] = vr
    return d0, dr


def homogeneous_constraint_matrix(P: CylinderProblem, NL, NR, negated=False):
    """The stacked boundary constraints on normalized homogeneous coefficients,
    dense over every coordinate: NL^H scaled at t=0 over NR^H scaled at t=rho."""
    basis = P.basis
    d0, dr = homogeneous_scales(basis, P.rho)
    if negated:
        d0, dr = dr, d0
    perm = right_permutation(basis, P.right.basis)
    rows = []
    if NL.size:
        rows.append(NL.conj().T * d0[np.newaxis, :])
    if NR.size:
        block = np.zeros((NR.shape[1], basis.total_dim), dtype=complex)
        block[:, perm] = NR.conj().T
        rows.append(block * dr[np.newaxis, :])
    if not rows:
        return np.zeros((0, basis.total_dim), dtype=complex)
    return np.vstack(rows)


def assemble(P: CylinderProblem, vectors=False, order=None):
    """(NL, NR, M, spectra, vh, cut): the dense constraint and cokernel matrices
    of P, factored by ``svd`` on the whole matrix.

    ``order``, if given, puts the columns of span(P.left), span(P.right),
    perp_span(P.left) and perp_span(P.right), and so the rows of the two
    matrices, in another order: one index array per span.  LAPACK picks the
    phase of a singular vector from the row order, so two factorizations give
    the same vectors only when their rows come in the same order.
    """
    spans = [span(P.left), span(P.right), perp_span(P.left), perp_span(P.right)]
    if order is not None:
        spans = [Q[:, p] for Q, p in zip(spans, order)]
    C = homogeneous_constraint_matrix(P, *spans[:2], negated=True)
    NL, NR = spans[2:]
    M = homogeneous_constraint_matrix(P, NL, NR)
    (s, vh), (s_co, vh_co) = svd(M, vectors), svd(C, vectors)
    return NL, NR, M, (s, s_co), (vh, vh_co), _shared_cut(s, s_co)


def sections(P: CylinderProblem, order=None) -> tuple:
    """(kernel, cokernel) sections of P from the dense factorization's vectors,
    with the spans in ``order`` (see ``assemble``): the last rows of each vh, as
    many as the matrix's nullity at the cut.  A null vector y of the cokernel
    matrix gives the coefficients U y over the adjoint basis."""
    *_, spectra, vh, cut = assemble(P, vectors=True, order=order)
    ab = P.sigma0.adjoint_basis()
    K, Y = (v[int(np.sum(s > cut)) :].conj() for s, v in zip(spectra, vh))
    X = Y @ unitary_part(P.sigma0, ab).T
    return (
        [_coeffs_to_section(P.basis, P.rho, c) for c in K],
        [_coeffs_to_section(ab, P.rho, x) for x in X],
    )


def unitary_part(sigma0, ab):
    """sigma_0 / scale as a dense matrix from sigma0.basis coordinates to ``ab``'s.

    Block U_j = blocks[j] / scale maps the fiber of mode j into that of tau(j).
    """
    basis = sigma0.basis
    U = np.zeros((ab.total_dim, basis.total_dim), dtype=complex)
    for j, S in sigma0.blocks.items():
        ot, os = ab.offset(sigma0.tau(j)), basis.offset(j)
        U[ot : ot + S.shape[0], os : os + S.shape[1]] = S / sigma0.scale
    return U


def rank(M):
    """The rank of M at RANK_THRESHOLD times its largest singular value, from ``svd``."""
    s = svd(M)[0]
    return int(np.sum(s > RANK_THRESHOLD * s.max(initial=0.0)))


def subspace_pair_index(X, Y, total_dim):
    """The pair report of the column spans of X and Y in a space of ``total_dim``."""
    joint = np.column_stack([X, Y]) if X.size or Y.size else np.zeros((total_dim, 0))
    r = rank(joint)
    inter, codim = rank(X) + rank(Y) - r, total_dim - r
    return FredholmPairReport(inter, codim, inter - codim)


def fredholm_pair(X, Y):
    """The pair report of two ``ClosedSubspace``s from their dense span columns."""
    SX, SY = (
        (Z.condition.perp_span_matrix() if Z.complement else Z.condition.span_matrix()).dense()
        for Z in (X, Y)
    )
    return subspace_pair_index(SX, SY, SX.shape[0])
