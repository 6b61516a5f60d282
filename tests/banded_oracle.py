"""A second index assembly, kept as a test oracle for the production route.

``index()`` ranks the full-basis constraint matrices of a problem and its
adjoint.  This oracle shares no assembly or factorization code with it (its
singular values come straight from ``np.linalg.svd``): modes untouched by any
W or g data are counted by the per-mode sign rule, and only the touched modes
enter a small dense block built from raw (un-orthonormalized) generators.
``ker_coker`` decides both kernels against the cut a problem and its adjoint
share, as ``index()`` does.
"""

import math

import numpy as np

from apslab.boundary_conditions import BoundaryCondition
from dense_oracle import mode_map_dense
from apslab.cylinder_solver import CylinderProblem, _shared_cut, adjoint_problem
from apslab.spectral_core import EigenmodeBasis


def touched_modes(cond: BoundaryCondition) -> set:
    """The mode ids that carry W support or a g entry of ``cond``.

    Every other mode obeys the per-mode sign rule at that end.
    """
    b = cond.basis
    rows = np.flatnonzero(np.any(cond.w_all() != 0, axis=1))
    ids = {b.modes[i].mode_id for i in np.unique(b.coord_mode[rows]).tolist()}
    return ids | cond.g.source_ids() | cond.g.target_ids()


def _condition_generators(cond: BoundaryCondition, touched: list) -> list:
    """Raw (un-orthonormalized) generators of the orthocomplement of ``cond``
    that are supported on the touched modes, as dense vectors over cond.basis."""
    b = cond.basis
    W = cond.w_all()
    Gd = mode_map_dense(cond.g) if not cond.g.is_zero() else None
    gens = []
    for mid in touched:
        if b.eigenvalue(mid) < cond.cut:
            continue
        off = b.offset(mid)
        for f in range(b.fiber_dim(mid)):
            v = np.zeros(b.total_dim, dtype=complex)
            v[off + f] = 1.0
            if W.size:
                v = v - W @ (W.conj().T @ v)
            if Gd is not None:
                v = v - Gd.conj().T @ v
            gens.append(v)
    for i in range(cond.dim_w_minus()):
        gens.append(cond.w_minus[:, i])
    return gens


def _banded_system(P: CylinderProblem) -> tuple:
    """(free, M): the untouched modes free at both ends, and the touched-mode block.

    Modes untouched by any W or g data obey pure APS rules at both ends; the
    remaining modes form one small dense system assembled from raw generators.
    This route shares no assembly code with the dense one.
    """
    basis = P.basis
    touched = touched_modes(P.left) | touched_modes(P.right)

    total = 0
    for m in basis.modes:
        if m.mode_id in touched:
            continue
        free_left = m.eigenvalue < P.left.cut
        free_right = -m.eigenvalue < P.right.cut
        if free_left and free_right:
            total += m.fiber_dim

    if not touched:
        return total, np.zeros((0, 0), dtype=complex)

    tlist = sorted(touched, key=lambda mid: basis.offset(mid))
    pos = {}
    n = 0
    for mid in tlist:
        pos[mid] = n
        n += basis.fiber_dim(mid)

    def restrict(vec: np.ndarray, b: EigenmodeBasis) -> np.ndarray:
        out = np.zeros(n, dtype=complex)
        for mid in tlist:
            k = b.fiber_dim(mid)
            out[pos[mid] : pos[mid] + k] = vec[b.offset(mid) : b.offset(mid) + k]
        return out

    scale0 = np.zeros(n)
    scale_r = np.zeros(n)
    for mid in tlist:
        lam = basis.eigenvalue(mid)
        if lam >= 0:
            v0, vr = 1.0, math.exp(-lam * P.rho)
        else:
            v0, vr = math.exp(lam * P.rho), 1.0
        k = basis.fiber_dim(mid)
        scale0[pos[mid] : pos[mid] + k] = v0
        scale_r[pos[mid] : pos[mid] + k] = vr

    rows = []
    for g in _condition_generators(P.left, tlist):
        rows.append(np.conj(restrict(g, P.left.basis)) * scale0)
    for g in _condition_generators(P.right, tlist):
        rows.append(np.conj(restrict(g, P.right.basis)) * scale_r)
    M = np.vstack(rows) if rows else np.zeros((0, n), dtype=complex)
    return total, M


def ker_coker(P: CylinderProblem) -> tuple:
    """(dim ker, dim coker) of P from the banded blocks of P and its adjoint, under one cut."""
    spectra = []
    for Q in (P, adjoint_problem(P)):
        free, M = _banded_system(Q)
        s = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)
        spectra.append((free + M.shape[1], s))
    cut = _shared_cut(*(s for _, s in spectra))
    return tuple(n - int(np.sum(s > cut)) for n, s in spectra)
