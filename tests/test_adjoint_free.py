"""The cokernel read from a problem's own spans, against the adjoint problem.

For a conformal sigma_0 = scale * U (U unitary, moving mode j to tau(j)) the
adjoint condition is B^ad = (sigma_0^*)^{-1} B^perp = U B^perp, so its
constraint rows span (U B^perp)^perp = U span(B).  ``assemble`` therefore
factors P's ``span_matrix`` spans, scaled for e^{+lambda t}, and never builds
the adjoint problem; sigma_0 enters only the cokernel sections, through U.
The adjoint problem is the oracle here: its condition spans, its kernel
dimension and its kernel sections.  The grid is the problems of
``test_split_factor`` at three lengths, plus a non-scalar sigma_0 of scale 2
with fiber-2 unitary blocks.
"""

import numpy as np
import pytest

import dense_oracle
from apslab.boundary_conditions import adjoint, seeded_graph_condition
from apslab.cylinder_solver import CylinderProblem, adjoint_problem, assemble
from apslab.index_calculus import kernel_dim
from apslab.spectral_core import EigenmodeBasis, SigmaZero

from test_split_factor import PROBLEMS as SPLIT_PROBLEMS

PROJECTOR_TOL = 1e-12
RHOS = (0.3, 1.0, 25.0)


def unitary_sigma(basis, scale, seed):
    """A seeded sigma_0 of one conformal scale with a random unitary block per mode."""
    rng = np.random.default_rng(seed)
    blocks = {}
    for m in basis.modes:
        k = m.fiber_dim
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        blocks[m.mode_id] = scale * q
    return SigmaZero(basis, blocks)


def unitary_graph(seed):
    def build(rho):
        basis = EigenmodeBasis.lattice(8, shift=0.15, fiber_dim=2, band_limit=4.0)
        rng = np.random.default_rng(seed)
        left = seeded_graph_condition(basis, rng, cut=0.5, dim_w_plus=1, dim_w_minus=2, g_norm=0.7)
        right = seeded_graph_condition(basis.negated(), rng, cut=-0.3, g_norm=0.6)
        return CylinderProblem(basis, unitary_sigma(basis, 2.0, seed), rho, left, right)

    return build


PROBLEMS = {**SPLIT_PROBLEMS, **{f"unitary_f2_s{s}": unitary_graph(s) for s in (4, 9)}}
GRID = [(name, rho) for name in sorted(PROBLEMS) for rho in RHOS]


def projector(Q):
    return Q @ Q.conj().T


def ends(P):
    """(condition, sigma_0) at each end, as ``adjoint_problem`` pairs them."""
    neg = P.sigma0.negated_boundary()
    return [(P.left, P.sigma0), (P.right.on_basis(neg.basis), neg)]


def coefficients(sections):
    """The coefficient vectors behind normalized homogeneous sections, as columns.

    A section sum_j c_j h_j(t) phi_j with max(h_j(0), h_j(rho)) = 1 is read
    back from whichever end trace carries the larger value.
    """
    cols = []
    for sec in sections:
        x0, xr = sec.trace0().to_dense(), sec.trace_rho().to_dense()
        lam = sec.basis.coord_eigenvalue
        cols.append(np.where(lam >= 0, x0, xr))
    return np.array(cols).T


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_adjoint_condition_spans_u_times_the_condition(name):
    P = PROBLEMS[name](1.0)
    for B, sigma in ends(P):
        ad = adjoint(B, sigma)
        U = dense_oracle.unitary_part(sigma.on_basis(B.basis), ad.basis)
        assert np.allclose(U.conj().T @ U, np.eye(B.basis.total_dim), atol=1e-14)
        UB = U @ B.span_matrix().dense()
        N = ad.perp_span_matrix().dense()
        assert np.max(np.abs(projector(UB) - projector(N))) <= PROJECTOR_TOL


@pytest.mark.parametrize("name, rho", GRID)
def test_cokernel_is_the_adjoint_kernel(name, rho):
    P = PROBLEMS[name](rho)
    A = assemble(P, vectors=True)
    Q = adjoint_problem(P)
    assert A.dims()[1] == kernel_dim(Q)
    assert np.array_equal(A.adjoint_basis.mode_ids, Q.basis.mode_ids)
    assert np.array_equal(A.adjoint_basis.coord_eigenvalue, Q.basis.coord_eigenvalue)
    cokernel = A.sections()[1]
    oracle = assemble(Q, vectors=True).sections()[0]
    assert len(cokernel) == len(oracle)
    if not cokernel:
        return
    X, Y = coefficients(cokernel), coefficients(oracle)
    assert np.allclose(X.conj().T @ X, np.eye(X.shape[1]), atol=1e-12)
    assert np.max(np.abs(projector(X) - projector(Y))) <= PROJECTOR_TOL


@pytest.mark.parametrize("name, rho", GRID)
def test_scaling_sigma_changes_no_count(name, rho):
    P = PROBLEMS[name](rho)
    c = 3.0 - 2.0j
    sigma = SigmaZero(
        P.basis, {j: c * S for j, S in P.sigma0.blocks.items()}, targets=P.sigma0.targets
    )
    Pc = CylinderProblem(P.basis, sigma, P.rho, P.left, P.right)
    A, Ac = assemble(P), assemble(Pc)
    assert Ac.dims() == A.dims()
    assert Ac.cut == A.cut
    assert kernel_dim(adjoint_problem(Pc)) == A.dims()[1]
