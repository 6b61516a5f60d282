"""Exact integer Fredholm indices for cylinder boundary-value problems.

Kernel and cokernel dimensions are finite linear-algebra computations because
all boundary data is band-limited: outside the perturbation band each mode
obeys a pure per-mode sign rule.  There is one production route, the ranks
of two full-basis matrices decided against one singular-value cut that they
share: the problem's constraint matrix, and its cokernel matrix, built from
the spans of the problem's own conditions (the adjoint's constraint matrix
up to a unitary factor, so no adjoint problem is built).  The factorization
splits by sparsity: a column alone on its rows (a mode no W data or g touch)
has its norm as its singular value, and only the coupled block, on the
touched coordinates, takes a dense SVD.  A banded assembly (sign table plus a
small block on the touched modes) is kept in the tests as an oracle for it.

A certified report passes two checks.  The formula check: every condition is
in graph form W_+ (+) graph(g) about a cut, and deforming g to 0 keeps it
Fredholm, so the index is the APS index at the cuts plus dim W_+ - dim W_-; on
the truncated lattice this reads ind = dim B_L + dim B_R - total_dim, and
ker - coker must equal it.  Exact doubling: the problem is rebuilt on the
doubled lattice but not solved.  When its condition data touch the same modes
as before, the added modes obey the sign rule: those free at both cuts would
join the kernel and those constrained at both the cokernel, and both counts
must be 0.  Only conditions whose data touch the added modes (chiral and
transmission g pair every mode) are solved again on the doubled lattice.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from .spectral_core import (
    BasisMismatchError,
    EigenmodeBasis,
    Mode,
    SigmaZero,
)
from .boundary_conditions import (
    BoundaryCondition,
    ConditionError,
    complement_condition,
    deform,
    make_chiral,
    make_generalized_aps,
)
from .cylinder_solver import RANK_THRESHOLD, CylinderProblem, _svd, assemble

class CertificateError(RuntimeError):
    """Raised when a certified index fails the formula check or the doubling check.

    The formula check compares ker - coker with dim B_L + dim B_R - total_dim.
    The doubling check compares ker and coker with their values on the doubled
    lattice, counted by the sign rule on the added modes, or re-solved there
    when the condition data touch them.
    """


class PairHypothesisError(ValueError):
    """Raised when the Fredholm-pair norm hypothesis ||g1||*||g2|| < 1 fails."""

    def __init__(self, norm_product: float):
        self.norm_product = norm_product
        super().__init__(
            f"pair hypothesis violated: ||g1||*||g2|| = {norm_product:.6g} >= 1"
        )


@dataclasses.dataclass
class IndexReport:
    dim_ker: int
    dim_coker: int
    index: int
    truncation_certificate: dict
    kernel_basis: list = dataclasses.field(default_factory=list)
    cokernel_basis: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class FredholmPairReport:
    dim_intersection: int
    codim_sum: int
    index: int


def _rank(M: np.ndarray) -> int:
    s = _svd(M)[0]
    return int(np.sum(s > RANK_THRESHOLD * s[0])) if s.size else 0


def _touched_modes(cond: BoundaryCondition) -> set:
    """The mode ids that carry W support or a g entry of ``cond``.

    Every other mode obeys the per-mode sign rule at that end.
    """
    b = cond.basis
    rows = np.flatnonzero(np.any(cond.w_all() != 0, axis=1))
    ids = {b.modes[i].mode_id for i in np.unique(b.coord_mode[rows]).tolist()}
    return ids | cond.g.source_ids() | cond.g.target_ids()


def kernel_dim(P: CylinderProblem) -> int:
    """dim ker P, decided against the cut shared with P's cokernel matrix, as in ``index``."""
    return assemble(P).dims()[0]


def _formula_index(P: CylinderProblem) -> int:
    """The index by the graph-index theorem, on the truncated lattice: no rank taken."""
    return P.left.dim() + P.right.dim() - P.basis.total_dim


def _doubling_counts(P: CylinderProblem, P2: CylinderProblem) -> Optional[tuple]:
    """(ker, coker) that the modes of P2 missing from P add, by the sign rule.

    An added mode free at both cuts adds its fiber to the kernel, one
    constrained at both adds it to the cokernel.  This is exact only when P2
    is P plus untouched modes, so the counts are None unless every mode of P
    keeps its eigenvalue in P2, each end's condition data touch the same modes
    in P2 as in P (so none of the added ones), and the formula index of P2 is
    that of P plus ker - coker.
    """
    b, b2 = P.basis, P2.basis
    if any(m.mode_id not in b2 or b2.mode(m.mode_id) != m for m in b.modes):
        return None
    for end, end2 in ((P.left, P2.left), (P.right, P2.right)):
        if _touched_modes(end2) != _touched_modes(end):
            return None
    coord_ids = np.array([m.mode_id for m in b2.modes])[b2.coord_mode]
    added = ~np.isin(coord_ids, [m.mode_id for m in b.modes])
    lam = b2.coord_eigenvalue[added]
    free_left = lam < P2.left.cut
    free_right = -lam < P2.right.cut
    ker = int(np.sum(free_left & free_right))
    coker = int(np.sum(~free_left & ~free_right))
    if _formula_index(P2) != _formula_index(P) + ker - coker:
        return None
    return ker, coker


def _certify(P: CylinderProblem, dk: int, dc: int) -> None:
    """The formula check, then the doubling check; raises CertificateError."""
    formula = _formula_index(P)
    if dk - dc != formula:
        raise CertificateError(
            f"index formula check failed: ker {dk} - coker {dc} != "
            f"dim B_L + dim B_R - total_dim = {formula}"
        )
    P2 = P.on_basis(P.basis.extended(2))
    added = _doubling_counts(P, P2)
    if added is None:
        dk2, dc2 = assemble(P2).dims()
    else:
        dk2, dc2 = dk + added[0], dc + added[1]
    if (dk2, dc2) != (dk, dc):
        raise CertificateError(
            f"truncation certificate failed: ker {dk}->{dk2}, coker {dc}->{dc2}"
        )


def index(
    P: CylinderProblem,
    certify: bool = True,
    with_bases: bool = False,
) -> IndexReport:
    """Exact index of the boundary-value problem, certified as the module docstring says.

    ker and coker, and with ``with_bases`` their orthonormal bases, are read
    from one ``assemble`` record of P: the nullities of its constraint and
    cokernel matrices at the one cut the two share, as ``solve_bvp`` reads
    them.  ``doubled_agrees`` is True when the certificate ran (a failing one
    raises CertificateError) and None without it.
    """
    A = assemble(P, vectors=with_bases)
    dk, dc = A.dims()
    cert = {"N_used": P.basis.total_dim, "doubled_agrees": None}
    if certify:
        _certify(P, dk, dc)
        cert["doubled_agrees"] = True
    kb, cb = A.sections() if with_bases else ([], [])
    return IndexReport(dk, dc, dk - dc, cert, kb, cb)


# -- identity checks --------------------------------------------------------

def _with_left(P: CylinderProblem, left: BoundaryCondition) -> CylinderProblem:
    return CylinderProblem(P.basis, P.sigma0, P.rho, left, P.right)


def aps_shift_check(P: CylinderProblem, a: float, b: float) -> dict:
    """ind D_{B(b)} = ind D_{B(a)} + #{lambda in [a, b)}, three independent computations."""
    if a > b:
        raise ValueError("aps_shift_check needs a <= b")
    ia = index(_with_left(P, make_generalized_aps(P.basis, a)))
    ib = index(_with_left(P, make_generalized_aps(P.basis, b)))
    shift = sum(
        m.fiber_dim for m in P.basis.modes if a <= m.eigenvalue < b
    )
    return {
        "index_a": ia.index,
        "index_b": ib.index,
        "mode_count": shift,
        "equal": ib.index == ia.index + shift,
        "reports": (ia, ib),
    }


def graph_index_check(P: CylinderProblem) -> dict:
    """ind D_B = ind D_{B(a)} + dim(W_+ upper) - dim(W_- lower) for graph-form left B."""
    B = P.left
    i_b = index(P)
    i_aps = index(_with_left(P, make_generalized_aps(P.basis, B.cut)))
    correction = B.w_plus_upper_dim() - B.w_minus_lower_dim()
    return {
        "lhs": i_b.index,
        "rhs": i_aps.index + correction,
        "aps_index": i_aps.index,
        "correction": correction,
        "equal": i_b.index == i_aps.index + correction,
        "reports": (i_b, i_aps),
    }


def deformation_sweep(P: CylinderProblem, steps: int = 11) -> dict:
    """Index along the family deform(left, s), s in [0, 1]; must be constant."""
    if steps < 2:
        raise ValueError("deformation sweep needs at least 2 steps")
    values = []
    reports = []
    for s in np.linspace(0.0, 1.0, steps):
        rep = index(_with_left(P, deform(P.left, float(s))))
        values.append(rep.index)
        reports.append(rep)
    return {
        "indices": values,
        "constant": len(set(values)) == 1,
        "value": values[0],
        "reports": reports,
    }


# -- Fredholm pairs ---------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ClosedSubspace:
    """A band-limited graph-form closure or its L^2-orthocomplement."""

    condition: BoundaryCondition
    complement: bool = False

    def tail(self) -> str:
        return "upper" if self.complement else "lower"

    def matrix(self) -> np.ndarray:
        if self.complement:
            return self.condition.perp_span_matrix()
        return self.condition.span_matrix()

    def orthocomplement(self) -> "ClosedSubspace":
        return ClosedSubspace(self.condition, not self.complement)


def subspace_pair_index(X: np.ndarray, Y: np.ndarray, total_dim: int) -> FredholmPairReport:
    """The pair index of two explicit subspaces of a finite space."""
    joint = np.column_stack([X, Y]) if X.size or Y.size else np.zeros((total_dim, 0))
    r = _rank(joint)
    dim_x = _rank(X)
    dim_y = _rank(Y)
    inter = dim_x + dim_y - r
    codim = total_dim - r
    return FredholmPairReport(inter, codim, inter - codim)


def fredholm_pair(X: ClosedSubspace, Y: ClosedSubspace) -> FredholmPairReport:
    """Pair index dim(X cap Y) - dim(H / (X + Y)) over the shared truncated basis."""
    if not X.condition.basis.same_modes(Y.condition.basis):
        raise BasisMismatchError("pair subspaces live over different mode lattices")
    if {X.tail(), Y.tail()} != {"lower", "upper"}:
        raise ConditionError(
            "tails incompatible: the pair needs one lower-tail and one upper-tail subspace"
        )
    D = X.condition.basis.total_dim
    return subspace_pair_index(X.matrix(), Y.matrix(), D)


def pair_index_identity_check(
    P: CylinderProblem,
    B1: BoundaryCondition,
    B2: BoundaryCondition,
) -> dict:
    """ind D_{B1} - ind D_{B2} = ind(closure(B1), closure(B2)^perp); refuses ||g1||*||g2|| >= 1."""
    product = B1.g.operator_norm() * B2.g.operator_norm()
    if product >= 1.0:
        raise PairHypothesisError(product)
    i1 = index(_with_left(P, B1))
    i2 = index(_with_left(P, B2))
    pair = fredholm_pair(ClosedSubspace(B1), ClosedSubspace(B2, complement=True))
    return {
        "index_1": i1.index,
        "index_2": i2.index,
        "pair_index": pair.index,
        "equal": i1.index - i2.index == pair.index,
        "norm_product": product,
        "pair_report": pair,
        "reports": (i1, i2),
    }


# -- splitting and cobordism ------------------------------------------------

def split_check(P_glued: CylinderProblem, B1: BoundaryCondition) -> dict:
    """ind(glued cylinder) = ind(left half) + ind(right half).

    ``B1`` is the cut condition at the midpoint, over the negated basis (so it
    serves directly as the left half's right-end condition); the right half
    gets its L^2-orthocomplement, re-expressed over the original basis.
    """
    if not B1.basis.same_modes(P_glued.basis):
        raise BasisMismatchError("cut condition disagrees with the glued problem")
    half = P_glued.rho / 2.0
    B2 = complement_condition(B1)
    left_half = CylinderProblem(P_glued.basis, P_glued.sigma0, half, P_glued.left, B1)
    right_half = CylinderProblem(P_glued.basis, P_glued.sigma0, half, B2, P_glued.right)
    i_glued = index(P_glued)
    i_left = index(left_half)
    i_right = index(right_half)
    return {
        "glued": i_glued.index,
        "left": i_left.index,
        "right": i_right.index,
        "equal": i_glued.index == i_left.index + i_right.index,
        "reports": (i_glued, i_left, i_right),
    }


def chiral_block_basis(
    n: int,
    block_fn: Callable[[int], complex],
    band_limit: float,
    component_id: str = "c0",
) -> tuple:
    """An eigenmode basis and skew-unitary sigma_0 for a normal-form boundary operator.

    The off-diagonal block of A has scalar entries block_fn(j) for |j| <= n.
    Each nonzero entry b contributes the eigenvalue pair +-|b| (mode ids 4j,
    4j+1); a zero entry contributes two kernel modes (ids 4j+2 and 4j+3, one
    per chirality).  sigma_0 pairs the +-|b| modes and fixes the kernel modes.
    """
    modes = []
    targets = {}
    blocks = {}
    for j in range(-n, n + 1):
        b = complex(block_fn(j))
        if b != 0:
            lam = abs(b)
            ip, im = 4 * j, 4 * j + 1
            modes.append(Mode(ip, component_id, lam, 1))
            modes.append(Mode(im, component_id, -lam, 1))
            targets[ip], targets[im] = im, ip
            blocks[ip] = -1j * np.eye(1)
            blocks[im] = -1j * np.eye(1)
        else:
            iz_plus, iz_minus = 4 * j + 2, 4 * j + 3
            modes.append(Mode(iz_plus, component_id, 0.0, 1))
            modes.append(Mode(iz_minus, component_id, 0.0, 1))
            targets[iz_plus] = iz_plus
            targets[iz_minus] = iz_minus
            blocks[iz_plus] = -1j * np.eye(1)
            blocks[iz_minus] = 1j * np.eye(1)

    def extend(factor: int) -> EigenmodeBasis:
        return chiral_block_basis(n * factor, block_fn, band_limit, component_id)[0]

    basis = EigenmodeBasis(modes, band_limit, extend_fn=extend)

    def sigma_ext(nb: EigenmodeBasis) -> SigmaZero:
        return chiral_block_basis(
            (max(abs(m.mode_id) for m in nb.modes)) // 4, block_fn, band_limit, component_id
        )[1].on_basis(nb)

    sigma = SigmaZero(basis, blocks, targets=targets, skew_unitary=True, extend_fn=sigma_ext)
    return basis, sigma


def cobordism_check(
    basis: EigenmodeBasis, sigma0: SigmaZero, rho: float = 1.0
) -> dict:
    """Total chiral index over the two boundary circles vanishes.

    Per end, ind A^+ = dim W_+ - dim W_-; the left end uses (A, sigma_0), the
    right end the adapted pair (-A, -sigma_0).  Cross-check: the cylinder
    problem with the matching chiral condition at both ends has index 0, for
    both chiralities.
    """
    if not sigma0.skew_unitary:
        raise ConditionError("cobordism setup needs a skew-unitary sigma_0")
    if not sigma0.eigen_negating():
        raise ConditionError("boundary operator is not in chiral normal form")
    sigma0 = sigma0.on_basis(basis)
    neg_sigma = sigma0.negated_boundary()
    left_plus = make_chiral(basis, sigma0, sign=1)
    right_plus = make_chiral(neg_sigma.basis, neg_sigma, sign=1)
    left_minus = make_chiral(basis, sigma0, sign=-1)
    right_minus = make_chiral(neg_sigma.basis, neg_sigma, sign=-1)

    contrib_left = left_plus.dim_w_plus() - left_plus.dim_w_minus()
    contrib_right = right_plus.dim_w_plus() - right_plus.dim_w_minus()
    total = contrib_left + contrib_right

    P_plus = CylinderProblem(basis, sigma0, rho, left_plus, right_plus)
    P_minus = CylinderProblem(basis, sigma0, rho, left_minus, right_minus)
    i_plus = index(P_plus)
    i_minus = index(P_minus)
    return {
        "contribution_left": contrib_left,
        "contribution_right": contrib_right,
        "total": total,
        "index_plus": i_plus.index,
        "index_minus": i_minus.index,
        "pass": total == 0 and i_plus.index == 0 and i_minus.index == 0,
        "reports": (i_plus, i_minus),
    }
