"""Exact integer Fredholm indices for cylinder boundary-value problems.

Kernel and cokernel dimensions are finite linear-algebra computations because
all boundary data is band-limited: outside the perturbation band each mode
obeys a pure per-mode sign rule.  There is one production route, the ranks
of two matrices decided against one singular-value cut that they share: the
problem's constraint matrix, and its cokernel matrix, built from the spans of
the problem's own conditions (the adjoint's constraint matrix up to a unitary
factor, so no adjoint problem is built).  Every rank here, those two and the
one behind ``fredholm_pair``, is taken the same way.  A coordinate that no W
data or g touch takes its rank from structure, by the per-mode sign rule: it
carries a unit column of a span, or none, so its constraint column has rank 1
when either end constrains it and is a null direction otherwise, whatever the
value exp(-|lambda| rho) there.  Only the touched coordinates form one small
dense block, factored by ``cylinder_solver._factor`` (lone columns take their
norms, and only the coupled ones an SVD).  Only its values meet the cut that
the two matrices share, which sits in a gap of their spectra
(``cylinder_solver._shared_cut``).  The tests keep two oracles: the dense
full-basis assembly, and a banded one (sign table plus a small block on the
touched modes, from raw generators).

A certified report passes two checks.  The formula check: every condition is
in graph form W_+ (+) graph(g) about a cut, and deforming g to 0 keeps it
Fredholm, so the index is the APS index at the cuts plus dim W_+ - dim W_-; on
the truncated lattice this reads ind = dim B_L + dim B_R - total_dim, and
ker - coker must equal it.  Exact doubling: a band-limited condition, whose
data touch only modes with |lambda| <= band_limit, is B(a) outside the band,
so on the doubled lattice it keeps its W, g and cut, and only the doubled
spectrum, ``basis.extended(2)``, is built.  The added modes obey the sign
rule: those free at both cuts would join the kernel and those constrained at
both the cokernel, and both counts must be 0.  A problem that is not
band-limited (chiral and transmission g pair every mode) is certified only
through its ``family``, which builds it on the doubled lattice, where it is
solved again.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .spectral_core import BasisMismatchError, EigenmodeBasis, Mode, SigmaZero
from .boundary_conditions import (
    ORTHO_TOL,
    BoundaryCondition,
    ConditionError,
    _coords_in,
    complement_condition,
    deform,
    make_chiral,
    make_generalized_aps,
)
from .cylinder_solver import RANK_THRESHOLD, CylinderProblem, _factor, assemble

class CertificateError(RuntimeError):
    """Raised when a certified index fails the formula check or the doubling check.

    The formula check compares ker - coker with dim B_L + dim B_R - total_dim.
    The doubling check compares ker and coker with their values on the doubled
    lattice, counted by the sign rule on the added modes, or re-solved on the
    problem's ``family`` there.  A problem that is not band-limited and has no
    family cannot be certified.
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


def kernel_dim(P: CylinderProblem) -> int:
    """dim ker P, decided against the cut shared with P's cokernel matrix, as in ``index``."""
    return assemble(P).dims()[0]


def _formula_index(P: CylinderProblem) -> int:
    """The index by the graph-index theorem, on the truncated lattice: no rank taken."""
    return P.left.dim() + P.right.dim() - P.basis.total_dim


def _band_limited(cond: BoundaryCondition) -> bool:
    """True when every coordinate that ``cond``'s data touch has |lambda| <= band_limit."""
    b = cond.basis
    return bool(np.all(np.abs(b.coord_eigenvalue[cond._touched[0]]) <= b.band_limit + ORTHO_TOL))


def _doubling_counts(P: CylinderProblem, b2: EigenmodeBasis) -> tuple:
    """(ker, coker) that the modes of ``b2`` missing from P's basis add, by the sign rule.

    With band-limited ends the problem on b2 keeps the W, g and cuts of P, so
    the data touch no added mode: one free at both cuts adds its fiber to the
    kernel, one constrained at both adds it to the cokernel.  A b2 that lacks
    a mode of P's basis, or gives it another eigenvalue or fiber dimension,
    raises CertificateError.
    """
    b = P.basis
    ids2, order = b2._id_order
    at = order[np.minimum(np.searchsorted(ids2, b.mode_ids), order.size - 1)]
    moved = (
        (b2.mode_ids[at] != b.mode_ids)
        | (b2.mode_eigenvalues[at] != b.mode_eigenvalues)
        | (b2.mode_fibers[at] != b.mode_fibers)
    )
    if moved.any():
        raise CertificateError(
            f"truncation certificate failed: the doubled lattice moves mode "
            f"{b.mode_ids[np.argmax(moved)]}"
        )
    added = ~np.isin(b2.mode_ids[b2.coord_mode], b.mode_ids)
    lam = b2.coord_eigenvalue[added]
    free_left = lam < P.left.cut
    free_right = -lam < P.right.cut
    return int(np.sum(free_left & free_right)), int(np.sum(~free_left & ~free_right))


def _certify(P: CylinderProblem, dk: int, dc: int) -> None:
    """The formula check, then the doubling check; raises CertificateError."""
    formula = _formula_index(P)
    if dk - dc != formula:
        raise CertificateError(
            f"index formula check failed: ker {dk} - coker {dc} != "
            f"dim B_L + dim B_R - total_dim = {formula}"
        )
    b2 = P.basis.extended(2)
    if P.family is not None:
        dk2, dc2 = assemble(P.family(b2)).dims()
    elif _band_limited(P.left) and _band_limited(P.right):
        ker, coker = _doubling_counts(P, b2)
        dk2, dc2 = dk + ker, dc + coker
    else:
        raise CertificateError(
            "truncation certificate failed: the condition data touch modes beyond the "
            "band limit, and the problem has no family to build it on the doubled lattice"
        )
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
    lam = P.basis.mode_eigenvalues
    shift = int(P.basis.mode_fibers[(a <= lam) & (lam < b)].sum())
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

    def orthocomplement(self) -> "ClosedSubspace":
        return ClosedSubspace(self.condition, not self.complement)


def fredholm_pair(X: ClosedSubspace, Y: ClosedSubspace) -> FredholmPairReport:
    """Pair index dim(X cap Y) - dim(H / (X + Y)) over the shared truncated basis.

    With r the rank of the span columns [X | Y] side by side, dim(X cap Y) is
    dim X + dim Y - r and the codimension of X + Y is total_dim - r; the span
    columns are orthonormal, so dim X and dim Y are their counts.  r is taken
    at RANK_THRESHOLD times the largest singular value of [X | Y].  On the
    coordinates that either span's dense block touches, every column goes
    through ``_factor``.  A unit column off them is alone on its row, but for
    a unit column of the other span at the same coordinate: each such
    coordinate adds 1 to r, with the singular value 1, or sqrt(2) when the
    two spans share it.
    """
    bx, by = X.condition.basis, Y.condition.basis
    if not bx.same_modes(by):
        raise BasisMismatchError("pair subspaces live over different mode lattices")
    if {X.tail(), Y.tail()} != {"lower", "upper"}:
        raise ConditionError(
            "tails incompatible: the pair needs one lower-tail and one upper-tail subspace"
        )
    SX, SY = (
        Z.condition.perp_span_matrix() if Z.complement else Z.condition.span_matrix()
        for Z in (X, Y)
    )
    ux, uy, ry = SX.unit, _coords_in(by, bx, SY.unit), _coords_in(by, bx, SY.rows)
    near = np.union1d(SX.rows, ry)
    s = _factor(np.hstack([SX.touching(near, ux, SX.rows), SY.touching(near, uy, ry)]))[0]
    ox, oy = ux[~np.isin(ux, near)], uy[~np.isin(uy, near)]
    top = max(
        s.max(initial=0.0),
        float(ox.size + oy.size > 0),
        np.sqrt(2.0) if np.intersect1d(ox, oy).size else 0.0,
    )
    r = np.union1d(ox, oy).size + int(np.sum(s > RANK_THRESHOLD * top))
    inter, codim = SX.shape[1] + SY.shape[1] - r, SX.total_dim - r
    return FredholmPairReport(inter, codim, inter - codim)


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


def _chiral_block_data(basis: EigenmodeBasis) -> tuple:
    """(targets, blocks) of the chiral symbol, read from the mode ids of ``basis``.

    Modes 4j and 4j+1 (the pair +-|b|) swap with block -i; the kernel modes
    4j+2 and 4j+3 stay in place with blocks -i and +i.
    """
    targets, blocks = {}, {}
    for j in basis.mode_ids.tolist():
        r = j % 4
        targets[j] = j + (1, -1, 0, 0)[r]
        blocks[j] = (1j if r == 3 else -1j) * np.eye(1)
    return targets, blocks


def chiral_block_symbol(basis: EigenmodeBasis) -> SigmaZero:
    """The skew-unitary sigma_0 of a ``chiral_block_basis`` lattice, at any truncation."""
    targets, blocks = _chiral_block_data(basis)
    return SigmaZero(basis, blocks, targets=targets, skew_unitary=True)


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
    per chirality).  sigma_0, ``chiral_block_symbol``, pairs the +-|b| modes
    and fixes the kernel modes.
    """

    def lattice(size: int) -> EigenmodeBasis:
        modes = []
        for j in range(-size, size + 1):
            b = complex(block_fn(j))
            if b != 0:
                modes.append(Mode(4 * j, component_id, abs(b), 1))
                modes.append(Mode(4 * j + 1, component_id, -abs(b), 1))
            else:
                modes.append(Mode(4 * j + 2, component_id, 0.0, 1))
                modes.append(Mode(4 * j + 3, component_id, 0.0, 1))
        return EigenmodeBasis(modes, band_limit, extend_fn=lambda factor: lattice(size * factor))

    basis = lattice(n)
    return basis, chiral_block_symbol(basis)


def _chiral_problem(
    basis: EigenmodeBasis, sigma0: SigmaZero, rho: float, sign: int
) -> CylinderProblem:
    """The cylinder with the chiral condition of one sign at both ends.

    Its ``family`` builds the same problem on a larger chiral block lattice,
    over that lattice's own chiral symbol.
    """
    neg = sigma0.negated_boundary()
    return CylinderProblem(
        basis,
        sigma0,
        rho,
        make_chiral(basis, sigma0, sign),
        make_chiral(neg.basis, neg, sign),
        family=lambda b2: _chiral_problem(b2, chiral_block_symbol(b2), rho, sign),
    )


def cobordism_check(
    basis: EigenmodeBasis, sigma0: SigmaZero, rho: float = 1.0
) -> dict:
    """Total chiral index over the two boundary circles vanishes.

    Per end, ind A^+ = dim W_+ - dim W_-; the left end uses (A, sigma_0), the
    right end the adapted pair (-A, -sigma_0).  Cross-check: the cylinder
    problem with the matching chiral condition at both ends has index 0, for
    both chiralities.  ``basis`` and ``sigma0`` are those of
    ``chiral_block_basis``, whose lattice the certificate doubles.
    """
    if not sigma0.skew_unitary:
        raise ConditionError("cobordism setup needs a skew-unitary sigma_0")
    if not sigma0.eigen_negating():
        raise ConditionError("boundary operator is not in chiral normal form")
    sigma0 = sigma0.on_basis(basis)
    targets, blocks = _chiral_block_data(basis)
    if sigma0.targets != targets or not all(
        np.array_equal(S, blocks[j]) for j, S in sigma0.blocks.items()
    ):
        raise ConditionError("sigma_0 is not the chiral symbol of a chiral block lattice")
    P_plus = _chiral_problem(basis, sigma0, rho, sign=1)
    P_minus = _chiral_problem(basis, sigma0, rho, sign=-1)

    contrib_left = P_plus.left.dim_w_plus() - P_plus.left.dim_w_minus()
    contrib_right = P_plus.right.dim_w_plus() - P_plus.right.dim_w_minus()
    total = contrib_left + contrib_right

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
