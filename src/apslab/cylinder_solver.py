"""The model operator sigma_0 (d/dt + A) on the finite cylinder [0, rho].

Sections are eigenmode series with exponential-polynomial time profiles, so
the per-mode solves R_lambda, the right inverse S_0, the extension operator,
full boundary-value solves, and every analytic identity (Green, energy, the
reference-isomorphism residual) are computed in closed form.  A 64-point
t-grid cross-check guards the antiderivative bookkeeping.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from .expoly import Profile, first_order_solve
from .spectral_core import (
    BasisMismatchError,
    BoundarySection,
    EigenmodeBasis,
    SigmaZero,
    check_norm,
)
from .boundary_conditions import (
    BoundaryCondition,
    Span,
    _coords_in,
    _mode_positions,
    _split,
    _stack,
    adjoint,
)

RANK_THRESHOLD = 1e-9  # relative singular-value cutoff for rank decisions
RANK_GAP = 2.0  # no rank cut falls between values closer than this factor
CONSISTENCY_TOL = 1e-9


class SolverError(ValueError):
    """Raised for invalid cylinder problem or section data."""


class CylinderSection:
    """An eigenmode series with one exponential-polynomial profile per fiber slot."""

    def __init__(self, basis: EigenmodeBasis, rho: float, profiles: Optional[dict] = None):
        if rho <= 0:
            raise SolverError("cylinder length must be positive")
        self.basis = basis
        self.rho = float(rho)
        self.profiles: dict = {}
        for mode_id, profs in (profiles or {}).items():
            try:
                k = basis.mode_fibers[basis._pos(mode_id)]
            except KeyError:
                raise BasisMismatchError(f"mode_id {mode_id} not in basis") from None
            profs = list(profs)
            if len(profs) != k:
                raise SolverError(f"need one profile per fiber slot at mode {mode_id}")
            for p in profs:
                if (p.t0, p.t1) != (0.0, self.rho):
                    raise SolverError("profiles must live on [0, rho]")
            if not all(p.is_zero() for p in profs):
                self.profiles[mode_id] = profs

    @staticmethod
    def zero(basis: EigenmodeBasis, rho: float) -> "CylinderSection":
        return CylinderSection(basis, rho)

    @staticmethod
    def single_mode(
        basis: EigenmodeBasis, rho: float, mode_id: int, profile: Profile, fiber_index: int = 0
    ) -> "CylinderSection":
        profs = [Profile.zero(0.0, rho) for _ in range(basis.fiber_dim(mode_id))]
        profs[fiber_index] = profile
        return CylinderSection(basis, rho, {mode_id: profs})

    def is_zero(self) -> bool:
        return not self.profiles

    def _mode_profiles(self, mode_id: int) -> list[Profile]:
        if mode_id in self.profiles:
            return self.profiles[mode_id]
        return [Profile.zero(0.0, self.rho)] * self.basis.fiber_dim(mode_id)

    def trace(self, t: float) -> BoundarySection:
        coeffs = {
            mid: np.array([p(t) for p in profs]) for mid, profs in self.profiles.items()
        }
        return BoundarySection(self.basis, coeffs)

    def trace0(self) -> BoundarySection:
        return self.trace(0.0)

    def trace_rho(self) -> BoundarySection:
        return self.trace(self.rho)

    def __add__(self, other: "CylinderSection") -> "CylinderSection":
        if not self.basis.same_modes(other.basis) or self.rho != other.rho:
            raise BasisMismatchError("sections over different cylinders")
        out = {}
        for mid in set(self.profiles) | set(other.profiles):
            a = self._mode_profiles(mid)
            b = other._mode_profiles(mid)
            out[mid] = [pa + pb for pa, pb in zip(a, b)]
        return CylinderSection(self.basis, self.rho, out)

    def __sub__(self, other: "CylinderSection") -> "CylinderSection":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "CylinderSection":
        return CylinderSection(
            self.basis,
            self.rho,
            {mid: [p.scale(c) for p in profs] for mid, profs in self.profiles.items()},
        )

    def deriv_plus_a(self) -> "CylinderSection":
        """(d/dt + A) applied per mode, exactly."""
        out = {}
        for mid, profs in self.profiles.items():
            lam = self.basis.eigenvalue(mid)
            out[mid] = [p.derivative() + p.scale(lam) for p in profs]
        return CylinderSection(self.basis, self.rho, out)

    def l2_inner(self, other: "CylinderSection") -> complex:
        """Exact cylinder L^2 product, blockwise over shared mode ids."""
        total = 0.0 + 0.0j
        for mid, profs in self.profiles.items():
            if mid in other.profiles:
                for pa, pb in zip(profs, other.profiles[mid]):
                    total += pa.l2_inner(pb)
        return total

    def l2_norm_sq(self) -> float:
        return float(np.real(self.l2_inner(self)))

    def sup_on_grid(self, n: int = 64) -> float:
        best = 0.0
        for profs in self.profiles.values():
            for p in profs:
                best = max(best, p.sup_on_grid(n))
        return best

    def on_basis(self, basis: EigenmodeBasis) -> "CylinderSection":
        if not self.basis.same_modes(basis):
            raise BasisMismatchError("cannot move section to a different mode lattice")
        return CylinderSection(basis, self.rho, self.profiles)


def _sigma_move(sec: CylinderSection, sigma0: SigmaZero, block_of, target_of) -> CylinderSection:
    out: dict = {}
    rho = sec.rho
    for mid, profs in sec.profiles.items():
        t = target_of(mid)
        S = block_of(mid)
        moved = []
        for r in range(S.shape[0]):
            acc = Profile.zero(0.0, rho)
            for c in range(S.shape[1]):
                if S[r, c] != 0:
                    acc = acc + profs[c].scale(S[r, c])
            moved.append(acc)
        if t in out:
            out[t] = [a + b for a, b in zip(out[t], moved)]
        else:
            out[t] = moved
    return CylinderSection(sec.basis, rho, out)


def sigma_apply(sec: CylinderSection, sigma0: SigmaZero) -> CylinderSection:
    """Apply sigma_0 fiberwise at every time (mode j content moves to tau(j))."""
    if not sigma0.basis.same_modes(sec.basis):
        raise BasisMismatchError("sigma_0 and section disagree on mode lattice")
    return _sigma_move(sec, sigma0, lambda j: sigma0.blocks[j], sigma0.tau)


def model_apply(sec: CylinderSection, sigma0: SigmaZero) -> CylinderSection:
    """D_0 Phi = sigma_0 (d/dt + A) Phi, exact."""
    return sigma_apply(sec.deriv_plus_a(), sigma0)


def model_adjoint_apply(sec: CylinderSection, sigma0: SigmaZero) -> CylinderSection:
    """D_0^* Psi for Psi over the adjoint-side basis: -sigma_0^* (d/dt + A-tilde) Psi."""
    as0 = sigma0.adjoint_sigma()
    if not as0.basis.same_modes(sec.basis):
        raise BasisMismatchError("adjoint section must live over the adjoint-side lattice")
    return model_apply(sec.on_basis(as0.basis), as0)


def s0_apply(psi: CylinderSection, sigma0: SigmaZero) -> CylinderSection:
    """The reference right inverse: S_0 Psi solves D_0 Phi = Psi with the split trace conditions."""
    g = _sigma_move(
        psi,
        sigma0,
        lambda m: np.linalg.inv(sigma0.blocks[sigma0.tau_inv(m)]),
        sigma0.tau_inv,
    )
    out = {}
    for mid, profs in g.profiles.items():
        lam = g.basis.eigenvalue(mid)
        out[mid] = [first_order_solve(lam, p) for p in profs]
    return CylinderSection(psi.basis, psi.rho, out)


def cutoff_profile(r: float, rho: float) -> Profile:
    """The C^1 cubic cutoff: 1 on [0, r/3], smoothstep down on [r/3, 2r/3], 0 beyond."""
    if not 0 < r <= rho:
        raise SolverError("cutoff radius must satisfy 0 < r <= rho")
    a, b = r / 3.0, 2.0 * r / 3.0
    h = r / 3.0
    # chi(t) = 1 - 3u^2 + 2u^3 with u = (t - a)/h, expanded in powers of t
    c0 = 1.0 - 3.0 * a * a / h**2 - 2.0 * a**3 / h**3
    c1 = 6.0 * a / h**2 + 6.0 * a * a / h**3
    c2 = -3.0 / h**2 - 6.0 * a / h**3
    c3 = 2.0 / h**3
    mid_terms = [(c0, 0, 0.0), (c1, 1, 0.0), (c2, 2, 0.0), (c3, 3, 0.0)]
    if rho > b:
        return Profile([0.0, a, b, rho], [[(1.0, 0, 0.0)], mid_terms, []])
    return Profile([0.0, a, b], [[(1.0, 0, 0.0)], mid_terms])


def extension_apply(phi: BoundarySection, r: float, rho: float) -> CylinderSection:
    """The extension (E phi)(t) = chi(t) exp(-t|A|) phi; trace at 0 is exactly phi."""
    chi = cutoff_profile(r, rho)
    out = {}
    for mid, vec in phi.coeffs.items():
        lam = abs(phi.basis.eigenvalue(mid))
        decay = Profile.exponential(1.0, -lam, 0.0, rho)
        base = chi.multiply(decay)
        out[mid] = [base.scale(a) for a in vec]
    return CylinderSection(phi.basis, rho, out)


@dataclasses.dataclass
class CylinderProblem:
    """The model operator on [0, rho] with boundary conditions at both ends.

    The left condition is expressed over the boundary operator A, the right
    one over the adapted operator -A (the negated basis).

    ``family``, when set, builds the problem that this one is on a larger
    basis of its spectrum, such as ``basis.extended(2)``.  The truncation
    certificate needs it only for conditions that are not band-limited, whose
    data touch modes beyond the band (chiral and transmission conditions pair
    every mode); a band-limited problem is certified from the larger spectrum
    alone.
    """

    basis: EigenmodeBasis
    sigma0: SigmaZero
    rho: float
    left: BoundaryCondition
    right: BoundaryCondition
    family: Optional[Callable[[EigenmodeBasis], "CylinderProblem"]] = None

    def __post_init__(self):
        if self.rho <= 0:
            raise SolverError("cylinder length must be positive")
        if not self.sigma0.basis.same_modes(self.basis):
            raise BasisMismatchError("sigma_0 disagrees with the problem basis")
        self.sigma0 = self.sigma0.on_basis(self.basis)
        lam = self.basis.mode_eigenvalues
        ends = ((self.left, "left", lam, "A"), (self.right, "right", -lam, "-A"))
        for end, name, want, op in ends:
            b = end.basis
            if not b.same_modes(self.basis):
                raise BasisMismatchError(f"{name} condition disagrees with the problem basis")
            if np.any(np.abs(b.mode_eigenvalues[_mode_positions(self.basis, b)] - want) > 1e-12):
                raise SolverError(f"{name} condition must be expressed over {op}")


def adjoint_problem(P: CylinderProblem) -> CylinderProblem:
    """The adjoint boundary-value problem, whose kernel is the cokernel of P.

    ``assemble`` reads the cokernel from P's own spans instead, so nothing on
    the index path builds this problem.
    """
    ab = P.sigma0.adjoint_basis()
    as0 = P.sigma0.adjoint_sigma()
    left_ad = adjoint(P.left, P.sigma0)
    neg_sigma = P.sigma0.negated_boundary()
    right_ad = adjoint(P.right.on_basis(neg_sigma.basis), neg_sigma)
    return CylinderProblem(ab, as0, P.rho, left_ad.on_basis(ab), right_ad)


@dataclasses.dataclass
class SolveResult:
    particular: Optional[CylinderSection]
    kernel_basis: list
    obstruction_basis: list
    residuals: dict
    consistent: bool


def _homogeneous_profile(lam: float, rho: float) -> Profile:
    """e^{-lam t}, normalized at the end where it is largest (bounded by 1)."""
    if lam >= 0:
        return Profile.exponential(1.0, -lam, 0.0, rho)
    return Profile.exponential(math.exp(lam * rho), -lam, 0.0, rho)


def _homogeneous_scales(basis: EigenmodeBasis, rho: float) -> tuple:
    """Per-coordinate values of the normalized homogeneous solutions at t=0 and t=rho.

    e^{-lambda t}, normalized at the end where it is largest, is 1 there and
    exp(-|lambda| rho) at the other end.
    """
    lam = basis.coord_eigenvalue
    far = np.exp(-np.abs(lam) * rho)
    return np.where(lam >= 0, 1.0, far), np.where(lam >= 0, far, 1.0)


def homogeneous_constraint_matrix(span: Span, scale: np.ndarray) -> np.ndarray:
    """The dense rows of one end's boundary constraints on normalized homogeneous coefficients.

    A coefficient vector c (primal ordering) gives the homogeneous solution
    sum_j c_j h_j(t) phi_j, whose trace at an end lies in that end's condition
    when it is orthogonal to the condition's perp span: each span column x gives
    the row x^* diag(h_j).  A unit column e_j gives h_j e_j^*, in closed form;
    these are the rows of the dense columns, on ``span.rows``, where the values
    h_j are ``scale``.
    """
    return span.block.conj().T * scale[np.newaxis, :]


def _factor(M: np.ndarray, vectors: bool = False) -> tuple:
    """(s, vh): one singular value per column of M, and with ``vectors`` a square
    vh whose row i is the right singular vector of s[i]; without them, vh is None.

    M is factored block by block (``_split``): a matrix that is block diagonal
    up to order has the union of its blocks' spectra.  A column alone on its
    rows has its norm as its value and a unit vector as its right singular
    vector.  Every other block, a coupling component or, when small, the
    whole coupled part, gives its values in descending order, then zeros up
    to its number of columns, at the places of its columns.  All of them go
    through one ``np.linalg.svd`` of values only, the components stacked and
    zero-padded to the largest one's shape, so one call serves a
    factorization however its components fall.  ``vectors`` adds one stacked
    full SVD per block shape, for vh alone, so that a call with vectors ranks
    the very numbers that one without them ranks.
    """
    m, n = M.shape
    lone, rows, cols = _split(M != 0)
    s = np.zeros(n + 1)  # s[n] takes the values of the padding
    s[lone] = np.linalg.norm(M[:, lone], axis=0)
    if rows.shape[0] == 1:  # one block: no padding
        sv = np.linalg.svd(M[rows[0][:, None], cols[0]], compute_uv=False)
        s[cols[0, : sv.size]] = sv
    elif rows.size:
        sv = np.linalg.svd(_stack(M, rows, cols), compute_uv=False)
        p = np.minimum((rows < m).sum(axis=1), (cols < n).sum(axis=1))
        s[np.where(np.arange(sv.shape[1]) < p[:, None], cols[:, : sv.shape[1]], n)] = sv
    s = s[:n]
    if not vectors:
        return s, None
    vh = np.zeros((n, n), dtype=complex)
    vh[lone, lone] = 1.0
    heights, widths = (rows < m).sum(axis=1), (cols < n).sum(axis=1)
    for h, w in set(zip(heights.tolist(), widths.tolist())):
        at = np.flatnonzero((heights == h) & (widths == w))
        c = cols[at, :w]
        vh[c[:, :, None], c[:, None, :]] = np.linalg.svd(_stack(M, rows[at, :h], c))[2]
    return s, vh


@dataclasses.dataclass(frozen=True)
class _Factored:
    """One constraint matrix over a problem's coordinates, factored where it is dense.

    ``ends`` holds (span, unit, rows) per end: the span that gives the rows,
    and its unit and dense coordinates in the problem's coordinates.  T is the
    union of the dense rows of the two spans.  A coordinate off T carries at
    most a unit row per end, so by the sign rule its column has rank 1 when
    either end has one, and is a null direction, one of ``free``, when neither
    has; its closed-form value, sqrt(d0^2 + dr^2) of the unit entries it has,
    is never ranked, and ``top`` is the largest of them.  ``block`` is the
    matrix on the columns T, and ``s`` and ``vh`` are its ``_factor``, one
    value per column of T, taken block by block; the solve and the sections
    read ``block`` and ``vh``, None without vectors.
    """

    ends: list
    T: np.ndarray
    free: np.ndarray
    block: Optional[np.ndarray]
    s: np.ndarray
    vh: Optional[np.ndarray]
    top: float

    def nullity(self, cut: float) -> int:
        return self.free.size + int(np.sum(self.s <= cut))

    def null_vectors(self, cut: float, total_dim: int) -> np.ndarray:
        """Orthonormal rows spanning the null space at ``cut``: the unit vectors at
        ``free``, then the block's null vectors on T."""
        block = self.vh[self.s <= cut].conj()
        X = np.zeros((self.free.size + block.shape[0], total_dim), dtype=complex)
        X[np.arange(self.free.size), self.free] = 1.0
        X[self.free.size :, self.T] = block
        return X

    def coords(self, traces: tuple) -> np.ndarray:
        """The coordinates of each end's trace in its span, the traces (at t=0,
        at t=rho) given over the problem's coordinates."""
        return np.concatenate([
            v
            for (span, unit, rows), x in zip(self.ends, traces)
            for v in (span.block.conj().T @ x[rows], x[unit])
        ])

    def fit(self, traces: tuple, scales: tuple, cut: float) -> np.ndarray:
        """The least-squares c for which the traces x + d c have the smallest
        ``coords``, with the rank that ``nullity`` reads at ``cut``.

        Off T, a coordinate j has at most a unit row d_j c_j = -x_j per end, so
        c_j is -(sum d_j x_j) / (sum d_j^2) over the ends that have one, and 0,
        the least-norm value, where none has (or d_j^2 underflows).  On T, each
        coupling component of the block is solved on its own, from one stacked
        SVD, with its values at or below ``cut`` (as ``s`` gives them) dropped:
        what ``np.linalg.lstsq`` gives with rcond = cut / the component's top
        value.  A lone column of norm at most ``cut`` takes 0.
        """
        D = traces[0].size
        num, den, rhs = np.zeros(D, dtype=complex), np.zeros(D), []
        for (span, unit, rows), x, d in zip(self.ends, traces, scales):
            num[unit] += d[unit] * x[unit]
            den[unit] += d[unit] * d[unit]
            rhs.append(span.touching(self.T, unit, rows).conj().T @ x[self.T])
        c = -np.divide(num, den, out=np.zeros(D, dtype=complex), where=den > 0)
        B, b, s = self.block, -np.concatenate(rhs), self.s
        lone, rows, cols = _split(B != 0)
        x = np.zeros(B.shape[1], dtype=complex)
        kept = lone[s[lone] > cut]
        x[kept] = (B[:, kept].conj().T @ b) / s[kept] ** 2
        if rows.size:
            u, sv, vh = np.linalg.svd(_stack(B, rows, cols), full_matrices=False)
            s_comp = np.append(s, 0.0)[cols[:, : sv.shape[1]]]  # padding reads 0
            inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=s_comp > cut)
            y = u.conj().transpose(0, 2, 1) @ np.append(b, 0.0)[rows][:, :, None]
            xc = (vh.conj().transpose(0, 2, 1) @ (inv[:, :, None] * y))[:, :, 0]
            x[cols[cols < B.shape[1]]] = xc[cols < B.shape[1]]
        c[self.T] = x
        return c


def _factor_constraints(
    P: CylinderProblem, left: Span, right: Span, scales: tuple, vectors: bool
) -> _Factored:
    """The constraint rows that the spans ``left`` and ``right`` of P's two ends
    give, with the values (at t=0, at t=rho) of the homogeneous solutions,
    factored over P's coordinates.

    The columns on T form one dense block: each end's
    ``homogeneous_constraint_matrix`` and its unit rows at coordinates in T,
    placed by ``Span.touching``.
    """
    ends = [
        (span, *(_coords_in(b, P.basis, x) for x in (span.unit, span.rows)))
        for span, b in ((left, P.left.basis), (right, P.right.basis))
    ]
    T = np.union1d(ends[0][2], ends[1][2])  # the dense rows of both spans
    sq, has_unit, parts = np.zeros(P.basis.total_dim), np.zeros(P.basis.total_dim, bool), []
    for (span, unit, rows), d in zip(ends, scales):
        sq[unit] += d[unit] * d[unit]
        has_unit[unit] = True
        H = homogeneous_constraint_matrix(span, d[rows])
        parts.append(span.touching(T, unit, rows, H.T, d[unit]).T)
    sq[T], has_unit[T] = 0.0, True  # the block ranks the columns on T
    block, top = np.vstack(parts), float(np.sqrt(sq.max(initial=0.0)))
    s, vh = _factor(block, vectors)
    return _Factored(ends, T, (~has_unit).nonzero()[0], block if vectors else None, s, vh, top)


def _shared_cut(*spectra: np.ndarray) -> float:
    """The one singular-value cut for the constraint and cokernel matrices of a problem.

    It starts at RANK_THRESHOLD times the largest singular value of any of the
    matrices: a relative cut per matrix can keep a singular value that the two
    share for one of them and drop it for the other.  The two copies of a
    shared value need not agree to round-off, though (0.92 and 1.13 times the
    cut on index_fresh seed 1, round 642, slot 3), so the cut sits in a gap:
    going down from the starting cut, a value within a factor RANK_GAP of the
    smallest value kept so far, and at most RANK_GAP below the starting cut,
    is kept too.  The cut reads the spectra alone, never the index they should
    give, so the certificate's formula check still tests their counts.
    """
    values = np.sort(np.concatenate(spectra))[::-1]
    cut = RANK_THRESHOLD * values[0] if values.size else 0.0
    low = values[values > cut].min(initial=np.inf)
    for x in values[values <= cut]:
        if x < cut / RANK_GAP or low >= RANK_GAP * x:
            break
        low = x
    return cut if low > cut else values[values < low].max(initial=0.0)


def _coeffs_to_section(basis: EigenmodeBasis, rho: float, c: np.ndarray) -> CylinderSection:
    out = {}
    pos = np.unique(basis.coord_mode[np.flatnonzero(c)])  # in basis order
    for mid, lam, off, k in zip(
        basis.mode_ids[pos].tolist(), basis.mode_eigenvalues[pos].tolist(),
        basis.mode_offsets[pos].tolist(), basis.mode_fibers[pos].tolist(),
    ):
        h = _homogeneous_profile(lam, rho)
        out[mid] = [h.scale(a) for a in c[off : off + k]]
    return CylinderSection(basis, rho, out)


@dataclasses.dataclass(frozen=True)
class Assembly:
    """The constraint matrix of a problem and its cokernel matrix, factored.

    ``NL`` and ``NR`` are the split perp spans of the problem's two ends, and
    ``scales`` the values (at t=0, at t=rho) of the normalized homogeneous
    solutions, per coordinate of the problem's basis: the constraint matrix is
    NL^* d0 over NR^* dr, which is never laid out whole.  ``factors`` holds the
    ``_Factored`` constraint matrix and cokernel matrix; their block and vh
    are None without vectors.  ``adjoint_basis``, set only with vectors, is
    the basis of the adjoint side, over which the cokernel sections live.
    """

    problem: CylinderProblem
    adjoint_basis: Optional[EigenmodeBasis]
    NL: Span
    NR: Span
    scales: tuple
    factors: tuple
    cut: float

    def dims(self) -> tuple:
        """(dim ker, dim coker): the nullities of both matrices at the shared cut."""
        return tuple(f.nullity(self.cut) for f in self.factors)

    def sections(self) -> tuple:
        """Orthonormal (kernel, cokernel) sections, from the null vectors of each matrix.

        A null vector y of the cokernel matrix gives the cokernel section with
        coefficients sigma_0 y / scale over the adjoint basis: sigma_0's block j
        moves the fiber of mode j into that of tau(j).
        """
        P, ab, D = self.problem, self.adjoint_basis, self.problem.basis.total_dim
        K, Y = (f.null_vectors(self.cut, D) for f in self.factors)
        kernel = [_coeffs_to_section(P.basis, P.rho, c) for c in K]
        cokernel = [
            P.sigma0.apply(BoundarySection.from_dense(P.basis, y)).to_dense(ab) / P.sigma0.scale
            for y in Y
        ]
        return kernel, [_coeffs_to_section(ab, P.rho, x) for x in cokernel]


def assemble(P: CylinderProblem, vectors: bool = False) -> Assembly:
    """Build and factor the constraint matrix of P and its cokernel matrix, once each.

    In the adjoint condition B^ad = (sigma_0 B)^perp, and sigma_0 is a
    unitary U times one scale, so the adjoint problem's constraint rows span
    U span(B) at both ends.  Its constraint matrix is therefore the cokernel
    matrix, P's own ``span_matrix`` spans scaled for e^{+lambda t}, times the
    unitary U^* on the right: the two share their singular values, and no
    adjoint problem is built.  The normalized value of e^{+lambda t} at one end
    is that of e^{-lambda t} at the other, so the cokernel matrix takes the two
    ends' scales swapped.  sigma_0 enters only the cokernel sections.

    Each matrix is ``_Factored``: only the block on the coordinates T that the
    two ends' W or g touch is factored, and only its coupling components of
    two or more columns take an SVD (an APS problem takes none; a chiral one,
    whose g pairs each mode with its tau-partner, takes 2 x 2 blocks); every
    other coordinate takes its rank from the sign rule, so the rest costs
    O(total_dim).  The shared cut starts from the largest value of either
    whole matrix, ``top`` included.  Right singular vectors are taken only
    with ``vectors``, for the kernel and cokernel sections.
    """
    d0, dr = _homogeneous_scales(P.basis, P.rho)
    S = (P.left.span_matrix(), P.right.span_matrix())
    co = _factor_constraints(P, *S, (dr, d0), vectors)
    NL, NR = P.left.perp_span_matrix(), P.right.perp_span_matrix()
    f = _factor_constraints(P, NL, NR, (d0, dr), vectors)
    ab = P.sigma0.adjoint_basis() if vectors else None
    return Assembly(P, ab, NL, NR, (d0, dr), (f, co), _shared_cut(f.s, co.s, [f.top, co.top]))


def solve_bvp(P: CylinderProblem, psi: CylinderSection) -> SolveResult:
    """General solve: Phi = S_0 Psi + homogeneous part fitted to both conditions.

    The constraints, and the kernel and obstruction bases, are read from the
    one ``assemble`` record of P that ``index`` also reads, and the fit is
    solved on its split (``_Factored.fit``), so no total_dim^2 array is built.
    """
    if not psi.basis.same_modes(P.basis) or psi.rho != P.rho:
        raise BasisMismatchError("right-hand side disagrees with the problem")
    psi = psi.on_basis(P.basis)
    phi_p = s0_apply(psi, P.sigma0)
    A = assemble(P, vectors=True)
    f, x = A.factors[0], tuple(phi_p.trace(t).to_dense(P.basis) for t in (0.0, P.rho))
    c = f.fit(x, A.scales, A.cut)
    gap = float(np.linalg.norm(f.coords([xi + d * c for xi, d in zip(x, A.scales)])))
    residuals = {"constraint_residual": gap}
    consistent = gap <= CONSISTENCY_TOL * (1.0 + float(np.linalg.norm(f.coords(x))))
    particular = None
    if consistent:
        particular = phi_p + _coeffs_to_section(P.basis, P.rho, c)
        check = model_apply(particular, P.sigma0) - psi
        residuals["operator_residual"] = math.sqrt(max(check.l2_norm_sq(), 0.0))

    kernel, obstructions = A.sections()
    return SolveResult(particular, kernel, obstructions, residuals, consistent)


# -- analytic identities ----------------------------------------------------

def riso_residual(phi: CylinderSection, sigma0: SigmaZero, grid: int = 64) -> float:
    """Sup-grid residual of Phi - S_0 D_0 Phi = exp(-tA) Q_{[0,oo)} Phi(0).

    Requires the right-end hypothesis: the strictly-lower spectral part of
    the trace at rho vanishes.
    """
    tr = phi.trace_rho()
    bad = 0.0
    for mid, vec in tr.coeffs.items():
        if phi.basis.eigenvalue(mid) < 0:
            bad = max(bad, float(np.max(np.abs(vec))))
    if bad > 1e-12 * (1.0 + math.sqrt(phi.l2_norm_sq())):
        raise SolverError("right-end hypothesis violated: lower trace at rho is nonzero")
    lhs = phi - s0_apply(model_apply(phi, sigma0), sigma0)
    tr0 = phi.trace0()
    rhs_profiles = {}
    for mid, vec in tr0.coeffs.items():
        lam = phi.basis.eigenvalue(mid)
        if lam >= 0:
            h = Profile.exponential(1.0, -lam, 0.0, phi.rho)
            rhs_profiles[mid] = [h.scale(a) for a in vec]
    rhs = CylinderSection(phi.basis, phi.rho, rhs_profiles)
    return (lhs - rhs).sup_on_grid(grid)


def greens_residual(phi: CylinderSection, psi: CylinderSection, sigma0: SigmaZero) -> complex:
    """(D_0 Phi, Psi) - (Phi, D_0^* Psi) minus the two-ended boundary term, exact.

    Psi lives over the adjoint-side basis; the boundary term is
    -(sigma_0 Phi(0), Psi(0)) + (sigma_0 Phi(rho), Psi(rho)).
    """
    dphi = model_apply(phi, sigma0)
    dpsi = model_adjoint_apply(psi, sigma0)
    lhs = dphi.l2_inner(psi) - phi.l2_inner(dpsi)

    def pair(a: BoundarySection, b: BoundarySection) -> complex:
        total = 0.0 + 0.0j
        for mid, vec in a.coeffs.items():
            if mid in b.coeffs:
                total += complex(np.sum(vec * np.conj(b.coeffs[mid])))
        return total

    s0_tr0 = sigma0.apply(phi.trace0())
    s0_trr = sigma0.apply(phi.trace_rho())
    rhs = -pair(s0_tr0, psi.trace0()) + pair(s0_trr, psi.trace_rho())
    return lhs - rhs


def energy_identity_residual(phi: CylinderSection) -> float:
    """Sum over modes of |int |f'+lam f|^2 - (||f'||^2 + lam^2||f||^2 + lam boundary)|."""
    total = 0.0
    rho = phi.rho
    for mid, profs in phi.profiles.items():
        lam = phi.basis.eigenvalue(mid)
        for f in profs:
            df = f.derivative()
            lhs = (df + f.scale(lam)).l2_norm_sq()
            boundary = abs(f(rho)) ** 2 - abs(f(0.0)) ** 2
            rhs = df.l2_norm_sq() + lam * lam * f.l2_norm_sq() + lam * boundary
            total += abs(lhs - rhs)
    return total


def ode_bound_check(lam: float, rhs: Profile) -> dict:
    """The a-priori L^2 and H^1 bounds for f = first_order_solve(lam, rhs), with slack."""
    f = first_order_solve(lam, rhs)
    g_sq = rhs.l2_norm_sq()
    f_sq = f.l2_norm_sq()
    df_sq = f.derivative().l2_norm_sq()
    rho = rhs.t1 - rhs.t0
    if lam != 0:
        l2_bound = g_sq / (lam * lam)
        h1_bound = (4.0 + 1.0 / (lam * lam)) * g_sq
    else:
        l2_bound = (rho * rho / 2.0) * g_sq
        h1_bound = (1.0 + rho * rho / 2.0) * g_sq
    h1_sq = f_sq + df_sq
    return {
        "lambda": lam,
        "l2_sq": f_sq,
        "l2_bound": l2_bound,
        "l2_slack": l2_bound - f_sq,
        "h1_sq": h1_sq,
        "h1_bound": h1_bound,
        "h1_slack": h1_bound - h1_sq,
        "pass": f_sq <= l2_bound + 1e-12 and h1_sq <= h1_bound + 1e-12,
    }


def extension_bound_probe(samples: list, cut: float, r: float, rho: float) -> float:
    """Max over samples of the graph-norm/check-norm ratio of the extension operator."""
    if not samples:
        raise SolverError("extension bound probe needs at least one sample")
    worst = 0.0
    for phi in samples:
        denom = check_norm(phi, cut) ** 2
        if denom == 0.0:
            continue
        e = extension_apply(phi, r, rho)
        graph_sq = e.l2_norm_sq() + e.deriv_plus_a().l2_norm_sq()
        worst = max(worst, graph_sq / denom)
    if worst == 0.0:
        raise SolverError("extension bound probe needs a nonzero sample")
    return worst


def random_cylinder_section(
    basis: EigenmodeBasis,
    rng: np.random.Generator,
    rho: float,
    n_modes: int = 4,
    n_terms: int = 2,
    max_abs_eigenvalue: Optional[float] = None,
) -> CylinderSection:
    """A seeded random section with small exponential-polynomial profiles."""
    bound = math.inf if max_abs_eigenvalue is None else max_abs_eigenvalue
    pool = np.flatnonzero(np.abs(basis.mode_eigenvalues) <= bound)
    if not pool.size:
        raise SolverError("no modes available for sampling")
    chosen = rng.choice(pool.size, size=min(n_modes, pool.size), replace=False)
    out = {}
    for pos in pool[np.atleast_1d(chosen)].tolist():
        lam = float(basis.mode_eigenvalues[pos])
        profs = []
        for _ in range(int(basis.mode_fibers[pos])):
            terms = []
            for _ in range(n_terms):
                c = complex(rng.standard_normal(), rng.standard_normal())
                p = int(rng.integers(0, 3))
                mu = complex(rng.standard_normal(), rng.standard_normal())
                # keep exponents well away from the resonance -lambda, where the
                # closed-form particular solution is ill-conditioned
                if abs(mu + lam) < 0.1:
                    mu += 0.2
                terms.append((c, p, mu))
            profs.append(Profile.from_terms(terms, 0.0, rho))
        out[int(basis.mode_ids[pos])] = profs
    return CylinderSection(basis, rho, out)
