"""Boundary conditions in canonical graph form W_+ (+) graph(g), with constructors,
adjoints, deformations, membership, and the mode-diagonal pseudo-local ellipticity check.

A condition stores a spectral cut ``a`` plus finite perturbation data: two finite
orthonormal families W_plus / W_minus and a mode-aligned map g from the lower
spectral side to the upper one.  Beyond the perturbation band the condition
coincides with the generalized APS condition B(a), which is what makes every
kernel, cokernel, quotient, and index in this package an exact finite
computation.

Each W vector must lie entirely on one side of the cut, but the slot
(plus/minus) is independent of the side: the chiral conditions place both
families at eigenvalue zero, on the upper side of the cut.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterable, Optional

import numpy as np
from scipy import linalg as sla

from .spectral_core import (
    BasisMismatchError,
    BoundarySection,
    EigenmodeBasis,
    Interval,
    SigmaZero,
    _stacks_by_shape,
    l2_pairing,
)

RANK_TOL = 1e-10
ORTHO_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9


class ConditionError(ValueError):
    """Raised for invalid boundary-condition data."""


class ModeMap:
    """A sparse mode-aligned linear map between eigenmode fibers.

    ``entries`` maps (target_mode_id, source_mode_id) to a complex block of
    shape (fiber_dim(target), fiber_dim(source)).  The structure tag is
    ``finite_band`` (all entries within |lambda| <= band limit),
    ``paired_diagonal`` (a bijective mode pairing with one block per pair), or
    ``zero``.
    """

    def __init__(self, basis: EigenmodeBasis, entries: Optional[dict] = None, tag: str = "zero"):
        if tag not in ("zero", "finite_band", "paired_diagonal"):
            raise ConditionError(f"unknown ModeMap tag {tag!r}")
        self.basis = basis
        self.entries = {}
        entries = entries or {}
        fibers = basis.mode_fibers[basis._positions(list(entries))].reshape(-1, 2).tolist()
        for ((tgt, src), block), want in zip(entries.items(), map(tuple, fibers)):
            arr = np.atleast_2d(np.asarray(block, dtype=complex))
            if arr.shape != want:
                raise ConditionError(f"block shape {arr.shape} != {want} at entry ({tgt},{src})")
            if np.any(arr != 0):
                self.entries[(tgt, src)] = arr
        self.tag = "zero" if not self.entries else tag
        if self.tag == "paired_diagonal":
            srcs = [s for _, s in self.entries]
            tgts = [t for t, _ in self.entries]
            if len(set(srcs)) != len(srcs) or len(set(tgts)) != len(tgts):
                raise ConditionError("paired_diagonal map must pair modes bijectively")
        self._norm = None

    @staticmethod
    def zero(basis: EigenmodeBasis) -> "ModeMap":
        return ModeMap(basis)

    def is_zero(self) -> bool:
        return not self.entries

    def source_ids(self) -> set:
        return {s for _, s in self.entries}

    def target_ids(self) -> set:
        return {t for t, _ in self.entries}

    def apply(self, phi: BoundarySection) -> BoundarySection:
        out: dict = {}
        for (tgt, src), block in self.entries.items():
            if src in phi.coeffs:
                out[tgt] = out.get(tgt, 0) + block @ phi.coeffs[src]
        return BoundarySection(phi.basis, out)

    def operator_norm(self) -> float:
        if self._norm is None:
            if not self.entries:
                self._norm = 0.0
            elif self.tag == "paired_diagonal":
                self._norm = max(
                    float(np.linalg.norm(b, 2)) for b in self.entries.values()
                )
            else:
                ids = sorted(self.source_ids() | self.target_ids())
                pos = {}
                n = 0
                for mid in ids:
                    pos[mid] = n
                    n += self.basis.fiber_dim(mid)
                M = np.zeros((n, n), dtype=complex)
                for (tgt, src), block in self.entries.items():
                    M[pos[tgt] : pos[tgt] + block.shape[0], pos[src] : pos[src] + block.shape[1]] = block
                self._norm = float(np.linalg.norm(M, 2))
        return self._norm

    def adjoint(self) -> "ModeMap":
        entries = {(s, t): b.conj().T for (t, s), b in self.entries.items()}
        return ModeMap(self.basis, entries, self.tag)

    def scale(self, c: complex) -> "ModeMap":
        return ModeMap(self.basis, {k: c * b for k, b in self.entries.items()}, self.tag)

    def on_basis(self, basis: EigenmodeBasis) -> "ModeMap":
        if not self.basis.same_modes(basis):
            raise BasisMismatchError("ModeMap cannot move to a different mode lattice")
        return ModeMap(basis, self.entries, self.tag)


SPLIT_CELLS = 2048  # a coupled part of at most this many cells is factored whole


def _components(nz: np.ndarray) -> np.ndarray:
    """The coupling components of the columns of a matrix whose nonzero pattern
    is ``nz``: per column, the smallest column index in its component.

    Two columns are coupled when they share a nonzero row, and a component is
    closed under coupling; a column alone on its rows, or zero, is a component
    of its own.  Columns of different components are orthogonal and meet
    disjoint rows, so a matrix factors component by component.  The labels
    are read from the pattern only, never from the values, so problems of one
    shape take the same factorizations whatever their data.

    Min-label propagation over the nonzeros, sorted once by column: each pass
    gives every column the smallest label on its rows, then jumps each label
    to that column's label, so a chain of columns takes O(log length) passes;
    it ends when every row holds one label.
    """
    per_row, per_col = np.count_nonzero(nz, axis=1), np.count_nonzero(nz, axis=0)
    label = np.arange(nz.shape[1])
    c = np.nonzero(nz)[1]  # by row, then column
    if not c.size:
        return label
    starts, lengths = (np.cumsum(per_row) - per_row)[per_row > 0], per_row[per_row > 0]
    by_col, col_starts = np.argsort(c, kind="stable"), (np.cumsum(per_col) - per_col)[per_col > 0]
    cols = np.flatnonzero(per_col)
    rmin = np.minimum.reduceat(label[c], starts)
    while True:
        label = label.copy()
        label[cols] = np.minimum.reduceat(np.repeat(rmin, lengths)[by_col], col_starts)
        label = label[label]
        on_rows = label[c]
        rmin = np.minimum.reduceat(on_rows, starts)
        if np.array_equal(rmin, np.maximum.reduceat(on_rows, starts)):
            return label  # every row holds one label, so every component does


def _split(nz: np.ndarray) -> tuple:
    """(lone, rows, cols): the columns of a matrix whose nonzero pattern is
    ``nz`` that are alone on their rows, and the blocks that the others form.

    ``lone`` lists, in order, the columns that share no nonzero row with
    another column: each is a coupling component (``_components``) on its own.
    Row j of the (k, r) array ``rows`` and of the (k, c) array ``cols`` lists,
    in order, the rows and the columns of the j-th block, and a shorter list is
    padded with the pattern's row or column count.  Every block is a union of
    components, so M is block diagonal up to order.  A coupled part of at most
    SPLIT_CELLS cells is one block: one LAPACK call on it costs less than
    labelling and separating its components.  A larger one gives one block
    per component, in the order of their first columns.
    """
    m, n = nz.shape
    coupled = (nz.sum(axis=1) > 1) @ nz  # boolean products: any over the shared rows
    lone, cols = (~coupled).nonzero()[0], coupled.nonzero()[0]
    rows = (nz @ coupled).nonzero()[0]
    if rows.size * cols.size <= SPLIT_CELLS:
        k = min(cols.size, 1)
        return lone, rows[None, :][:k], cols[None, :][:k]
    label = _components(nz)
    roots = cols[label[cols] == cols]
    comp = np.zeros(n, dtype=int)
    comp[roots] = np.arange(roots.size)
    out = []
    at_rows = comp[label[nz[rows].argmax(axis=1)]]  # a row's component is its columns'
    for at, of, count in ((rows, at_rows, m), (cols, comp[label[cols]], n)):
        order = np.argsort(of, kind="stable")
        width = np.bincount(of, minlength=roots.size)
        place = np.full((roots.size, width.max()), count)
        rank = np.arange(of.size) - np.repeat(np.cumsum(width) - width, width)
        place[of[order], rank] = at[order]
        out.append(place)
    return lone, *out


def _stack(M: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The components ``rows`` and ``cols`` of ``_split`` cut out of M as one
    (k, r, c) stack; padding reads zeros.  Zero rows and columns add only zero
    singular values and leave the others, and their vectors, in place."""
    m, n = M.shape
    r, c = rows[:, :, None], cols[:, None, :]
    return np.where((r < m) & (c < n), M[np.minimum(r, m - 1), np.minimum(c, n - 1)], 0)


def _orthonormalize(M: np.ndarray, units: bool = False, tol: float = RANK_TOL) -> tuple:
    """(q, floor): orthonormal columns spanning the columns of M.

    A column alone on its rows is normalized as it stands; each block of the
    others (``_split``: a coupling component, or the whole coupled part when
    it is small) goes through a pivoted QR on its own rows and columns, which,
    M being block diagonal up to order, gives the diagonal of R that one
    pivoted QR of all of them gives.  With ``units``, implied unit
    columns on rows outside M take part, each alone on its row with norm 1.0.
    A column is kept when its norm, or its diagonal entry of R, exceeds
    ``floor``: ``tol`` times the largest column norm, the first diagonal entry
    of a pivoted QR of all of them.  q holds the kept lone columns first, in
    input order, then the QR columns block by block, with entries below
    1e-14 chopped so that sparse mode support survives exactly.
    """
    m, n = M.shape
    lone, rows, cols = _split(M != 0)
    norms = np.linalg.norm(M[:, lone], axis=0)
    blocks = []
    for r, c in zip(rows, cols):
        if rows.shape[0] > 1:  # a lone block has no padding
            r, c = r[r < m], c[c < n]
        qb, rb, _ = sla.qr(M[r[:, None], c], mode="economic", pivoting=True)
        blocks.append((r, qb, np.abs(np.diag(rb))))
    top = max([norms.max(initial=0.0), float(units), 1e-300] + [d.max() for *_, d in blocks])
    floor = tol * top
    keep = norms > floor
    lone = lone[keep]
    ranks = [int(np.sum(d > floor)) for *_, d in blocks]
    q = np.zeros((m, lone.size + sum(ranks)), dtype=complex)
    q[:, : lone.size] = M[:, lone] / norms[keep]
    at = lone.size
    for (r, qb, _), rank in zip(blocks, ranks):
        q[r, at : at + rank] = qb[:, :rank]
        at += rank
    q[np.abs(q) < 1e-14] = 0
    return q, floor


def _mode_positions(basis: EigenmodeBasis, other: EigenmodeBasis) -> np.ndarray:
    """Index array p with other.mode_ids[p] == basis.mode_ids, on one lattice."""
    p = np.empty(basis.mode_ids.size, dtype=int)
    p[basis._id_order[1]] = other._id_order[1]
    return p


def _coords_in(src: EigenmodeBasis, dst: EigenmodeBasis, coords: np.ndarray) -> np.ndarray:
    """The coordinates of ``dst`` that hold the coordinates ``coords`` of ``src``,
    a basis on the same mode lattice."""
    if np.array_equal(src.mode_ids, dst.mode_ids):
        return coords
    mode = src.coord_mode[coords]
    return dst.mode_offsets[_mode_positions(src, dst)[mode]] + coords - src.mode_offsets[mode]


@dataclasses.dataclass(frozen=True)
class Span:
    """Orthonormal columns over the ``total_dim`` coordinates of a basis, most
    of them unit vectors.

    The columns of ``block``, on the coordinates ``rows`` and zero elsewhere,
    come first, then the unit vectors at the coordinates ``unit``.  Only the
    coordinates that a condition's W or g touch are ever dense.  ``dense()``
    gives the full array.
    """

    total_dim: int
    unit: np.ndarray
    rows: np.ndarray
    block: np.ndarray

    @property
    def shape(self) -> tuple:
        return (self.total_dim, self.block.shape[1] + self.unit.size)

    def dense(self) -> np.ndarray:
        Q = np.zeros(self.shape, dtype=complex)
        Q[self.rows, : self.block.shape[1]] = self.block
        Q[self.unit, self.block.shape[1] + np.arange(self.unit.size)] = 1.0
        return Q

    def touching(
        self,
        coords: np.ndarray,
        unit: np.ndarray,
        rows: np.ndarray,
        block: Optional[np.ndarray] = None,
        unit_val: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The columns that touch the sorted coordinates ``coords``, on them, as a
        dense array: the block columns, then the unit columns inside ``coords``.
        ``unit`` and ``rows`` are the span's own coordinates, expressed in the
        coordinates of ``coords``.  ``block`` and ``unit_val`` (one value per
        unit column) take the places of the span's block and of the 1.0 of its
        unit columns."""
        block = self.block if block is None else block
        inner = np.flatnonzero(np.isin(unit, coords))
        X = np.zeros((coords.size, block.shape[1] + inner.size), dtype=complex)
        X[np.searchsorted(coords, rows), : block.shape[1]] = block
        X[np.searchsorted(coords, unit[inner]), block.shape[1] + np.arange(inner.size)] = (
            1.0 if unit_val is None else unit_val[inner]
        )
        return X


class BoundaryCondition:
    """Canonical graph-form boundary condition B = W_plus (+) {v + g v}."""

    def __init__(
        self,
        basis: EigenmodeBasis,
        cut: float,
        w_plus: Iterable[BoundarySection] = (),
        w_minus: Iterable[BoundarySection] = (),
        g: Optional[ModeMap] = None,
        provenance: str = "graph",
    ):
        if provenance not in ("aps", "graph", "chiral", "transmission"):
            raise ConditionError(f"unknown provenance {provenance!r}")
        self.basis = basis
        self.cut = float(cut)
        self.g = g if g is not None else ModeMap.zero(basis)
        if self.g.basis is not basis:
            self.g = self.g.on_basis(basis)
        self.provenance = provenance

        self.w_plus = self._family(w_plus)
        self.w_minus = self._family(w_minus)
        self._validate()

    # -- structural helpers ------------------------------------------------
    def _side_mask(self, lower: bool) -> np.ndarray:
        return (self.basis.coord_eigenvalue < self.cut) == lower

    def _family(self, sections: Iterable[BoundarySection]) -> np.ndarray:
        """Orthonormal columns over every coordinate spanning the W vectors given."""
        D = self.basis.total_dim
        vecs = [w.on_basis(self.basis).to_dense() for w in sections]
        W = np.column_stack(vecs) if vecs else np.zeros((D, 0), dtype=complex)
        rows = np.flatnonzero(np.any(W != 0, axis=1))
        q = _orthonormalize(W[rows])[0]
        if q.shape[1] != len(vecs):
            raise ConditionError("W family is linearly dependent")
        W = np.zeros((D, q.shape[1]), dtype=complex)
        W[rows] = q
        return W

    def _validate(self):
        basis = self.basis
        band = basis.band_limit
        lower = self._side_mask(lower=True)
        gmodes = self.g.source_ids() | self.g.target_ids()
        for name, W in (("W_plus", self.w_plus), ("W_minus", self.w_minus)):
            for i in range(W.shape[1]):
                w = W[:, i]
                lo = float(np.linalg.norm(w[lower]))
                hi = float(np.linalg.norm(w[~lower]))
                if min(lo, hi) > ORTHO_TOL:
                    raise ConditionError(f"{name} vector {i} straddles the cut")
                sec = BoundarySection.from_dense(basis, w)
                for mid in sec.support():
                    weight = float(np.linalg.norm(sec.coeff(mid)))
                    if weight <= ORTHO_TOL:
                        continue
                    if abs(basis.eigenvalue(mid)) > band + ORTHO_TOL:
                        raise ConditionError(f"{name} vector {i} leaves the band at mode {mid}")
                    if mid in gmodes:
                        raise ConditionError(
                            f"{name} vector {i} overlaps a g source/target mode ({mid})"
                        )
        if self.w_plus.size and self.w_minus.size:
            cross = self.w_plus.conj().T @ self.w_minus
            if np.max(np.abs(cross)) > 1e-10:
                raise ConditionError("W_plus and W_minus are not orthogonal")
        pairs = list(self.g.entries)
        lam = basis.mode_eigenvalues[basis._positions(pairs)].reshape(-1, 2).tolist()
        for (tgt, src), (lam_t, lam_s) in zip(pairs, lam):
            if lam_s >= self.cut:
                raise ConditionError(f"g source mode {src} not on the lower side of the cut")
            if lam_t < self.cut:
                raise ConditionError(f"g target mode {tgt} not on the upper side of the cut")
            if self.g.tag == "finite_band":
                for mid, x in ((tgt, lam_t), (src, lam_s)):
                    if abs(x) > band + ORTHO_TOL:
                        raise ConditionError(f"finite_band g entry leaves the band at mode {mid}")

    # -- derived data ------------------------------------------------------
    def w_all(self) -> np.ndarray:
        parts = [W for W in (self.w_plus, self.w_minus) if W.size]
        if not parts:
            return np.zeros((self.basis.total_dim, 0), dtype=complex)
        return np.column_stack(parts)

    def dim_w_plus(self) -> int:
        return self.w_plus.shape[1] if self.w_plus.size else 0

    def dim_w_minus(self) -> int:
        return self.w_minus.shape[1] if self.w_minus.size else 0

    def _w_side_dim(self, cols: slice, lower: bool) -> int:
        """The number of the W_plus (+) W_minus columns ``cols`` that lie on one
        side of the cut, read on the rows that W touches."""
        rows, _, W = self._touched
        side = (self.basis.coord_eigenvalue[rows] < self.cut) == lower
        return int(np.count_nonzero(np.linalg.norm(W[side, cols], axis=0) > 0.5))

    def w_plus_upper_dim(self) -> int:
        return self._w_side_dim(slice(0, self.dim_w_plus()), lower=False)

    def w_minus_lower_dim(self) -> int:
        return self._w_side_dim(slice(self.dim_w_plus(), None), lower=True)

    def span_matrix(self) -> Span:
        """Orthonormal columns spanning B within the truncated trace space."""
        return self._lower_span

    def perp_span_matrix(self) -> Span:
        """Orthonormal columns spanning the L^2-orthocomplement W_minus (+) {u - g* u}."""
        return self._upper_span

    # A condition is not changed after __init__, so each span is built once,
    # with read-only arrays, whatever number of problems and pairs read it.
    @functools.cached_property
    def _lower_span(self) -> Span:
        return self._span(lower=True)

    @functools.cached_property
    def _upper_span(self) -> Span:
        return self._span(lower=False)

    @functools.cached_property
    def _touched(self) -> tuple:
        """(rows, g, W): the coordinates that a W vector or a g entry touches;
        the g entries grouped by block shape, as (blocks, target rows, source
        rows) with the blocks stacked (k, a, b) and their rows (k, a) and (k, b)
        given as positions in ``rows``; and W_plus (+) W_minus on the rows.
        Both spans are built on these rows."""
        basis = self.basis
        W = self.w_all()
        pos = basis._positions(list(self.g.entries))
        in_g = np.zeros(basis.mode_ids.size, dtype=bool)
        in_g[pos] = True
        rows = (np.any(W != 0, axis=1) | in_g[basis.coord_mode]).nonzero()[0]
        at = np.searchsorted(rows, basis.mode_offsets[pos]).reshape(-1, 2)
        g = [
            (G, *(at[i, e, None] + np.arange(k) for e, k in enumerate(G.shape[1:])))
            for i, G in _stacks_by_shape(list(self.g.entries.values()))
        ]
        rows.flags.writeable = False
        return rows, g, W[rows]

    def _span(self, lower: bool) -> Span:
        """``span_matrix`` (lower) or ``perp_span_matrix``, built from (cut, W, g).

        Its columns orthonormalize the side columns, then W_plus (lower) or
        W_minus.  A side column is a unit vector e_j of one side of the cut with
        W_plus (+) W_minus projected out (dropped below RANK_TOL), then mapped by
        v -> v + g v (lower) or u -> u - g* u, one stacked product per shape of
        g block; the scatter accumulates, as a mode of a ``finite_band`` g takes
        several entries.  A coordinate that no W vector and no g entry touches
        keeps e_j, a unit column.  The other columns are built on the touched
        coordinates alone, by ``_orthonormalize``, and form the span's block.
        """
        on_side = self._side_mask(lower)
        rows, g, W = self._touched
        side = on_side[rows]
        touched = rows[side]
        C = np.zeros((rows.size, touched.size), dtype=complex)
        C[side.nonzero()[0], np.arange(touched.size)] = 1.0
        C -= W @ W[side].conj().T
        C = C[:, ~(np.linalg.norm(C, axis=0) < RANK_TOL)]
        for G, t, s in g:
            at, v = (t, G @ C[s]) if lower else (s, -(G.conj().transpose(0, 2, 1) @ C[t]))
            if self.g.tag == "paired_diagonal":  # one entry per mode: no repeated rows
                C[at] += v
            else:
                np.add.at(C, at, v)
        family = (self.w_plus if lower else self.w_minus)[rows]
        on_side[rows] = False
        unit = on_side.nonzero()[0]
        q, floor = _orthonormalize(np.column_stack([C, family]), unit.size > 0)
        if not 1.0 > floor:  # a lone column of norm 1/RANK_TOL or more drops them
            unit = unit[:0]
        unit.flags.writeable = q.flags.writeable = False
        return Span(self.basis.total_dim, unit, rows, q)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto B = W_plus (+) graph(g): S S^* x over the
        orthonormal columns S of ``span_matrix``, whose unit columns keep
        their coordinates of x."""
        S = self.span_matrix()
        out = np.zeros(x.shape, dtype=complex)
        out[S.rows] = S.block @ (S.block.conj().T @ x[S.rows])
        out[S.unit] = x[S.unit]
        return out

    def membership(self, phi: BoundarySection, tol: float = MEMBERSHIP_TOL) -> bool:
        x = phi.on_basis(self.basis).to_dense()
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:
            return True
        dist = float(np.linalg.norm(x - self.project(x)))
        return dist <= tol * nrm

    def dim(self) -> int:
        lower = int(np.count_nonzero(self.basis.coord_eigenvalue < self.cut))
        return lower - self._w_side_dim(slice(None), lower=True) + self.dim_w_plus()

    def on_basis(self, basis: EigenmodeBasis) -> "BoundaryCondition":
        """Transfer the band data unchanged to a lattice-extending basis."""
        wp = [
            BoundarySection.from_dense(self.basis, self.w_plus[:, i]).coeffs
            for i in range(self.dim_w_plus())
        ]
        wm = [
            BoundarySection.from_dense(self.basis, self.w_minus[:, i]).coeffs
            for i in range(self.dim_w_minus())
        ]
        return BoundaryCondition(
            basis,
            self.cut,
            [BoundarySection(basis, c) for c in wp],
            [BoundarySection(basis, c) for c in wm],
            ModeMap(basis, self.g.entries, self.g.tag),
            self.provenance,
        )


# -- constructors ----------------------------------------------------------

def make_generalized_aps(basis: EigenmodeBasis, a: float) -> BoundaryCondition:
    """B(a) = H^{1/2}_{(-inf, a)}(A): spectral support strictly below the cut."""
    return BoundaryCondition(basis, a, provenance="aps")


def make_chiral(basis: EigenmodeBasis, sigma0: SigmaZero, sign: int = 1) -> BoundaryCondition:
    """Trace constrained to the (+-1)-eigenbundle of the involution i sigma_0.

    Requires sigma_0 skew-unitary and the boundary operator anticommuting with
    i sigma_0 — in eigenmode terms, the sigma_0 mode pairing must negate
    eigenvalues.  Canonical data: the kernel part of the eigenbundle forms
    W_plus, the opposite kernel part W_minus (both at eigenvalue zero), and g
    is +-i sigma_0 restricted to the strictly negative modes.
    """
    if sign not in (1, -1):
        raise ConditionError("chiral sign must be +1 or -1")
    if not sigma0.skew_unitary:
        raise ConditionError("chiral conditions need a skew-unitary sigma_0")
    sigma0 = sigma0.on_basis(basis)
    ids, tau = basis.mode_ids.tolist(), list(sigma0.targets.values())  # in basis order
    lam = basis.mode_eigenvalues
    bad = np.flatnonzero(np.abs(lam + lam[basis._positions(tau)]) > ORTHO_TOL)
    if bad.size:
        raise ConditionError(
            f"boundary operator does not anticommute with i*sigma_0 at mode {ids[bad[0]]}"
        )
    negative = np.flatnonzero(lam < 0).tolist()
    entries = {(tau[i], ids[i]): sign * 1j * sigma0.blocks[ids[i]] for i in negative}
    g = ModeMap(basis, entries, "paired_diagonal")

    # W: the +-sign eigenspaces of the involution Z = i sigma_0 on the kernel
    # modes, one tau-orbit at a time.  On an orbit {j, t}, Z has the blocks
    # S_j = i sigma_0|j from j to t and S_t back, with S_t S_j = 1, so
    # (x, mu S_j x) / sqrt(2) is in the mu-eigenspace for every x of fiber j.
    # On a mode that tau fixes, Z is its own Hermitian block; those blocks are
    # diagonalized together, one stacked eigh per fiber dimension.
    w = {1: [], -1: []}
    zero = np.flatnonzero(lam == 0.0).tolist()
    inv = 1.0 / math.sqrt(2.0)
    for j, t in [(ids[i], tau[i]) for i in zero if ids[i] < tau[i]]:
        S = 1j * sigma0.blocks[j]
        for x, y in zip(np.eye(S.shape[1]), S.T):
            for mu in (1, -1):
                w[mu].append(BoundarySection(basis, {j: inv * x, t: mu * inv * y}))
    fixed = [ids[i] for i in zero if ids[i] == tau[i]]
    for pos, stack in _stacks_by_shape([1j * sigma0.blocks[j] for j in fixed]):
        vals, vecs = np.linalg.eigh(stack)
        if np.any(np.abs(np.abs(vals) - 1.0) >= 1e-8):  # pragma: no cover - Z is an involution
            raise ConditionError("i*sigma_0 eigenvalue off +-1 on kernel modes")
        for p, val, vec in zip(pos.tolist(), vals, vecs):
            for x, v in zip(val, vec.T):
                w[1 if x > 0 else -1].append(BoundarySection(basis, {fixed[p]: v}))
    w_plus, w_minus = w[sign], w[-sign]

    return BoundaryCondition(basis, 0.0, w_plus, w_minus, g, provenance="chiral")


def make_transmission(doubled_basis: EigenmodeBasis) -> BoundaryCondition:
    """The condition {(phi, phi)} on a two-copy doubling with negated second copy."""
    basis = doubled_basis
    if not basis.pairings:
        raise ConditionError("transmission conditions need a doubled basis with pairings")
    for j, t in basis.pairings.items():
        if basis.pairings.get(t) != j:
            raise ConditionError("basis pairing is not an involution")
        if abs(basis.eigenvalue(j) + basis.eigenvalue(t)) > ORTHO_TOL:
            raise ConditionError(f"paired modes {j},{t} do not have negated eigenvalues")
        if basis.fiber_dim(j) != basis.fiber_dim(t):
            raise ConditionError("paired modes must share the fiber dimension")
    entries = {}
    for j, t in basis.pairings.items():
        if basis.eigenvalue(j) < 0:
            entries[(t, j)] = np.eye(basis.fiber_dim(j))
    g = ModeMap(basis, entries, "paired_diagonal")
    w_plus, w_minus = [], []
    seen = set()
    inv = 1.0 / math.sqrt(2.0)
    for j, t in basis.pairings.items():
        if basis.eigenvalue(j) == 0.0 and j not in seen:
            seen.update((j, t))
            for f in range(basis.fiber_dim(j)):
                e = np.zeros(basis.fiber_dim(j), dtype=complex)
                e[f] = inv
                w_plus.append(BoundarySection(basis, {j: e, t: e}))
                w_minus.append(BoundarySection(basis, {j: e, t: -e}))

    return BoundaryCondition(basis, 0.0, w_plus, w_minus, g, provenance="transmission")


# -- operations ------------------------------------------------------------

def adjoint(B: BoundaryCondition, sigma0: Optional[SigmaZero] = None) -> BoundaryCondition:
    """The adjoint boundary condition (sigma_0^{-1})^* (W_minus (+) {v - g^* v}).

    Built in canonical graph form over the adjoint-side basis; the beta pairing
    of any member of B with any member of the result vanishes.  The adjoint of
    the result, over ``sigma0.adjoint_sigma()``, spans B again.
    """
    if sigma0 is None:
        raise ConditionError("adjoint needs the sigma_0 of the model operator")
    if not sigma0.basis.same_modes(B.basis):
        raise BasisMismatchError("sigma_0 and condition disagree on mode lattice")
    sigma0 = sigma0.on_basis(B.basis)
    ab = sigma0.adjoint_basis()
    cut = ab.cut_above(-B.cut)
    scale = sigma0.scale

    def carry(W: np.ndarray) -> list[BoundarySection]:
        out = []
        for i in range(W.shape[1] if W.size else 0):
            sec = BoundarySection.from_dense(B.basis, W[:, i])
            out.append(sigma0.star_inv_apply(sec).scale(scale).on_basis(ab))
        return out

    entries = {}
    for (t, s), Gb in B.g.entries.items():
        St = sigma0.blocks[t]
        Ss = sigma0.blocks[s]
        block = np.linalg.inv(Ss.conj().T) @ (-Gb.conj().T) @ St.conj().T
        entries[(sigma0.tau(s), sigma0.tau(t))] = block
    g_ad = ModeMap(ab, entries, B.g.tag)

    return BoundaryCondition(
        ab,
        cut,
        carry(B.w_minus),
        carry(B.w_plus),
        g_ad,
        provenance=B.provenance,
    )


def complement_condition(B: BoundaryCondition) -> BoundaryCondition:
    """The L^2-orthocomplement of B, expressed over the negated basis.

    Swaps the W families and replaces g by -g^*; used as the matching inner
    condition when a cylinder is cut in two and the indices are glued.
    """
    nb = B.basis.negated()
    cut = nb.cut_above(-B.cut)
    wp = [
        BoundarySection(nb, BoundarySection.from_dense(B.basis, B.w_minus[:, i]).coeffs)
        for i in range(B.dim_w_minus())
    ]
    wm = [
        BoundarySection(nb, BoundarySection.from_dense(B.basis, B.w_plus[:, i]).coeffs)
        for i in range(B.dim_w_plus())
    ]
    entries = {(s, t): -b.conj().T for (t, s), b in B.g.entries.items()}
    g = ModeMap(nb, entries, B.g.tag)
    return BoundaryCondition(nb, cut, wp, wm, g, provenance=B.provenance)


def deform(B: BoundaryCondition, s: float) -> BoundaryCondition:
    """Replace g by s*g, keeping the decomposition; deform(B, 1) = B."""
    if not 0.0 <= s <= 1.0:
        raise ConditionError("deformation parameter must lie in [0, 1]")
    wp = [BoundarySection.from_dense(B.basis, B.w_plus[:, i]) for i in range(B.dim_w_plus())]
    wm = [BoundarySection.from_dense(B.basis, B.w_minus[:, i]) for i in range(B.dim_w_minus())]
    return BoundaryCondition(B.basis, B.cut, wp, wm, B.g.scale(s), B.provenance)


def quotient_dim(B1: BoundaryCondition, B2: BoundaryCondition) -> int:
    """dim(B2 / B1) for nested conditions B1 subset of B2 over the same basis.

    B1 lies in B2 when every column x of span(B1) has a distance
    ||perp_span(B2)^* x|| from B2 of at most MEMBERSHIP_TOL ||x||.  The product
    is taken on the coordinates that either span touches; a unit column of
    span(B1) off them meets perp_span(B2) only in a unit column at its own
    coordinate.
    """
    if not B1.basis.same_modes(B2.basis):
        raise BasisMismatchError("conditions live over different mode lattices")
    S, N = B1.span_matrix(), B2.perp_span_matrix()
    unit = _coords_in(B1.basis, B2.basis, S.unit)
    rows = _coords_in(B1.basis, B2.basis, S.rows)
    near = np.union1d(rows, N.rows)
    X = S.touching(near, unit, rows)
    dist = np.linalg.norm(N.touching(near, N.unit, N.rows).conj().T @ X, axis=0)
    if np.any(dist > MEMBERSHIP_TOL * np.linalg.norm(X, axis=0)) or np.any(
        np.isin(unit[~np.isin(unit, near)], N.unit)
    ):
        raise ConditionError("conditions are not nested: a generator of B1 is not in B2")
    diff = B2.dim() - B1.dim()
    if diff < 0:  # pragma: no cover - excluded by the membership check
        raise ConditionError("nested conditions with negative quotient dimension")
    return diff


def pseudo_local_check(family, a: float, sv_threshold: float = 1e-9):
    """Mode-diagonal ellipticity test: P_n - Q_{[a,oo)}|_n invertible per block.

    ``family`` iterates over (label, A_block, P_block) with A_block Hermitian
    and P_block an orthogonal projector on the same fiber.  Returns
    (ok, report) where the report carries the smallest singular value seen or
    the failing block label as witness.
    """
    min_sv = math.inf
    for label, A_block, P_block in family:
        A_block = np.atleast_2d(np.asarray(A_block, dtype=complex))
        P = np.atleast_2d(np.asarray(P_block, dtype=complex))
        if np.max(np.abs(P @ P - P)) > 1e-10 or np.max(np.abs(P - P.conj().T)) > 1e-10:
            raise ConditionError(f"block {label!r} is not an orthogonal projector")
        vals, vecs = np.linalg.eigh(A_block)
        keep = vals >= a
        Q = (vecs[:, keep] @ vecs[:, keep].conj().T) if np.any(keep) else np.zeros_like(P)
        svs = np.linalg.svd(P - Q, compute_uv=False)
        smallest = float(svs[-1]) if svs.size else 0.0
        if smallest <= sv_threshold:
            return False, {"witness": label, "smallest_sv": smallest}
        min_sv = min(min_sv, smallest)
    return True, {"smallest_sv": min_sv}


def seeded_graph_condition(
    basis: EigenmodeBasis,
    rng: np.random.Generator,
    cut: float = 0.0,
    dim_w_plus: int = 1,
    dim_w_minus: int = 1,
    g_norm: float = 0.5,
    n_g_pairs: int = 2,
) -> BoundaryCondition:
    """A seeded random band-limited graph condition with prescribed ||g||."""
    lam, ids, fibers = basis.mode_eigenvalues, basis.mode_ids.tolist(), basis.mode_fibers.tolist()
    in_band = np.abs(lam) <= basis.band_limit
    lower = np.flatnonzero((lam < cut) & in_band)
    upper = np.flatnonzero((lam >= cut) & in_band)
    need_lo = (1 if dim_w_minus else 0) and max(1, dim_w_minus)
    need_hi = (1 if dim_w_plus else 0) and max(1, dim_w_plus)
    if lower.size < need_lo + n_g_pairs or upper.size < need_hi + n_g_pairs:
        raise ConditionError("not enough band modes on one side of the cut")
    lo_idx = lower[rng.permutation(lower.size)].tolist()
    hi_idx = upper[rng.permutation(upper.size)].tolist()
    lo_w, lo_g = lo_idx[:need_lo], lo_idx[need_lo : need_lo + n_g_pairs]
    hi_w, hi_g = hi_idx[:need_hi], hi_idx[need_hi : need_hi + n_g_pairs]

    def random_family(modes, dim):
        if dim == 0 or not modes:
            return []
        coords = sum(fibers[m] for m in modes)
        dim = min(dim, coords)
        M = rng.standard_normal((coords, dim)) + 1j * rng.standard_normal((coords, dim))
        out = []
        for c in range(dim):
            coeffs = {}
            pos = 0
            for m in modes:
                coeffs[ids[m]] = M[pos : pos + fibers[m], c]
                pos += fibers[m]
            out.append(BoundarySection(basis, coeffs))
        return out

    wm = random_family(lo_w, dim_w_minus)
    wp = random_family(hi_w, dim_w_plus)

    entries = {}
    if g_norm > 0 and lo_g and hi_g:
        for s in lo_g:
            for t in hi_g:
                shape = (fibers[t], fibers[s])
                blk = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                entries[(ids[t], ids[s])] = blk
    g = ModeMap(basis, entries, "finite_band")
    if not g.is_zero():
        g = g.scale(g_norm / g.operator_norm())
    return BoundaryCondition(basis, cut, wp, wm, g, provenance="graph")
