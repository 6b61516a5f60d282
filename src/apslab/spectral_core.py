"""Eigenmode model of the boundary: sections, Sobolev/hybrid norms, projections, pairings.

The boundary operator A is given purely by spectral data: a finite list of
eigenmodes (eigenvalue, multiplicity) over one or more circle components,
truncated at |lambda| <= lambda_max.  All norms are exact finite sums over
section support; there is no quadrature anywhere in this module.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Iterable, Optional, Union

import numpy as np

IDENTITY_TOL = 1e-12


class BasisMismatchError(ValueError):
    """Raised when two sections (or a section and an operator) disagree on the mode lattice."""


@dataclasses.dataclass(frozen=True)
class Interval:
    """A real interval with explicit endpoint openness; endpoints may be +-inf."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = False

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")

    def contains(self, x: float) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    @staticmethod
    def below(a: float) -> "Interval":
        """(-inf, a) — the default lower spectral half."""
        return Interval(-math.inf, a, False, False)

    @staticmethod
    def at_least(a: float) -> "Interval":
        """[a, inf) — the default upper spectral half."""
        return Interval(a, math.inf, True, False)


@dataclasses.dataclass(frozen=True)
class Mode:
    mode_id: int
    component_id: str
    eigenvalue: float
    fiber_dim: int

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ValueError("fiber_dim must be a positive integer")
        if not math.isfinite(self.eigenvalue):
            raise ValueError("eigenvalue must be finite")


class EigenmodeBasis:
    """Finite truncation of the spectral decomposition of the boundary operator A.

    ``pairings`` optionally records a mode involution (``doubled`` sets it for
    transmission conditions).  ``extend_fn`` regenerates the basis at a larger
    truncation; it says what the spectrum adds at 2N, and it is what makes
    truncation certificates possible.

    The spectrum is held as read-only per-mode arrays, sorted by (component,
    eigenvalue, id): ``mode_ids``, ``mode_components``, ``mode_eigenvalues``,
    ``mode_fibers`` and ``mode_offsets``.  ``modes`` may be ``Mode`` records or
    the tuple (ids, components, eigenvalues, fibers) of such arrays in any mode
    order.  Dense vectors over the basis list the fibers of the modes one after
    the other; ``coord_mode[i]`` is the position of the mode that coordinate i
    belongs to, and ``coord_eigenvalue[i]`` that mode's eigenvalue.  The
    ``modes`` property builds the ``Mode`` records on first use, for callers
    that want them; nothing in this package reads it.
    """

    def __init__(
        self,
        modes: Union[Iterable[Mode], tuple],
        band_limit: float,
        pairings: Optional[dict] = None,
        extend_fn: Optional[Callable[[int], "EigenmodeBasis"]] = None,
    ):
        if not (isinstance(modes, tuple) and modes and isinstance(modes[0], np.ndarray)):
            modes = [(m.mode_id, m.component_id, m.eigenvalue, m.fiber_dim) for m in modes]
            modes = list(zip(*modes))
        if not modes:
            raise ValueError("basis must contain at least one mode")
        ids, comps, eig, fibers = modes
        ids, comps = np.asarray(ids), np.asarray(comps, dtype=str)
        eig, fibers = np.asarray(eig, dtype=float), np.asarray(fibers)
        if np.any(fibers < 1):
            raise ValueError("fiber_dim must be a positive integer")
        if not np.all(np.isfinite(eig)):
            raise ValueError("eigenvalue must be finite")
        order = np.lexsort((ids, eig, comps))
        by_id = np.sort(ids)
        dup = by_id[1:][by_id[1:] == by_id[:-1]]
        if dup.size:
            raise ValueError(f"duplicate mode_id: {dup[0]}")
        self.band_limit = float(band_limit)
        self.lambda_max = float(np.max(np.abs(eig)))
        if not (0.0 <= self.band_limit < self.lambda_max):
            raise ValueError("band_limit must satisfy 0 <= band_limit < lambda_max")
        self.pairings = dict(pairings) if pairings else None
        self._extend_fn = extend_fn
        self.mode_ids = ids[order]
        self.mode_components = comps[order]
        self.mode_eigenvalues = eig[order]
        self.mode_fibers = fibers[order]
        ends = np.cumsum(self.mode_fibers)
        self.total_dim = int(ends[-1])
        self.mode_offsets = ends - self.mode_fibers
        self.coord_mode = np.repeat(np.arange(order.size), self.mode_fibers)
        self.coord_eigenvalue = np.repeat(self.mode_eigenvalues, self.mode_fibers)
        for arr in (self.mode_ids, self.mode_components, self.mode_eigenvalues, self.mode_fibers,
                    self.mode_offsets, self.coord_mode, self.coord_eigenvalue):
            arr.flags.writeable = False

    @functools.cached_property
    def modes(self) -> tuple:
        """The ``Mode`` records of the basis, in basis order."""
        return tuple(
            map(Mode, self.mode_ids.tolist(), self.mode_components.tolist(),
                self.mode_eigenvalues.tolist(), self.mode_fibers.tolist())
        )

    @functools.cached_property
    def _id_order(self) -> tuple:
        """(ids, positions): the mode ids in increasing order, and their positions."""
        order = np.argsort(self.mode_ids, kind="stable")
        return self.mode_ids[order], order

    def _positions(self, mode_ids) -> np.ndarray:
        """The positions of ``mode_ids`` in the basis; KeyError names the first missing id."""
        ids, order = self._id_order
        want = np.asarray(mode_ids).reshape(-1)
        at = np.minimum(np.searchsorted(ids, want), ids.size - 1)
        missing = ids[at] != want
        if missing.any():
            raise KeyError(want[missing][0].item())
        return order[at]

    def _pos(self, mode_id: int) -> int:
        """The position of one mode id in the basis; KeyError if it is missing."""
        ids, order = self._id_order
        i = ids.searchsorted(mode_id)
        if i < ids.size and ids[i] == mode_id:
            return order[i]
        raise KeyError(mode_id)

    def __contains__(self, mode_id: int) -> bool:
        return bool(np.any(self.mode_ids == mode_id))

    def eigenvalue(self, mode_id: int) -> float:
        return float(self.mode_eigenvalues[self._pos(mode_id)])

    def fiber_dim(self, mode_id: int) -> int:
        return int(self.mode_fibers[self._pos(mode_id)])

    def offset(self, mode_id: int) -> int:
        return int(self.mode_offsets[self._pos(mode_id)])

    def same_modes(self, other: "EigenmodeBasis") -> bool:
        """True if the two bases share the same mode lattice (ids and fiber dims).

        Eigenvalues may differ; coefficient-level operations only need the lattice.
        """
        if other is self:
            return True
        if self.mode_ids.size != other.mode_ids.size:
            return False
        (ids, p), (other_ids, q) = self._id_order, other._id_order
        return np.array_equal(ids, other_ids) and np.array_equal(
            self.mode_fibers[p], other.mode_fibers[q]
        )

    def negated(self) -> "EigenmodeBasis":
        """The same mode lattice with all eigenvalues negated (adapted operator -A)."""
        parent = self

        def extend(factor: int) -> "EigenmodeBasis":
            return parent.extended(factor).negated()

        ext = extend if self._extend_fn is not None else None
        spectrum = (self.mode_ids, self.mode_components, -self.mode_eigenvalues, self.mode_fibers)
        return EigenmodeBasis(spectrum, self.band_limit, pairings=self.pairings, extend_fn=ext)

    def with_eigenvalues(self, eig: dict) -> "EigenmodeBasis":
        """Replace eigenvalues mode-by-mode (no extension support)."""
        lam = np.array([eig[j] for j in self.mode_ids.tolist()], dtype=float)
        spectrum = (self.mode_ids, self.mode_components, lam, self.mode_fibers)
        return EigenmodeBasis(spectrum, self.band_limit, pairings=self.pairings)

    def extended(self, factor: int = 2) -> "EigenmodeBasis":
        """Regenerate the basis at ``factor`` times the truncation parameter."""
        if self._extend_fn is None:
            raise ValueError("basis carries no extension rule; cannot certify truncation")
        return self._extend_fn(factor)

    def cut_above(self, x: float) -> float:
        """A cut c with {lambda < c} = {lambda <= x} on this basis.

        Returns the midpoint between x and the smallest eigenvalue above x
        (or x + 1 if none), so the choice is deterministic and stays correct
        under basis extension as long as extension does not insert eigenvalues
        into the gap — true for all lattice families used here.
        """
        above = self.mode_eigenvalues[self.mode_eigenvalues > x]
        return 0.5 * (x + float(above.min())) if above.size else x + 1.0

    @staticmethod
    def lattice(
        n: int,
        shift: float = 0.0,
        fiber_dim: int = 1,
        band_limit: float = 2.0,
        component_id: str = "c0",
        spacing: float = 1.0,
    ) -> "EigenmodeBasis":
        """Spectrum spacing*Z + shift truncated to indices |j| <= n; mode_id = lattice index."""
        if n < 1:
            raise ValueError("lattice size must be >= 1")
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        ids = np.arange(-n, n + 1)

        def extend(factor: int) -> "EigenmodeBasis":
            return EigenmodeBasis.lattice(
                n * factor, shift, fiber_dim, band_limit, component_id, spacing
            )

        spectrum = (
            ids, np.full(ids.size, component_id), spacing * ids + shift, np.full(ids.size, fiber_dim)
        )
        return EigenmodeBasis(spectrum, band_limit, extend_fn=extend)

    def doubled(self) -> "EigenmodeBasis":
        """Two-copy doubling with eigenvalues negated on the second copy.

        Copy-1 mode ids are 2*id, copy-2 ids are 2*id + 1; ``pairings`` records
        the copy1 <-> copy2 involution used by transmission conditions.
        """
        ids = np.column_stack([2 * self.mode_ids, 2 * self.mode_ids + 1]).ravel()
        pairings = dict(zip(ids.tolist(), (ids ^ 1).tolist()))  # the two copies differ in bit 0
        parent = self

        def extend(factor: int) -> "EigenmodeBasis":
            return parent.extended(factor).doubled()

        ext = extend if self._extend_fn is not None else None
        copy = np.tile([".copy1", ".copy2"], self.mode_ids.size)
        spectrum = (
            ids,
            np.char.add(self.mode_components.repeat(2), copy),
            np.column_stack([self.mode_eigenvalues, -self.mode_eigenvalues]).ravel(),
            self.mode_fibers.repeat(2),
        )
        return EigenmodeBasis(spectrum, self.band_limit, pairings=pairings, extend_fn=ext)


class BoundarySection:
    """A finite Fourier series over an eigenmode basis (element of the dense test space)."""

    def __init__(self, basis: EigenmodeBasis, coeffs: Optional[dict] = None):
        self.basis = basis
        self.coeffs = {}
        if coeffs:
            for mode_id, vec in coeffs.items():
                try:
                    k = basis.mode_fibers[basis._pos(mode_id)]
                except KeyError:
                    raise BasisMismatchError(f"mode_id {mode_id} not in basis") from None
                arr = np.asarray(vec, dtype=complex).reshape(-1)
                if arr.shape[0] != k:
                    raise BasisMismatchError(
                        f"coefficient length {arr.shape[0]} != fiber_dim for mode {mode_id}"
                    )
                if np.any(arr != 0):
                    self.coeffs[mode_id] = arr.copy()

    @staticmethod
    def zero(basis: EigenmodeBasis) -> "BoundarySection":
        return BoundarySection(basis)

    @staticmethod
    def unit(basis: EigenmodeBasis, mode_id: int, fiber_index: int = 0) -> "BoundarySection":
        vec = np.zeros(basis.fiber_dim(mode_id), dtype=complex)
        vec[fiber_index] = 1.0
        return BoundarySection(basis, {mode_id: vec})

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def copy(self) -> "BoundarySection":
        return BoundarySection(self.basis, self.coeffs)

    def coeff(self, mode_id: int) -> np.ndarray:
        if mode_id in self.coeffs:
            return self.coeffs[mode_id]
        return np.zeros(self.basis.fiber_dim(mode_id), dtype=complex)

    def __add__(self, other: "BoundarySection") -> "BoundarySection":
        if not self.basis.same_modes(other.basis):
            raise BasisMismatchError("sections over different mode lattices")
        out = dict(self.coeffs)
        for mid, vec in other.coeffs.items():
            out[mid] = out.get(mid, 0) + vec
        return BoundarySection(self.basis, out)

    def __sub__(self, other: "BoundarySection") -> "BoundarySection":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "BoundarySection":
        return BoundarySection(self.basis, {m: c * v for m, v in self.coeffs.items()})

    def to_dense(self, basis: Optional[EigenmodeBasis] = None) -> np.ndarray:
        basis = basis or self.basis
        out = np.zeros(basis.total_dim, dtype=complex)
        for mid, vec in self.coeffs.items():
            off = basis.offset(mid)
            out[off : off + vec.shape[0]] = vec
        return out

    @staticmethod
    def from_dense(basis: EigenmodeBasis, vec: np.ndarray) -> "BoundarySection":
        vec = np.asarray(vec, dtype=complex)[: basis.total_dim]
        coeffs = {}
        # np.unique sorts the mode positions, so the coefficients come in basis order
        pos = np.unique(basis.coord_mode[np.flatnonzero(vec)])
        for mid, off, k in zip(
            basis.mode_ids[pos].tolist(), basis.mode_offsets[pos].tolist(),
            basis.mode_fibers[pos].tolist(),
        ):
            coeffs[mid] = vec[off : off + k]
        return BoundarySection(basis, coeffs)

    def on_basis(self, basis: EigenmodeBasis) -> "BoundarySection":
        """Reinterpret the same coefficients over another basis with the same lattice."""
        if not self.basis.same_modes(basis):
            raise BasisMismatchError("cannot move section to a different mode lattice")
        return BoundarySection(basis, self.coeffs)


def _stacks_by_shape(arrays: list) -> list:
    """Group equal-shape arrays: (positions in ``arrays``, the stacked arrays) per shape."""
    groups: dict = {}
    for i, a in enumerate(arrays):
        groups.setdefault(a.shape, []).append(i)
    return [(np.array(pos), np.array([arrays[i] for i in pos])) for pos in groups.values()]


class SigmaZero:
    """The boundary symbol sigma_0, mode-block and t-independent.

    ``targets`` is a mode bijection tau: sigma_0 maps the fiber of mode j into
    the fiber of mode tau(j) with the invertible block ``blocks[j]``.  The
    identity bijection is the ordinary per-mode case; the chiral setups use the
    (+lambda <-> -lambda) pairing.  Blocks must be conformal (unitary times one
    positive scale shared across modes), which keeps adjoint boundary
    conditions in canonical mode-aligned graph form.
    """

    def __init__(
        self,
        basis: EigenmodeBasis,
        blocks: dict,
        targets: Optional[dict] = None,
        skew_unitary: bool = False,
    ):
        self.basis = basis
        ids, fibers = basis.mode_ids.tolist(), basis.mode_fibers.tolist()
        self.targets = dict(zip(ids, ids))
        if targets:
            self.targets.update(targets)
        if sorted(self.targets) != sorted(set(self.targets.values())):
            raise ValueError("sigma_0 targets must form a mode bijection")
        self.sources = {t: s for s, t in self.targets.items()}
        self.blocks = {}
        # Blocks are read in basis order up to the first missing or misshapen
        # one; the checks on their values then run batched over blocks of one
        # shape.  Either way the first failing mode in basis order is reported.
        pending = None
        fiber = dict(zip(ids, fibers))
        for mid, k in zip(ids, fibers):
            if mid not in blocks:
                pending = f"missing sigma_0 block for mode {mid}"
                break
            S = np.asarray(blocks[mid], dtype=complex)
            if S.ndim == 0:
                S = S.reshape(1, 1)
            if S.shape != (fiber[self.targets[mid]], k):
                pending = f"sigma_0 block shape mismatch at mode {mid}"
                break
            self.blocks[mid] = S
        # A non-finite block is "not conformal" at its mode.  It is zeroed before
        # the arithmetic, and every test below is written as "passes", so that
        # NaN, which fails every comparison, fails it.
        read = list(self.blocks.values())
        c2 = np.empty(len(read))
        not_conformal = np.zeros(len(read), dtype=bool)
        for pos, stack in _stacks_by_shape(read):
            k = stack.shape[2]
            finite = np.isfinite(stack).all(axis=(1, 2))
            stack = np.where(finite[:, None, None], stack, 0)
            gram = stack.conj().transpose(0, 2, 1) @ stack
            c = np.real(np.trace(gram, axis1=1, axis2=2)) / k
            dev = np.max(np.abs(gram - c[:, None, None] * np.eye(k)), axis=(1, 2))
            c2[pos] = c
            not_conformal[pos] = ~(finite & (c > 0) & (dev <= 1e-10 * np.maximum(c, 1.0)))
        if read:
            scale = float(c2[0])
            off_scale = ~(np.abs(c2 - scale) <= 1e-10 * max(scale, 1.0))
            bad = np.flatnonzero(not_conformal | off_scale)
            if bad.size:
                i = int(bad[0])
                if not_conformal[i]:
                    mid = basis.mode_ids[i]
                    raise ValueError(f"sigma_0 block at mode {mid} is not conformal")
                raise ValueError("sigma_0 blocks must share one conformal scale")
        if pending:
            raise ValueError(pending)
        self.scale = math.sqrt(scale)
        self.skew_unitary = bool(skew_unitary)
        if skew_unitary:
            self._check_skew_unitary()

    def _check_skew_unitary(self):
        if not abs(self.scale - 1.0) <= IDENTITY_TOL:
            raise ValueError("skew-unitary sigma_0 must be unitary")
        ids = list(self.blocks)
        partners = [self.targets[j] for j in ids]
        involutive = np.array([self.targets[t] == j for j, t in zip(ids, partners)])
        # sigma_0^* = -sigma_0 as operators: block of sigma_0^* from t to j is S^*,
        # block of -sigma_0 from t to j is -blocks[t].
        not_skew = np.zeros(len(ids), dtype=bool)
        for pos, stack in _stacks_by_shape(list(self.blocks.values())):
            keep = involutive[pos]
            pos = pos[keep]
            if not pos.size:
                continue
            partner_blocks = np.array([self.blocks[partners[i]] for i in pos])
            resid = np.max(
                np.abs(stack[keep].conj().transpose(0, 2, 1) + partner_blocks), axis=(1, 2)
            )
            not_skew[pos] = ~(resid <= IDENTITY_TOL)
        bad = np.flatnonzero(~involutive | not_skew)
        if bad.size:
            i = int(bad[0])
            if not involutive[i]:
                raise ValueError("skew-unitary sigma_0 requires an involutive mode pairing")
            raise ValueError(f"sigma_0^* != -sigma_0 at mode {ids[i]}")

    @staticmethod
    def _derived(
        basis: EigenmodeBasis,
        blocks: dict,
        targets: dict,
        scale: float,
        skew_unitary: bool,
    ) -> "SigmaZero":
        """A sigma_0 whose blocks a validated one gives, up to sign or adjoint,
        or that ``scalar`` builds in closed form.

        ``on_basis``, ``negated_boundary`` and ``adjoint_sigma`` keep the mode
        lattice, the conformal scale and skew-unitarity, so the checks of
        ``__init__`` would only repeat.  This copies the dicts in basis order,
        as ``__init__`` stores them, and checks nothing.
        """
        out = object.__new__(SigmaZero)
        out.basis = basis
        ids = basis.mode_ids.tolist()
        out.targets = {j: targets[j] for j in ids}
        out.sources = {t: s for s, t in out.targets.items()}
        out.blocks = {j: blocks[j] for j in ids}
        out.scale = scale
        out.skew_unitary = skew_unitary
        return out

    @staticmethod
    def scalar(basis: EigenmodeBasis, value: complex) -> "SigmaZero":
        """value times the identity on every fiber, built in closed form.

        The value is checked once, with the message ``__init__`` gives for a
        zero or non-finite block at the first mode.  Modes of one fiber
        dimension share one read-only block; the scale is |value|, and the
        symbol is skew-unitary when value is i or -i to IDENTITY_TOL.
        """
        value = complex(value)
        c = value.real**2 + value.imag**2
        if not (math.isfinite(c) and c > 0):
            raise ValueError(f"sigma_0 block at mode {basis.mode_ids[0]} is not conformal")
        shared: dict = {}
        for k in np.unique(basis.mode_fibers).tolist():
            shared[k] = value * np.eye(k)
            shared[k].flags.writeable = False
        ids = basis.mode_ids.tolist()
        blocks = dict(zip(ids, map(shared.__getitem__, basis.mode_fibers.tolist())))
        skew = abs(c - 1.0) < IDENTITY_TOL and abs(2.0 * value.real) <= IDENTITY_TOL
        return SigmaZero._derived(basis, blocks, dict(zip(ids, ids)), abs(value), skew)

    def tau(self, mode_id: int) -> int:
        return self.targets[mode_id]

    def tau_inv(self, mode_id: int) -> int:
        return self.sources[mode_id]

    def _map(self, phi: BoundarySection, block_of, target_of) -> BoundarySection:
        out = {}
        for mid, vec in phi.coeffs.items():
            t = target_of(mid)
            out[t] = out.get(t, 0) + block_of(mid) @ vec
        return BoundarySection(phi.basis, out)

    def apply(self, phi: BoundarySection) -> BoundarySection:
        if not self.basis.same_modes(phi.basis):
            raise BasisMismatchError("sigma_0 and section disagree on mode lattice")
        return self._map(phi, lambda j: self.blocks[j], self.tau)

    def inv_apply(self, phi: BoundarySection) -> BoundarySection:
        if not self.basis.same_modes(phi.basis):
            raise BasisMismatchError("sigma_0 and section disagree on mode lattice")
        return self._map(
            phi,
            lambda m: np.linalg.inv(self.blocks[self.tau_inv(m)]),
            self.tau_inv,
        )

    def star_apply(self, phi: BoundarySection) -> BoundarySection:
        """Apply sigma_0^* (moves mode tau(j) content to mode j with block S_j^*)."""
        return self._map(
            phi,
            lambda m: self.blocks[self.tau_inv(m)].conj().T,
            self.tau_inv,
        )

    def star_inv_apply(self, phi: BoundarySection) -> BoundarySection:
        """Apply (sigma_0^*)^{-1} = (sigma_0^{-1})^* (moves mode j to tau(j))."""
        return self._map(
            phi,
            lambda j: np.linalg.inv(self.blocks[j].conj().T),
            self.tau,
        )

    def eigen_negating(self) -> bool:
        """True if tau sends each mode to one with the negated eigenvalue."""
        b, lam = self.basis, self.basis.mode_eigenvalues
        j, t = b._positions(list(self.targets)), b._positions(list(self.targets.values()))
        return bool(np.all(np.abs(lam[t] + lam[j]) <= IDENTITY_TOL))

    def adjoint_basis(self) -> EigenmodeBasis:
        """The eigenmode basis of the adapted operator on the adjoint side.

        A-tilde = -(sigma_0^*)^{-1} A sigma_0^* is mode-diagonal with eigenvalue
        -lambda_{tau^{-1}(m)} on mode m.
        """
        b = self.basis
        lam = -b.mode_eigenvalues[b._positions(list(self.sources.values()))]
        return b.with_eigenvalues(dict(zip(self.sources, lam.tolist())))

    def adjoint_sigma(self) -> "SigmaZero":
        """-sigma_0^*, the boundary symbol of the adjoint model operator."""
        blocks = {m: -self.blocks[s].conj().T for m, s in self.sources.items()}
        return SigmaZero._derived(
            self.adjoint_basis(), blocks, self.sources, self.scale, self.skew_unitary
        )

    def on_basis(self, basis: EigenmodeBasis) -> "SigmaZero":
        """The same coefficient-level map, reinterpreted over another lattice-equal basis."""
        if basis is self.basis:
            return self
        if not self.basis.same_modes(basis):
            raise BasisMismatchError("sigma_0 cannot move to a different mode lattice")
        return SigmaZero._derived(basis, self.blocks, self.targets, self.scale, self.skew_unitary)

    def negated_boundary(self) -> "SigmaZero":
        """-sigma_0 over the negated basis: the boundary symbol at the far cylinder end."""
        blocks = {j: -S for j, S in self.blocks.items()}
        return SigmaZero._derived(
            self.basis.negated(), blocks, self.targets, self.scale, self.skew_unitary
        )


def sobolev_norm(phi: BoundarySection, s: float) -> float:
    """H^s norm: (sum |a_j|^2 (1 + lambda_j^2)^s)^{1/2}, exact over the support."""
    total = 0.0
    for mid, vec in phi.coeffs.items():
        lam = phi.basis.eigenvalue(mid)
        total += float(np.sum(np.abs(vec) ** 2)) * (1.0 + lam * lam) ** s
    return math.sqrt(total)


def project(phi: BoundarySection, interval: Interval) -> BoundarySection:
    """Spectral projection Q_I: keep modes with eigenvalue in I."""
    return BoundarySection(
        phi.basis,
        {m: v for m, v in phi.coeffs.items() if interval.contains(phi.basis.eigenvalue(m))},
    )


def check_norm(phi: BoundarySection, cut: float) -> float:
    """The hybrid norm mixing H^{1/2} below the cut with H^{-1/2} above it."""
    low = project(phi, Interval(-math.inf, cut, False, True))
    high = project(phi, Interval(cut, math.inf, False, False))
    return math.sqrt(sobolev_norm(low, 0.5) ** 2 + sobolev_norm(high, -0.5) ** 2)


def hat_norm(phi: BoundarySection, cut: float) -> float:
    """The dual hybrid norm: exponents of ``check_norm`` swapped."""
    low = project(phi, Interval(-math.inf, cut, False, True))
    high = project(phi, Interval(cut, math.inf, False, False))
    return math.sqrt(sobolev_norm(low, -0.5) ** 2 + sobolev_norm(high, 0.5) ** 2)


def l2_pairing(phi: BoundarySection, psi: BoundarySection) -> complex:
    """The L^2 product sum_j a_j conj(b_j), blockwise over shared modes."""
    if not phi.basis.same_modes(psi.basis):
        raise BasisMismatchError("l2_pairing requires sections over the same mode lattice")
    total = 0.0 + 0.0j
    for mid, vec in phi.coeffs.items():
        if mid in psi.coeffs:
            total += complex(np.sum(vec * np.conj(psi.coeffs[mid])))
    return total


def beta_pairing(phi: BoundarySection, psi: BoundarySection, sigma0: SigmaZero) -> complex:
    """beta(phi, psi) = -(sigma_0 phi, psi), the trace pairing of Green's formula."""
    return -l2_pairing(sigma0.apply(phi), psi.on_basis(sigma0.basis))


def random_section(
    basis: EigenmodeBasis,
    rng: np.random.Generator,
    max_abs_eigenvalue: Optional[float] = None,
    n_modes: int = 6,
) -> BoundarySection:
    """A seeded random finite section, optionally band-restricted."""
    bound = math.inf if max_abs_eigenvalue is None else max_abs_eigenvalue
    pool = np.flatnonzero(np.abs(basis.mode_eigenvalues) <= bound)
    if not pool.size:
        raise ValueError("no modes available for sampling")
    chosen = rng.choice(pool.size, size=min(n_modes, pool.size), replace=False)
    coeffs = {}
    for pos in pool[np.atleast_1d(chosen)].tolist():
        k = int(basis.mode_fibers[pos])
        coeffs[int(basis.mode_ids[pos])] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return BoundarySection(basis, coeffs)


def norm_equivalence_probe(samples: list, cut1: float, cut2: float) -> dict:
    """Empirical equivalence constants between the hybrid norms for two cut points.

    Returns min/max of check_norm(., cut1) / check_norm(., cut2) over the
    nonzero samples.
    """
    if cut1 >= cut2:
        raise ValueError("probe requires cut1 < cut2")
    ratios = []
    for phi in samples:
        n2 = check_norm(phi, cut2)
        if n2 == 0.0:
            continue
        ratios.append(check_norm(phi, cut1) / n2)
    if not ratios:
        raise ValueError("probe needs at least one nonzero sample")
    return {
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "count": len(ratios),
    }
