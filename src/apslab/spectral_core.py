"""Eigenmode model of the boundary: sections, Sobolev/hybrid norms, projections, pairings.

The boundary operator A is given purely by spectral data: a finite list of
eigenmodes (eigenvalue, multiplicity) over one or more circle components,
truncated at |lambda| <= lambda_max.  All norms are exact finite sums over
section support; there is no quadrature anywhere in this module.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterable, Optional

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

    Dense vectors over the basis list the fibers of ``modes`` one after the
    other.  Two read-only arrays of length ``total_dim``, built once per basis,
    describe those coordinates: ``coord_mode[i]`` is the position in ``modes``
    of the mode that coordinate i belongs to, and ``coord_eigenvalue[i]`` is
    that mode's eigenvalue.  Two more, one entry per mode in the order of
    ``modes``, hold ``mode_ids`` and ``mode_offsets``.  Dense-vector code uses
    them instead of walking the modes.
    """

    def __init__(
        self,
        modes: Iterable[Mode],
        band_limit: float,
        pairings: Optional[dict] = None,
        extend_fn: Optional[Callable[[int], "EigenmodeBasis"]] = None,
    ):
        modes = sorted(modes, key=lambda m: (m.component_id, m.eigenvalue, m.mode_id))
        if not modes:
            raise ValueError("basis must contain at least one mode")
        ids = [m.mode_id for m in modes]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate mode_id: {dup[0]}")
        self.modes = tuple(modes)
        self.band_limit = float(band_limit)
        self.lambda_max = max(abs(m.eigenvalue) for m in modes)
        if not (0.0 <= self.band_limit < self.lambda_max):
            raise ValueError("band_limit must satisfy 0 <= band_limit < lambda_max")
        self.pairings = dict(pairings) if pairings else None
        self._extend_fn = extend_fn
        self._by_id = {m.mode_id: m for m in self.modes}
        offsets = {}
        pos = 0
        for m in self.modes:
            offsets[m.mode_id] = pos
            pos += m.fiber_dim
        self._offsets = offsets
        self.total_dim = pos
        fibers = [m.fiber_dim for m in self.modes]
        self.coord_mode = np.repeat(np.arange(len(self.modes)), fibers)
        self.coord_eigenvalue = np.repeat([float(m.eigenvalue) for m in self.modes], fibers)
        self.mode_ids = np.array(ids)
        self.mode_offsets = np.array(list(offsets.values()), dtype=int)
        for arr in (self.coord_mode, self.coord_eigenvalue, self.mode_ids, self.mode_offsets):
            arr.flags.writeable = False
        self.components = tuple(sorted({m.component_id for m in self.modes}))

    def __contains__(self, mode_id: int) -> bool:
        return mode_id in self._by_id

    def eigenvalue(self, mode_id: int) -> float:
        return self._by_id[mode_id].eigenvalue

    def fiber_dim(self, mode_id: int) -> int:
        return self._by_id[mode_id].fiber_dim

    def offset(self, mode_id: int) -> int:
        return self._offsets[mode_id]

    def same_modes(self, other: "EigenmodeBasis") -> bool:
        """True if the two bases share the same mode lattice (ids and fiber dims).

        Eigenvalues may differ; coefficient-level operations only need the lattice.
        """
        if other is self:
            return True
        if len(self.modes) != len(other.modes):
            return False
        return all(
            m.mode_id in other._by_id and other._by_id[m.mode_id].fiber_dim == m.fiber_dim
            for m in self.modes
        )

    def negated(self) -> "EigenmodeBasis":
        """The same mode lattice with all eigenvalues negated (adapted operator -A)."""
        modes = [Mode(m.mode_id, m.component_id, -m.eigenvalue, m.fiber_dim) for m in self.modes]
        parent = self

        def extend(factor: int) -> "EigenmodeBasis":
            return parent.extended(factor).negated()

        ext = extend if self._extend_fn is not None else None
        return EigenmodeBasis(modes, self.band_limit, pairings=self.pairings, extend_fn=ext)

    def with_eigenvalues(self, eig: dict) -> "EigenmodeBasis":
        """Replace eigenvalues mode-by-mode (no extension support)."""
        modes = [
            Mode(m.mode_id, m.component_id, float(eig[m.mode_id]), m.fiber_dim) for m in self.modes
        ]
        return EigenmodeBasis(modes, self.band_limit, pairings=self.pairings)

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
        above = [m.eigenvalue for m in self.modes if m.eigenvalue > x]
        return 0.5 * (x + min(above)) if above else x + 1.0

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
        modes = [
            Mode(
                mode_id=j,
                component_id=component_id,
                eigenvalue=spacing * j + shift,
                fiber_dim=fiber_dim,
            )
            for j in range(-n, n + 1)
        ]

        def extend(factor: int) -> "EigenmodeBasis":
            return EigenmodeBasis.lattice(
                n * factor, shift, fiber_dim, band_limit, component_id, spacing
            )

        return EigenmodeBasis(modes, band_limit, extend_fn=extend)

    def doubled(self) -> "EigenmodeBasis":
        """Two-copy doubling with eigenvalues negated on the second copy.

        Copy-1 mode ids are 2*id, copy-2 ids are 2*id + 1; ``pairings`` records
        the copy1 <-> copy2 involution used by transmission conditions.
        """
        modes = []
        pairings = {}
        for m in self.modes:
            i1, i2 = 2 * m.mode_id, 2 * m.mode_id + 1
            modes.append(
                Mode(i1, m.component_id + ".copy1", m.eigenvalue, m.fiber_dim)
            )
            modes.append(
                Mode(i2, m.component_id + ".copy2", -m.eigenvalue, m.fiber_dim)
            )
            pairings[i1] = i2
            pairings[i2] = i1
        parent = self

        def extend(factor: int) -> "EigenmodeBasis":
            return parent.extended(factor).doubled()

        ext = extend if self._extend_fn is not None else None
        return EigenmodeBasis(modes, self.band_limit, pairings=pairings, extend_fn=ext)


class BoundarySection:
    """A finite Fourier series over an eigenmode basis (element of the dense test space)."""

    def __init__(self, basis: EigenmodeBasis, coeffs: Optional[dict] = None):
        self.basis = basis
        self.coeffs = {}
        if coeffs:
            for mode_id, vec in coeffs.items():
                if mode_id not in basis:
                    raise BasisMismatchError(f"mode_id {mode_id} not in basis")
                arr = np.asarray(vec, dtype=complex).reshape(-1)
                if arr.shape[0] != basis.fiber_dim(mode_id):
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
        for pos in np.unique(basis.coord_mode[np.flatnonzero(vec)]).tolist():
            m = basis.modes[pos]
            off = basis.offset(m.mode_id)
            coeffs[m.mode_id] = vec[off : off + m.fiber_dim]
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
        self.targets = {m.mode_id: m.mode_id for m in basis.modes}
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
        for m in basis.modes:
            if m.mode_id not in blocks:
                pending = f"missing sigma_0 block for mode {m.mode_id}"
                break
            S = np.asarray(blocks[m.mode_id], dtype=complex)
            if S.ndim == 0:
                S = S.reshape(1, 1)
            kt = basis.fiber_dim(self.targets[m.mode_id])
            if S.shape != (kt, m.fiber_dim):
                pending = f"sigma_0 block shape mismatch at mode {m.mode_id}"
                break
            self.blocks[m.mode_id] = S
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
                    mid = basis.modes[i].mode_id
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
        out.targets = {m.mode_id: targets[m.mode_id] for m in basis.modes}
        out.sources = {t: s for s, t in out.targets.items()}
        out.blocks = {m.mode_id: blocks[m.mode_id] for m in basis.modes}
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
            raise ValueError(f"sigma_0 block at mode {basis.modes[0].mode_id} is not conformal")
        shared: dict = {}
        for k in {m.fiber_dim for m in basis.modes}:
            shared[k] = value * np.eye(k)
            shared[k].flags.writeable = False
        blocks = {m.mode_id: shared[m.fiber_dim] for m in basis.modes}
        skew = abs(c - 1.0) < IDENTITY_TOL and abs(2.0 * value.real) <= IDENTITY_TOL
        return SigmaZero._derived(
            basis,
            blocks,
            {m.mode_id: m.mode_id for m in basis.modes},
            abs(value),
            skew,
        )

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
        return all(
            abs(self.basis.eigenvalue(self.tau(j)) + self.basis.eigenvalue(j)) <= IDENTITY_TOL
            for j in self.targets
        )

    def adjoint_basis(self) -> EigenmodeBasis:
        """The eigenmode basis of the adapted operator on the adjoint side.

        A-tilde = -(sigma_0^*)^{-1} A sigma_0^* is mode-diagonal with eigenvalue
        -lambda_{tau^{-1}(m)} on mode m.
        """
        eig = {m: -self.basis.eigenvalue(self.tau_inv(m)) for m in self.targets}
        return self.basis.with_eigenvalues(eig)

    def adjoint_sigma(self) -> "SigmaZero":
        """-sigma_0^*, the boundary symbol of the adjoint model operator."""
        blocks = {m: -self.blocks[s].conj().T for m, s in self.sources.items()}
        return SigmaZero._derived(
            self.adjoint_basis(), blocks, self.sources, self.scale, self.skew_unitary
        )

    def on_basis(self, basis: EigenmodeBasis) -> "SigmaZero":
        """The same coefficient-level map, reinterpreted over another lattice-equal basis."""
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
    pool = [
        m
        for m in basis.modes
        if max_abs_eigenvalue is None or abs(m.eigenvalue) <= max_abs_eigenvalue
    ]
    if not pool:
        raise ValueError("no modes available for sampling")
    chosen = rng.choice(len(pool), size=min(n_modes, len(pool)), replace=False)
    coeffs = {}
    for idx in np.atleast_1d(chosen):
        m = pool[int(idx)]
        vec = rng.standard_normal(m.fiber_dim) + 1j * rng.standard_normal(m.fiber_dim)
        coeffs[m.mode_id] = vec
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
