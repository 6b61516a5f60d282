"""The array-backed mode lookups against the per-mode loops they replaced.

``EigenmodeBasis`` carries two coordinate arrays (mode position and
eigenvalue per dense coordinate).  ``BoundarySection.from_dense``, the side
masks and span matrices of ``BoundaryCondition`` and the validation in
``SigmaZero`` work on those arrays and on batched blocks.  The ``reference_*``
functions below are the former per-mode loops, kept here as oracles.
"""

import math

import numpy as np
import pytest

import dense_oracle
from apslab.boundary_conditions import (
    RANK_TOL,
    _coords_in,
    make_chiral,
    make_generalized_aps,
    make_transmission,
    seeded_graph_condition,
)
from apslab.cylinder_solver import CylinderProblem, SolverError
from apslab.index_calculus import chiral_block_basis
from apslab.spectral_core import (
    IDENTITY_TOL,
    BoundarySection,
    EigenmodeBasis,
    Mode,
    SigmaZero,
)

PROJECTOR_TOL = 1e-12


# -- reference loops -----------------------------------------------------------

def reference_from_dense(basis, vec):
    coeffs = {}
    for m in basis.modes:
        off = basis.offset(m.mode_id)
        block = np.asarray(vec[off : off + m.fiber_dim], dtype=complex)
        if np.any(block != 0):
            coeffs[m.mode_id] = block
    return BoundarySection(basis, coeffs)


def reference_side_mask(B, lower):
    mask = np.zeros(B.basis.total_dim, dtype=bool)
    for m in B.basis.modes:
        if (m.eigenvalue < B.cut) == lower:
            off = B.basis.offset(m.mode_id)
            mask[off : off + m.fiber_dim] = True
    return mask


def reference_span(B, perp):
    """span_matrix (perp=False) or perp_span_matrix (perp=True), one column at a time."""
    D = B.basis.total_dim
    side = reference_side_mask(B, lower=not perp)
    W = B.w_all()
    G = dense_oracle.mode_map_dense(B.g) if not B.g.is_zero() else None
    cols = []
    eye = np.eye(D, dtype=complex)
    for i in np.nonzero(side)[0]:
        v = eye[:, i].copy()
        if W.size:
            v = v - W @ (W.conj().T @ v)
        if float(np.linalg.norm(v)) < RANK_TOL:
            continue
        if G is not None:
            v = v - G.conj().T @ v if perp else v + G @ v
        cols.append(v)
    family = B.w_minus if perp else B.w_plus
    if family.size:
        cols.extend(family[:, i] for i in range(family.shape[1]))
    return dense_oracle.orthonormalize(cols)


def reference_sigma_error(basis, blocks, targets=None, skew_unitary=False):
    """The message SigmaZero raised with per-mode validation, or None."""
    tg = {m.mode_id: m.mode_id for m in basis.modes}
    if targets:
        tg.update(targets)
    if sorted(tg) != sorted(set(tg.values())):
        return "sigma_0 targets must form a mode bijection"
    checked = {}
    scale = None
    for m in basis.modes:
        if m.mode_id not in blocks:
            return f"missing sigma_0 block for mode {m.mode_id}"
        S = np.asarray(blocks[m.mode_id], dtype=complex)
        if S.ndim == 0:
            S = S.reshape(1, 1)
        if S.shape != (basis.fiber_dim(tg[m.mode_id]), m.fiber_dim):
            return f"sigma_0 block shape mismatch at mode {m.mode_id}"
        gram = S.conj().T @ S
        c2 = float(np.real(np.trace(gram)) / m.fiber_dim)
        if c2 <= 0 or np.max(np.abs(gram - c2 * np.eye(m.fiber_dim))) > 1e-10 * max(c2, 1.0):
            return f"sigma_0 block at mode {m.mode_id} is not conformal"
        if scale is None:
            scale = c2
        elif abs(c2 - scale) > 1e-10 * max(scale, 1.0):
            return "sigma_0 blocks must share one conformal scale"
        checked[m.mode_id] = S
    if skew_unitary:
        if abs(math.sqrt(scale) - 1.0) > IDENTITY_TOL:
            return "skew-unitary sigma_0 must be unitary"
        for j, S in checked.items():
            t = tg[j]
            if tg[t] != j:
                return "skew-unitary sigma_0 requires an involutive mode pairing"
            if np.max(np.abs(S.conj().T + checked[t])) > IDENTITY_TOL:
                return f"sigma_0^* != -sigma_0 at mode {j}"
    return None


# -- bases and conditions --------------------------------------------------------

def mixed_basis():
    """Two components, fiber dims 1..3, unsorted input order."""
    modes = []
    for j in range(-5, 6):
        modes.append(Mode(j, "c0", 0.7 * j + 0.1, 1 + (j % 3)))
        modes.append(Mode(100 + j, "c1", -0.4 * j, 1 + ((j + 1) % 2)))
    return EigenmodeBasis(modes[::-1], band_limit=2.5)


def chiral_basis():
    vals = {j: (0.0 if j % 3 == 0 else 0.5 + 0.25 * abs(j)) for j in range(-6, 7)}
    return chiral_block_basis(3, lambda j: vals[j], band_limit=0.8)


BASES = {
    "mixed_fiber": mixed_basis,
    "doubled": lambda: EigenmodeBasis.lattice(5, shift=0.25, fiber_dim=2, band_limit=3.0).doubled(),
    "doubled_mixed": lambda: mixed_basis().doubled(),
    "chiral_block": lambda: chiral_basis()[0],
    "negated_lattice": lambda: EigenmodeBasis.lattice(6, shift=0.3, band_limit=3.0).negated(),
}


def negating_sigma(basis):
    blocks = {m.mode_id: np.array([[1j]]) for m in basis.modes}
    return SigmaZero(
        basis, blocks, targets={m.mode_id: -m.mode_id for m in basis.modes}, skew_unitary=True
    )


def conditions():
    rng = np.random.default_rng(2024)
    lat = EigenmodeBasis.lattice(8, shift=0.3, band_limit=5.0)
    fib = EigenmodeBasis.lattice(5, shift=-0.2, fiber_dim=2, band_limit=3.0)
    mixed = mixed_basis()
    plain = EigenmodeBasis.lattice(5, band_limit=2.0)
    cb, csigma = chiral_basis()
    doubled_fib = EigenmodeBasis.lattice(4, fiber_dim=2, band_limit=2.0).doubled()
    return {
        "aps": make_generalized_aps(lat, 0.8),
        "aps_mixed": make_generalized_aps(mixed, 0.05),
        "graph": seeded_graph_condition(lat, rng, cut=0.8, dim_w_plus=2, dim_w_minus=1, g_norm=0.7),
        "graph_fiber2": seeded_graph_condition(fib, rng, cut=0.3, g_norm=1.3),
        "graph_mixed": seeded_graph_condition(mixed, rng, cut=0.05, dim_w_plus=2, g_norm=0.9),
        "graph_negated": seeded_graph_condition(lat.negated(), rng, cut=-0.2, dim_w_minus=2),
        "graph_no_w": seeded_graph_condition(lat, rng, cut=0.0, dim_w_plus=0, dim_w_minus=0),
        "chiral_plus": make_chiral(plain, negating_sigma(plain), sign=1),
        "chiral_minus": make_chiral(plain, negating_sigma(plain), sign=-1),
        "chiral_block": make_chiral(cb, csigma, sign=1),
        "transmission": make_transmission(plain.doubled()),
        "transmission_fiber2": make_transmission(doubled_fib),
    }


CONDITIONS = conditions()


# -- coordinate arrays and from_dense ----------------------------------------------

@pytest.mark.parametrize("name", sorted(BASES))
def test_coordinate_arrays_follow_the_modes(name):
    basis = BASES[name]()
    assert basis.coord_mode.shape == basis.coord_eigenvalue.shape == (basis.total_dim,)
    for pos, m in enumerate(basis.modes):
        off = basis.offset(m.mode_id)
        assert np.all(basis.coord_mode[off : off + m.fiber_dim] == pos)
        assert np.all(basis.coord_eigenvalue[off : off + m.fiber_dim] == m.eigenvalue)
    with pytest.raises(ValueError):
        basis.coord_mode[0] = 1


def dense_vectors(basis, rng):
    D = basis.total_dim
    yield np.zeros(D, dtype=complex)
    yield rng.standard_normal(D) + 1j * rng.standard_normal(D)
    for k in (1, 2, 5):
        v = np.zeros(D, dtype=complex)
        idx = rng.choice(D, size=k, replace=False)
        v[idx] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        yield v
    real = np.zeros(D)
    real[rng.choice(D, size=3, replace=False)] = 1.0
    yield real
    # one coordinate of a multi-fiber mode: the whole fiber must be kept
    wide = [m for m in basis.modes if m.fiber_dim > 1]
    if wide:
        m = wide[len(wide) // 2]
        v = np.zeros(D, dtype=complex)
        v[basis.offset(m.mode_id) + m.fiber_dim - 1] = 2.0 - 1j
        yield v


@pytest.mark.parametrize("name", sorted(BASES))
def test_from_dense_matches_the_mode_loop(name):
    basis = BASES[name]()
    rng = np.random.default_rng(len(name))
    for vec in dense_vectors(basis, rng):
        got = BoundarySection.from_dense(basis, vec)
        want = reference_from_dense(basis, vec)
        assert list(got.coeffs) == list(want.coeffs)  # same keys, in basis order
        for mid in want.coeffs:
            assert np.array_equal(got.coeffs[mid], want.coeffs[mid])
        assert np.array_equal(got.to_dense(), np.asarray(vec, dtype=complex))


def test_from_dense_of_condition_columns():
    for name, B in CONDITIONS.items():
        for M in (B.w_all(), B.span_matrix().dense(), B.perp_span_matrix().dense()):
            for i in range(M.shape[1] if M.size else 0):
                got = BoundarySection.from_dense(B.basis, M[:, i])
                want = reference_from_dense(B.basis, M[:, i])
                assert list(got.coeffs) == list(want.coeffs), name
                assert all(np.array_equal(got.coeffs[k], want.coeffs[k]) for k in want.coeffs)


# -- side masks and span matrices ---------------------------------------------------

def projector(Q):
    if not Q.size:
        return 0.0
    return Q @ Q.conj().T


@pytest.mark.parametrize("name", sorted(CONDITIONS))
def test_side_mask_matches_the_mode_loop(name):
    B = CONDITIONS[name]
    for lower in (True, False):
        assert np.array_equal(B._side_mask(lower), reference_side_mask(B, lower))


@pytest.mark.parametrize("name", sorted(CONDITIONS))
def test_side_columns_drop_the_unit_vectors_inside_w(name):
    B = CONDITIONS[name]
    W = B.w_all()
    for lower in (True, False):
        kept = 0
        for i in np.flatnonzero(reference_side_mask(B, lower)):
            v = np.zeros(B.basis.total_dim, dtype=complex)
            v[i] = 1.0
            if W.size:
                v = v - W @ (W.conj().T @ v)
            kept += float(np.linalg.norm(v)) >= RANK_TOL
        assert dense_oracle.side_columns(B, lower).shape[1] == kept


@pytest.mark.parametrize("name", sorted(CONDITIONS))
@pytest.mark.parametrize("perp", [False, True], ids=["span", "perp_span"])
def test_span_matrices_give_the_reference_projector(name, perp):
    B = CONDITIONS[name]
    got = (B.perp_span_matrix() if perp else B.span_matrix()).dense()
    want = reference_span(B, perp)
    assert got.shape == want.shape
    assert np.max(np.abs(projector(got) - projector(want))) <= PROJECTOR_TOL
    # the two spans are orthogonal complements of each other
    if not perp:
        other = B.perp_span_matrix().dense()
        assert got.shape[1] + other.shape[1] == B.basis.total_dim
        assert np.max(np.abs(got.conj().T @ other), initial=0.0) <= PROJECTOR_TOL


@pytest.mark.parametrize("name", sorted(CONDITIONS))
def test_span_projector_matches_the_closed_form(name):
    # project() reads span_matrix(); the oracle solves with (1 + g* g)
    B = CONDITIONS[name]
    rng = np.random.default_rng(len(name))
    D = B.basis.total_dim
    for x in (rng.standard_normal(D) + 1j * rng.standard_normal(D), np.eye(D)[0]):
        want = dense_oracle.project(B, x)
        assert np.max(np.abs(B.project(x) - want)) <= PROJECTOR_TOL * max(1.0, np.linalg.norm(x))
        for v in (want, x):
            phi = BoundarySection.from_dense(B.basis, v)
            assert B.membership(phi) == dense_oracle.membership(B, phi)


# -- SigmaZero validation -------------------------------------------------------------

def skew_blocks(basis):
    """Valid skew-unitary blocks with identity targets: 1j times the identity."""
    return {m.mode_id: 1j * np.eye(m.fiber_dim) for m in basis.modes}


def expect(basis, blocks, targets=None, skew_unitary=False, message=None):
    """SigmaZero raises exactly the reference message (and ``message``, if given)."""
    want = reference_sigma_error(basis, blocks, targets, skew_unitary)
    assert want == message or message is None
    if want is None:
        SigmaZero(basis, blocks, targets=targets, skew_unitary=skew_unitary)
        return
    with pytest.raises(ValueError) as err:
        SigmaZero(basis, blocks, targets=targets, skew_unitary=skew_unitary)
    assert str(err.value) == want


def test_each_sigma_error_keeps_its_message_and_mode():
    basis = mixed_basis()
    ids = [m.mode_id for m in basis.modes]
    wide = next(m for m in basis.modes[3:] if m.fiber_dim == 2)
    third = ids[2]

    blocks = skew_blocks(basis)
    del blocks[third]
    expect(basis, blocks, message=f"missing sigma_0 block for mode {third}")

    blocks = skew_blocks(basis)
    blocks[third] = np.ones((4, 4))
    expect(basis, blocks, message=f"sigma_0 block shape mismatch at mode {third}")

    blocks = skew_blocks(basis)
    blocks[wide.mode_id] = np.diag([1.0, 2.0])
    expect(basis, blocks, message=f"sigma_0 block at mode {wide.mode_id} is not conformal")

    blocks = skew_blocks(basis)
    blocks[third] = 2j * np.eye(basis.fiber_dim(third))
    expect(basis, blocks, message="sigma_0 blocks must share one conformal scale")

    expect(
        basis,
        {m.mode_id: 2j * np.eye(m.fiber_dim) for m in basis.modes},
        skew_unitary=True,
        message="skew-unitary sigma_0 must be unitary",
    )

    ones = [m.mode_id for m in basis.modes if m.fiber_dim == 1]
    cycle = {ones[0]: ones[1], ones[1]: ones[2], ones[2]: ones[0]}
    expect(
        basis,
        skew_blocks(basis),
        targets=cycle,
        skew_unitary=True,
        message="skew-unitary sigma_0 requires an involutive mode pairing",
    )

    blocks = skew_blocks(basis)
    blocks[wide.mode_id] = np.exp(0.3j) * np.eye(2)
    expect(
        basis, blocks, skew_unitary=True, message=f"sigma_0^* != -sigma_0 at mode {wide.mode_id}"
    )


def test_first_failing_mode_in_basis_order_is_reported():
    basis = mixed_basis()
    ids = [m.mode_id for m in basis.modes]
    early, late = ids[2], ids[9]
    for first, second in ((early, late), (late, early)):
        blocks = skew_blocks(basis)
        blocks[first] = np.zeros((basis.fiber_dim(first), basis.fiber_dim(first)))
        del blocks[second]
        expect(basis, blocks)
        blocks = skew_blocks(basis)
        blocks[first] = 3j * np.eye(basis.fiber_dim(first))
        blocks[second] = np.ones((5, 1))
        expect(basis, blocks)


def corrupt(basis, rng):
    """Valid skew blocks with one to three random faults; returns (blocks, targets)."""
    blocks = skew_blocks(basis)
    targets = None
    modes = list(basis.modes)
    for _ in range(int(rng.integers(1, 4))):
        m = modes[int(rng.integers(len(modes)))]
        k = m.fiber_dim
        fault = int(rng.integers(7))
        if fault == 0:
            blocks.pop(m.mode_id, None)
        elif fault == 1:
            blocks[m.mode_id] = np.ones((k + 1, k))
        elif fault == 2:
            blocks[m.mode_id] = np.zeros((k, k)) if k == 1 else np.diag(np.arange(1.0, k + 1))
        elif fault == 3:
            blocks[m.mode_id] = 1.5j * np.eye(k)
        elif fault == 4:
            blocks[m.mode_id] = np.exp(1j * rng.uniform(0.0, 1.4)) * np.eye(k)
        elif fault == 5:
            blocks[m.mode_id] = -1j * np.eye(k)  # still valid: exercises the no-fault path
        else:
            same = [x.mode_id for x in modes if x.fiber_dim == k]
            if len(same) >= 3:
                a, b, c = rng.choice(same, size=3, replace=False).tolist()
                targets = {a: b, b: c, c: a}
    return blocks, targets


@pytest.mark.parametrize("skew", [False, True])
def test_random_faults_raise_the_reference_message(skew):
    rng = np.random.default_rng(17 + skew)
    for name in ("mixed_fiber", "doubled_mixed", "negated_lattice"):
        basis = BASES[name]()
        for _ in range(60):
            blocks, targets = corrupt(basis, rng)
            expect(basis, blocks, targets=targets, skew_unitary=skew)


def test_valid_sigmas_keep_their_scale():
    basis = mixed_basis()
    s = SigmaZero(basis, {m.mode_id: 2.0 * np.eye(m.fiber_dim) for m in basis.modes})
    assert s.scale == 2.0 and not s.skew_unitary
    cb, csigma = chiral_basis()
    assert csigma.skew_unitary and csigma.scale == 1.0
    assert csigma.adjoint_sigma().skew_unitary
    assert csigma.negated_boundary().basis.same_modes(cb)


# -- sigma_0 forms derived without re-validation -----------------------------------

def unitary_sigma(basis, rng):
    """A non-scalar sigma_0: random unitary blocks times 1.7, with one swapped pair of modes."""
    by_fiber = {}
    for m in basis.modes:
        by_fiber.setdefault(m.fiber_dim, []).append(m.mode_id)
    a, b = next(ids for ids in by_fiber.values() if len(ids) >= 2)[:2]
    blocks = {}
    for m in basis.modes:
        k = m.fiber_dim
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        blocks[m.mode_id] = 1.7 * np.linalg.qr(z)[0]
    return SigmaZero(basis, blocks, targets={a: b, b: a})


SIGMAS = {
    "lattice": lambda: SigmaZero.scalar(EigenmodeBasis.lattice(6, shift=0.3, band_limit=3.0), 1j),
    "mixed_fiber": lambda: unitary_sigma(mixed_basis(), np.random.default_rng(31)),
    "chiral": lambda: chiral_basis()[1],
}


def validated_forms(s):
    """Each derived form of ``s``, rebuilt through the checking constructor."""
    b2 = s.basis.negated()
    return {
        "on_basis": (
            s.on_basis(b2),
            SigmaZero(b2, s.blocks, targets=s.targets, skew_unitary=s.skew_unitary),
        ),
        "negated_boundary": (
            s.negated_boundary(),
            SigmaZero(
                s.basis.negated(),
                {j: -S for j, S in s.blocks.items()},
                targets=s.targets,
                skew_unitary=s.skew_unitary,
            ),
        ),
        "adjoint_sigma": (
            s.adjoint_sigma(),
            SigmaZero(
                s.adjoint_basis(),
                {m: -s.blocks[s.tau_inv(m)].conj().T for m in s.targets},
                targets={m: s.tau_inv(m) for m in s.targets},
                skew_unitary=s.skew_unitary,
            ),
        ),
    }


@pytest.mark.parametrize("form", ["on_basis", "negated_boundary", "adjoint_sigma"])
@pytest.mark.parametrize("name", sorted(SIGMAS))
def test_derived_sigma_equals_a_validated_one(name, form):
    s = SIGMAS[name]()
    for base in (s, s.negated_boundary(), s.adjoint_sigma()):
        got, want = validated_forms(base)[form]
        assert got.basis.modes == want.basis.modes
        assert list(got.blocks) == list(want.blocks) == [m.mode_id for m in got.basis.modes]
        assert all(np.array_equal(got.blocks[j], want.blocks[j]) for j in got.blocks)
        assert list(got.targets.items()) == list(want.targets.items())
        assert got.sources == want.sources
        # a validated sigma_0 reads its scale off the first block in basis
        # order; a derived one keeps its parent's
        assert got.scale == pytest.approx(want.scale, rel=1e-15, abs=0)
        assert got.skew_unitary is want.skew_unitary


def test_derived_sigma_keeps_the_lattice_guard():
    s = SIGMAS["mixed_fiber"]()
    with pytest.raises(ValueError, match="different mode lattice"):
        s.on_basis(EigenmodeBasis.lattice(6, band_limit=3.0))


# -- CylinderProblem's permutation and eigenvalue checks ------------------------------

def reference_right_permutation(basis, nb):
    perm = np.zeros(basis.total_dim, dtype=int)
    for m in basis.modes:
        src, dst = basis.offset(m.mode_id), nb.offset(m.mode_id)
        perm[dst : dst + m.fiber_dim] = np.arange(src, src + m.fiber_dim)
    return perm


@pytest.mark.parametrize("name", sorted(BASES))
def test_right_permutation_matches_the_mode_loop(name):
    basis = BASES[name]()
    rng = np.random.default_rng(8)
    shuffled = basis.with_eigenvalues({m.mode_id: float(rng.uniform(-9, 9)) for m in basis.modes})
    for other in (basis, basis.negated(), shuffled):
        # the split constraint rows take the right end's coordinates back to P's
        got = _coords_in(other, basis, np.arange(basis.total_dim))
        assert got.dtype == reference_right_permutation(basis, other).dtype
        assert np.array_equal(got, reference_right_permutation(basis, other))


def test_problem_checks_each_end_against_its_operator():
    basis = mixed_basis()
    nb = basis.negated()
    sigma = SigmaZero.scalar(basis, 1j)
    left, right = make_generalized_aps(basis, 0.05), make_generalized_aps(nb, 0.05)
    CylinderProblem(basis, sigma, 1.0, left, right)
    last = basis.modes[-1].mode_id

    def nudged(b, eps):
        return b.with_eigenvalues({m.mode_id: m.eigenvalue + eps * (m.mode_id == last)
                                   for m in b.modes})

    CylinderProblem(basis, sigma, 1.0, make_generalized_aps(nudged(basis, 5e-13), 0.05), right)
    CylinderProblem(basis, sigma, 1.0, left, make_generalized_aps(nudged(nb, 5e-13), 0.05))
    with pytest.raises(SolverError, match="left condition must be expressed over A"):
        CylinderProblem(basis, sigma, 1.0, make_generalized_aps(nudged(basis, 2e-12), 0.05), right)
    with pytest.raises(SolverError, match="right condition must be expressed over -A"):
        CylinderProblem(basis, sigma, 1.0, left, make_generalized_aps(nudged(nb, 2e-12), 0.05))
    with pytest.raises(SolverError, match="left condition must be expressed over A"):
        CylinderProblem(basis, sigma, 1.0, make_generalized_aps(nb, 0.05), right)
