"""Acceptance suite: one test per shipped guarantee, at the stated tolerances.

Each test prints a single pass line on success; pytest reports the verdict per
criterion.  Integer identities are exact; analytic residuals carry explicit
tolerances; every index computed in criteria 2-7 re-certifies itself on a
doubled mode lattice and the certificates are collected and re-checked in
criterion 10.
"""

import math
import time

import numpy as np
import pytest

import dense_oracle
from apslab.boundary_conditions import (
    BoundaryCondition,
    ModeMap,
    adjoint,
    make_chiral,
    make_generalized_aps,
    make_transmission,
    seeded_graph_condition,
)
from apslab.cylinder_solver import (
    CylinderProblem,
    energy_identity_residual,
    greens_residual,
    model_apply,
    ode_bound_check,
    random_cylinder_section,
    s0_apply,
    solve_bvp,
)
from apslab.expoly import Profile
from apslab.index_calculus import (
    ClosedSubspace,
    PairHypothesisError,
    aps_shift_check,
    chiral_block_basis,
    cobordism_check,
    deformation_sweep,
    fredholm_pair,
    graph_index_check,
    index,
    pair_index_identity_check,
    split_check,
)
from apslab.spectral_core import (
    BoundarySection,
    EigenmodeBasis,
    Interval,
    SigmaZero,
    beta_pairing,
    check_norm,
    hat_norm,
    l2_pairing,
    project,
    random_section,
    sobolev_norm,
)

CUTS = [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]

# certificates collected by criteria 2-7 and re-audited by criterion 10
CERTIFICATES: list = []


def integer_lattice():
    return EigenmodeBasis.lattice(8, band_limit=4.0)


def shifted_lattice():
    return EigenmodeBasis.lattice(8, shift=0.25, band_limit=4.0)


def fine_lattice():
    return EigenmodeBasis.lattice(16, shift=0.25, spacing=0.5, band_limit=4.0)


def reference_right(basis):
    nb = basis.negated()
    return make_generalized_aps(nb, nb.cut_above(0.0))


def problem(basis, left, rho=1.0):
    return CylinderProblem(
        basis, SigmaZero.scalar(basis, 1j), rho, left, reference_right(basis)
    )


def collect(*reports):
    for rep in reports:
        CERTIFICATES.append(rep.truncation_certificate)


def members(cond, rng, count):
    out = []
    for _ in range(count):
        x = rng.standard_normal(cond.basis.total_dim) + 1j * rng.standard_normal(
            cond.basis.total_dim
        )
        out.append(BoundarySection.from_dense(cond.basis, cond.project(x)))
    return out


def span_equal(c1, c2, tol=1e-9):
    if c1.dim() != c2.dim():
        return False
    S1 = c1.span_matrix().dense()
    return all(
        dense_oracle.membership(c2, BoundarySection.from_dense(c1.basis, S1[:, i]), tol)
        for i in range(S1.shape[1])
    )


def test_criterion_01_reference_isomorphism():
    basis = integer_lattice()
    sigma = SigmaZero.scalar(basis, 1j)
    P = problem(basis, make_generalized_aps(basis, 0.0))
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        psi = random_cylinder_section(basis, rng, 1.0)
        res = model_apply(s0_apply(psi, sigma), sigma) - psi
        assert math.sqrt(res.l2_norm_sq()) <= 1e-12 * math.sqrt(psi.l2_norm_sq())
    sol = solve_bvp(P, random_cylinder_section(basis, rng, 1.0))
    assert sol.consistent and sol.kernel_basis == [] and sol.obstruction_basis == []
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1 (reference isomorphism, 100 seeds, {elapsed:.2f}s): PASS")


def test_criterion_02_aps_shift():
    basis = shifted_lattice()
    P = problem(basis, make_generalized_aps(basis, 0.0))
    checked = 0
    for a in CUTS:
        for b in CUTS:
            if a < b:
                rep = aps_shift_check(P, a, b)
                assert rep["equal"], (a, b, rep)
                collect(*rep["reports"])
                checked += 1
    print(f"criterion 2 (APS shift, {checked} cut pairs): PASS")


def test_criterion_03_graph_index_formula():
    fine = fine_lattice()
    for seed in range(50):
        rng = np.random.default_rng(300 + seed)
        left = seeded_graph_condition(
            fine,
            rng,
            cut=float(rng.choice([-1.25, -0.25, 0.75])),
            dim_w_plus=int(rng.integers(0, 4)),
            dim_w_minus=int(rng.integers(0, 4)),
            g_norm=float(rng.uniform(0.0, 2.0)),
        )
        rep = graph_index_check(problem(fine, left))
        assert rep["equal"], (seed, rep)
        collect(*rep["reports"])
    print("criterion 3 (graph index formula, 50 seeded conditions): PASS")


def test_criterion_04_fredholm_pairs():
    fine = fine_lattice()
    P = problem(fine, make_generalized_aps(fine, 0.0))
    for seed in range(50):
        rng = np.random.default_rng(400 + seed)
        n1 = float(rng.uniform(0.0, 0.9))
        B1 = seeded_graph_condition(fine, rng, cut=0.75, g_norm=n1)
        B2 = seeded_graph_condition(fine, rng, cut=-0.25, g_norm=min(0.9 / max(n1, 0.1), 0.9))
        rep = pair_index_identity_check(P, B1, B2)
        assert rep["norm_product"] <= 0.9 + 1e-12
        assert rep["equal"], (seed, rep)
        collect(*rep["reports"])
    # g = 0 subfamily: the pair index is a pure mode count between the cuts
    basis = shifted_lattice()
    for a, b in [(-1.5, 0.5), (-0.5, 2.5), (0.5, 1.5)]:
        pair = fredholm_pair(
            ClosedSubspace(make_generalized_aps(basis, b)),
            ClosedSubspace(make_generalized_aps(basis, a), complement=True),
        )
        count = sum(m.fiber_dim for m in basis.modes if a <= m.eigenvalue < b)
        assert pair.index == count and pair.codim_sum == 0
    # sharpness: ||g1|| = ||g2|| = 1 with g2 = -g1 unitary must be refused
    g1 = ModeMap(basis, {(1, -1): np.array([[1.0]])}, "paired_diagonal")
    B1 = BoundaryCondition(basis, 0.0, g=g1)
    B2 = BoundaryCondition(basis, 0.0, g=g1.scale(-1.0))
    with pytest.raises(PairHypothesisError):
        pair_index_identity_check(problem(basis, make_generalized_aps(basis, 0.0)), B1, B2)
    print("criterion 4 (Fredholm pairs, 50 seeded + g=0 family + sharpness): PASS")


def test_criterion_05_deformation_invariance():
    fine = fine_lattice()
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        left = seeded_graph_condition(
            fine, rng, cut=0.75, g_norm=float(rng.uniform(0.2, 2.0))
        )
        sweep = deformation_sweep(problem(fine, left), steps=11)
        assert sweep["constant"], (seed, sweep["indices"])
        collect(*sweep["reports"])
    print("criterion 5 (deformation invariance, 20 conditions x 11 steps): PASS")


def test_criterion_06_splitting():
    fine = fine_lattice()
    nfine = fine.negated()
    for seed in range(20):
        rng = np.random.default_rng(600 + seed)
        P = CylinderProblem(
            fine,
            SigmaZero.scalar(fine, 1j),
            2.0,
            make_generalized_aps(fine, float(rng.choice([-0.75, 0.25, 1.25]))),
            reference_right(fine),
        )
        cut_conditions = [
            make_generalized_aps(nfine, float(rng.choice([-0.75, 0.25, 1.25]))),
            seeded_graph_condition(nfine, rng, cut=0.75, g_norm=0.8),
            seeded_graph_condition(nfine, rng, cut=-0.25, dim_w_plus=2, g_norm=1.2),
        ]
        for B1 in cut_conditions:
            rep = split_check(P, B1)
            assert rep["equal"], (seed, rep)
            collect(*rep["reports"])
    print("criterion 6 (splitting, 20 glued cylinders x 3 cut conditions): PASS")


def test_criterion_07_cobordism():
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        vals = {}
        for j in range(-8, 9):
            if rng.uniform() < 0.3:
                vals[j] = 0.0  # kernel-bearing block
            else:
                vals[j] = (0.5 + 1.5 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        vals[0] = 0.0 if seed % 2 == 0 else vals[0]  # guarantee kernel blocks often
        basis, sigma = chiral_block_basis(4, lambda j: vals[j], band_limit=0.4)
        rep = cobordism_check(basis, sigma)
        assert rep["pass"], (seed, rep)
        collect(*rep["reports"])
    print("criterion 7 (cobordism, 20 seeded chiral setups): PASS")


def test_criterion_08_analytic_identities():
    basis = integer_lattice()
    sigma = SigmaZero.scalar(basis, 1j)
    ab = sigma.adjoint_basis()
    rng = np.random.default_rng(800)
    for _ in range(100):
        phi = random_cylinder_section(basis, rng, 1.0)
        psi = random_cylinder_section(ab, rng, 1.0)
        scale = 1.0 + phi.sup_on_grid() * psi.sup_on_grid()
        assert abs(greens_residual(phi, psi, sigma)) <= 1e-10 * scale
        assert energy_identity_residual(phi) <= 1e-10 * (1.0 + phi.l2_norm_sq())
    for lam in (0.0, 1.0, -1.0, 2.0, -2.0, 10.0, -10.0):
        for _ in range(20):
            c = complex(rng.standard_normal(), rng.standard_normal())
            mu = complex(rng.standard_normal(), rng.standard_normal())
            if abs(mu + lam) < 0.1:
                mu += 0.2
            rhs = Profile.from_terms([(c, int(rng.integers(0, 3)), mu)], 0.0, 1.0)
            rep = ode_bound_check(lam, rhs)
            assert rep["pass"]
            assert rep["l2_slack"] >= -1e-12 and rep["h1_slack"] >= -1e-12
    print("criterion 8 (Green/energy <= 1e-10 x100, ODE bounds 7 lambdas x 20): PASS")


def test_criterion_09_adjoint_calculus():
    fine = fine_lattice()
    plain = integer_lattice()
    sigma_f = SigmaZero.scalar(fine, 1j)
    blocks = {m.mode_id: np.array([[1j]]) for m in plain.modes}
    targets = {m.mode_id: -m.mode_id for m in plain.modes}
    sigma_neg = SigmaZero(plain, blocks, targets=targets, skew_unitary=True)
    db = plain.doubled()
    sigma_db = SigmaZero(
        db,
        {m.mode_id: np.array([[1j]]) for m in db.modes},
        targets=dict(db.pairings),
        skew_unitary=True,
    )
    rng = np.random.default_rng(900)
    cases = [
        ("aps", make_generalized_aps(fine, 0.75), sigma_f),
        ("graph", seeded_graph_condition(fine, rng, cut=0.75, g_norm=1.1), sigma_f),
        ("chiral", make_chiral(plain, sigma_neg, sign=1), sigma_neg),
        ("transmission", make_transmission(db), sigma_db),
    ]
    for name, B, sigma in cases:
        ad = adjoint(B, sigma)
        back = adjoint(ad, sigma.adjoint_sigma())
        assert back.basis.same_modes(B.basis)
        assert span_equal(back, B), name
        for phi in members(B, rng, 10):
            for psi in members(ad, rng, 10):
                assert abs(beta_pairing(phi, psi, sigma)) <= 1e-10, name
    # B(a)^ad keeps exactly the adjoint-side modes with eigenvalue <= -a
    basis = shifted_lattice()
    sigma = SigmaZero.scalar(basis, 1j)
    for a in (-1.0, 0.25, 1.75):
        ad = adjoint(make_generalized_aps(basis, a), sigma)
        for m in ad.basis.modes:
            inside = ad.membership(BoundarySection.unit(ad.basis, m.mode_id))
            assert inside == (ad.basis.eigenvalue(m.mode_id) <= -a), (a, m.mode_id)
    print("criterion 9 (adjoint involution + beta-annihilation, 100/constructor): PASS")


def test_criterion_10_truncation_certificates():
    assert len(CERTIFICATES) >= 100
    assert all(c["doubled_agrees"] is True for c in CERTIFICATES)
    print(
        f"criterion 10 (truncation exactness, {len(CERTIFICATES)} doubled-basis "
        "certificates from criteria 2-7): PASS"
    )


def test_criterion_11_projection_and_norms():
    basis = shifted_lattice()
    rng = np.random.default_rng(1100)
    for _ in range(200):
        phi = random_section(basis, rng)
        a = float(rng.uniform(-3, 3))
        low = project(phi, Interval.below(a))
        high = project(phi, Interval.at_least(a))
        again = project(low, Interval.below(a))
        diff = (low + high) - phi
        dense = diff.to_dense()
        assert np.max(np.abs(dense)) <= 1e-14 * (1.0 + np.max(np.abs(phi.to_dense())))
        assert (again - low).is_zero()
        total = abs(l2_pairing(phi, phi))
        split = abs(l2_pairing(low, low)) + abs(l2_pairing(high, high))
        assert abs(total - split) <= 1e-14 * max(total, 1.0)
    for _ in range(1000):
        phi = random_section(basis, rng)
        s1, s2 = sorted(rng.uniform(-2, 2, size=2))
        assert sobolev_norm(phi, s1) <= sobolev_norm(phi, s2) + 1e-12
    for _ in range(1000):
        phi = random_section(basis, rng)
        psi = random_section(basis, rng)
        cut = float(rng.uniform(-3, 3))
        assert abs(l2_pairing(phi, psi)) <= check_norm(phi, cut) * hat_norm(psi, cut) + 1e-10
    print("criterion 11 (projection algebra 1e-14, monotonicity + duality x1000): PASS")
