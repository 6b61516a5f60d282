"""Checks of the program's outputs against computations made apart from it.

Nothing here calls apslab to obtain an expected value: spectra are rebuilt
from the generated numbers, kernels and cokernels come from the per-mode sign
rule, and solved profiles are compared with the variation-of-constants formula
integrated by ``scipy.integrate.quad``.  The only program call is the
rho-invariance probe, which compares the program with itself at another
cylinder length.  Every check runs outside the timed region.
"""

from __future__ import annotations

import cmath

import apslab
import workloads as wl


def lattice_eigenvalues(n: int, spacing: float, shift: float) -> list:
    return [spacing * j + shift for j in range(-n, n + 1)]


def sign_rule(eigs: list, a: float, c: float) -> tuple:
    """(dim ker, dim coker) of the cylinder problem with APS ends B(a) at 0 and B(c) at rho.

    Mode j carries e^{-lambda t} in the kernel when its trace is free at both
    ends (lambda < a and -lambda < c), and e^{lambda t} in the cokernel when
    it is free for both adjoint conditions (lambda >= a and -lambda >= c).
    """
    ker = sum(1 for lam in eigs if -c < lam < a)
    coker = sum(1 for lam in eigs if a <= lam <= -c)
    return ker, coker


# -- index_fresh --------------------------------------------------------------

def index_expected(p: dict) -> dict:
    eigs = lattice_eigenvalues(wl.INDEX_N, 1.0, p["shift"])
    a, c = wl.cuts(p["shift"], 1.0, p["k_left"], p["f_left"], p["m"], p["f_right"])
    ker, coker = sign_rule(eigs, a, c)
    # a graph end changes the index by dim W_+ (upper) - dim W_- (lower); the
    # generator draws W_+ from upper and W_- from lower band modes
    correction = sum(wp - wm for wp, wm in (p["left_w"] or (0, 0), p["right_w"] or (0, 0)))
    return {"dim_ker": ker, "dim_coker": coker, "index": ker - coker + correction}


def index_ok(p: dict, out: dict) -> bool:
    want = index_expected(p)
    if out["doubled_agrees"] is not True or out["index"] != want["index"]:
        return False
    if p["left_w"] or p["right_w"]:
        return True
    return (out["dim_ker"], out["dim_coker"]) == (want["dim_ker"], want["dim_coker"])


def rho_invariant(p: dict, out: dict) -> bool:
    """The index at half the cylinder length equals the reported one."""
    return apslab.index(wl.index_problem(p, p["rho"] / 2.0), certify=False).index == out["index"]


# -- solve_verify -------------------------------------------------------------

def _eval_terms(pieces, breaks, t: float) -> complex:
    """Evaluate a piecewise sum of c t^p e^{mu t} from its raw term lists."""
    i = 0
    while i + 1 < len(pieces) and t >= breaks[i + 1]:
        i += 1
    return sum(c * t**p * cmath.exp(mu * t) for c, p, mu in pieces[i])


def _rhs_terms(terms):
    # D = sigma_0 (d/dt + A) with sigma_0 = i, so f' + lambda f = -i * psi
    return [(-1j * c, p, mu) for c, p, mu in terms]


def _quad_complex(fn, lo: float, hi: float) -> complex:
    # imported here: scipy.integrate adds ~20 MB, which would otherwise show in
    # peak_rss_mb of the workloads that never integrate
    from scipy import integrate

    re = integrate.quad(lambda s: fn(s).real, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
    im = integrate.quad(lambda s: fn(s).imag, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
    return complex(re, im)


def solve_ok(p: dict, result, tol: float = 1e-8) -> bool:
    """Boundary traces against the APS sign rule; each mode against variation of constants."""
    n_ker = p["k_left"] - p["m"] + 1
    if not result.consistent or result.particular is None:
        return False
    if len(result.kernel_basis) != n_ker or len(result.obstruction_basis) != 0:
        return False
    rho = p["rho"]
    a, c = wl.cuts(p["shift"], wl.SOLVE_SPACING, p["k_left"], p["f_left"], p["m"], p["f_right"])
    rhs = {j: _rhs_terms(terms) for j, terms in p["rhs"]}
    profiles = result.particular.profiles
    g_scale = 1.0 + max(
        abs(_eval_terms([g], [0.0, rho], s)) for g in rhs.values() for s in (0.0, rho / 2, rho)
    )
    for j in range(-wl.SOLVE_N, wl.SOLVE_N + 1):
        lam = wl.SOLVE_SPACING * j + p["shift"]
        if j not in profiles:
            if j in rhs:
                return False
            continue
        prof = profiles[j][0]
        f0 = _eval_terms(prof.pieces, prof.breaks, 0.0)
        fr = _eval_terms(prof.pieces, prof.breaks, rho)
        scale = g_scale * (1.0 + rho)
        # traces: B(a) at t=0 keeps lambda < a; B(c) over -A at rho keeps -lambda < c
        if lam >= a and abs(f0) > tol * (scale + abs(fr)):
            return False
        if -lam >= c and abs(fr) > tol * (scale + abs(f0)):
            return False
        g = rhs.get(j, [])
        # anchor at the end where e^{-lambda t} decays, so no factor exceeds 1
        anchor, f_anchor = (0.0, f0) if lam >= 0 else (rho, fr)
        scale += abs(f_anchor)
        for t in (rho / 3.0, 2.0 * rho / 3.0):
            want = cmath.exp(-lam * (t - anchor)) * f_anchor
            if g:
                want += _quad_complex(
                    lambda s: cmath.exp(-lam * (t - s)) * _eval_terms([g], [0.0, rho], s),
                    anchor, t,
                )
            got = _eval_terms(prof.pieces, prof.breaks, t)
            if abs(got - want) > tol * scale:
                return False
    return True


# -- scenario_batch -----------------------------------------------------------

def aps_shift_count(payload: dict, truncation: int) -> int:
    spec = payload["spectrum"]
    eigs = lattice_eigenvalues(truncation, spec.get("spacing", 1.0), spec.get("shift", 0.0))
    fiber = spec.get("fiber_dim", 1)
    return fiber * sum(1 for lam in eigs if payload["a"] <= lam < payload["b"])


def batch_ok(template: dict, out: dict) -> bool:
    """Exit code 0, every report passes, aps_shift mode counts match the spectrum."""
    reports = out["reports"]
    scenarios = template["scenarios"]
    if out["exit_code"] != 0 or len(reports) != len(scenarios):
        return False
    for sc, rep in zip(scenarios, reports):
        if rep["scenario_id"] != sc["id"] or rep["pass"] is not True:
            return False
        if sc["kind"] == "aps_shift":
            if rep["outputs"]["mode_count"] != aps_shift_count(sc["payload"], wl.BATCH_TRUNCATION):
                return False
    return True
