"""Batch front end: JSON scenarios in, validated reports out (json/csv/md).

A scenario file holds one scenario object or a list under "scenarios"; each
scenario is dispatched to the core modules and produces a report with pass/
fail verdicts, integer outputs with truncation certificates, and timing.
Runs are deterministic given (payload, seed, truncation), independent of the
worker-pool size.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import io
import json
import math
import numbers
import sys
import time
from typing import Callable, NamedTuple, Optional

import numpy as np

from .spectral_core import (
    EigenmodeBasis,
    Mode,
    SigmaZero,
    norm_equivalence_probe,
    random_section,
)
from .boundary_conditions import (
    BoundaryCondition,
    make_generalized_aps,
    seeded_graph_condition,
)
from .expoly import Profile
from .cylinder_solver import (
    CylinderProblem,
    CylinderSection,
    energy_identity_residual,
    extension_bound_probe,
    greens_residual,
    ode_bound_check,
    random_cylinder_section,
    solve_bvp,
)
from . import index_calculus as ic

DEFAULT_TRUNCATION = 8  # lattice size N when neither --truncation nor the scenario sets one

CSV_HEADER = (
    "scenario_id",
    "kind",
    "index",
    "dim_ker",
    "dim_coker",
    "residual_max",
    "pass",
    "seconds",
)


class ScenarioError(ValueError):
    """Raised for invalid scenario input, with a field-path diagnostic."""


# -- payload rules ----------------------------------------------------------
#
# A rule is a dict of JSON Schema keywords, limited to the ones used here:
# "type", "minimum" (inclusive), "exclusiveMinimum" (strict), "enum",
# "required", "properties", "items", "minItems" and "maxItems".  _check
# applies them with JSON Schema's meaning; fields no rule names are ignored.

_NUMBER = {"type": "number"}
_INTEGER = {"type": "integer"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NON_NEGATIVE = {"type": "number", "minimum": 0}
_COUNT = {"type": "integer", "minimum": 1}
_NON_NEGATIVE_INTEGER = {"type": "integer", "minimum": 0}


def _object(required: tuple, **properties) -> dict:
    return {"type": "object", "properties": properties, "required": required}


def _array(items: dict, **length) -> dict:
    return {"type": "array", "items": items, **length}


_MODE = _object(
    ("mode_id", "eigenvalue"),
    mode_id=_INTEGER, eigenvalue=_NUMBER, fiber_dim=_COUNT, component_id={"type": "string"},
)
_SPECTRUM = _object(
    (),
    n=_COUNT, shift=_NUMBER, spacing=_POSITIVE, band_limit=_NON_NEGATIVE, fiber_dim=_COUNT,
    modes=_array(_MODE),
)
_CONDITION = _object(
    ("type",),
    type={"enum": ("aps", "graph")}, cut=_NUMBER, keep_from=_NUMBER, g_norm=_NON_NEGATIVE,
    dim_w_plus=_NON_NEGATIVE_INTEGER, dim_w_minus=_NON_NEGATIVE_INTEGER, n_g_pairs=_COUNT,
)
_TERM = _array(_NUMBER, minItems=5, maxItems=5)  # [c_re, c_im, power, mu_re, mu_im]
_RHS = _array(
    _object(
        ("mode_id", "terms"),
        mode_id=_INTEGER, fiber_index=_NON_NEGATIVE_INTEGER, terms=_array(_TERM),
    )
)
_ENDS = ("spectrum", "rho", "left", "right")
_SAMPLED = _object(("spectrum", "rho"), spectrum=_SPECTRUM, rho=_POSITIVE, n_samples=_COUNT)


def _problem(required: tuple, **properties) -> dict:
    """A rule over the shared cylinder problem (spectrum, rho, left, right) and more fields."""
    shared = dict(spectrum=_SPECTRUM, rho=_POSITIVE, left=_CONDITION, right=_CONDITION)
    return _object(required, **shared, **properties)


@dataclasses.dataclass
class Scenario:
    scenario_id: str
    kind: str
    payload: dict
    seed: int = 0
    truncation: Optional[int] = None


@dataclasses.dataclass
class Report:
    scenario: Scenario
    outputs: dict
    passed: bool
    seconds: float
    rows: list = dataclasses.field(default_factory=list)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    # JSON has one number type: an integral float such as 3.0 is an integer
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


def _check(value, rule: dict, path: str):
    """Raise ScenarioError naming the path of the first place ``value`` breaks ``rule``."""
    # NaN passes both bounds, as in JSON Schema; _check_finite rejects it afterwards
    reason = None
    if "type" in rule and not _TYPES[rule["type"]](value):
        reason = f"{value!r} is not of type {rule['type']!r}"
    elif "enum" in rule and value not in rule["enum"]:
        reason = f"{value!r} is not one of {list(rule['enum'])}"
    elif "minimum" in rule and value < rule["minimum"]:
        reason = f"{value!r} is less than the minimum of {rule['minimum']}"
    elif "exclusiveMinimum" in rule and value <= rule["exclusiveMinimum"]:
        reason = f"{value!r} is less than or equal to the minimum of {rule['exclusiveMinimum']}"
    elif "minItems" in rule and len(value) < rule["minItems"]:
        reason = f"{value!r} is too short"
    elif "maxItems" in rule and len(value) > rule["maxItems"]:
        reason = f"{value!r} is too long"
    if reason:
        raise ScenarioError(f"schema violation at {path}: {reason}")
    for name in rule.get("required", ()):
        if name not in value:
            raise ScenarioError(f"schema violation at {path}.{name}: required property is missing")
    for name, field in rule.get("properties", {}).items():
        if name in value:
            _check(value[name], field, f"{path}.{name}")
    for i, item in enumerate(value if "items" in rule else ()):
        _check(item, rule["items"], f"{path}[{i}]")


def _check_finite(obj, path: str):
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ScenarioError(f"non-finite number at {path}")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, f"{path}.{k}")
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            _check_finite(v, f"{path}[{i}]")


def parse_scenario(data, index_hint: int = 0) -> Scenario:
    """Validate one scenario dict (or JSON bytes) into a Scenario."""
    if isinstance(data, (bytes, str)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise ScenarioError(f"invalid JSON: {e}") from e
    _check(data, _SCENARIO, "$")
    kind = data["kind"]
    _check(data["payload"], _KINDS[kind].rule, "$.payload")
    _check_finite(data["payload"], "$.payload")
    spectrum = data["payload"].get("spectrum")
    if spectrum and "modes" in spectrum:
        seen = set()
        for m in spectrum["modes"]:
            if m["mode_id"] in seen:
                raise ScenarioError(f"duplicate mode_id: {m['mode_id']}")
            seen.add(m["mode_id"])
        if _KINDS[kind].certified:
            raise ScenarioError(
                f"explicit modes at $.payload.spectrum.modes: kind {kind!r} certifies its "
                "index on the doubled lattice, which an explicit mode list does not define; "
                "give a lattice spectrum"
            )
    return Scenario(
        scenario_id=data.get("id", f"scenario-{index_hint}"),
        kind=kind,
        payload=data["payload"],
        seed=int(data.get("seed", 0)),
        truncation=data.get("truncation"),
    )


def parse_scenario_file(raw: bytes) -> list:
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ScenarioError(f"invalid scenario file: {e}") from e
    if isinstance(data, dict) and "scenarios" in data:
        items = data["scenarios"]
    elif isinstance(data, list):
        items = data
    else:
        items = [data]
    return [parse_scenario(item, i) for i, item in enumerate(items)]


# -- building blocks --------------------------------------------------------

def _build_basis(spectrum: dict, truncation: Optional[int]) -> EigenmodeBasis:
    if "modes" in spectrum:
        modes = [
            Mode(
                m["mode_id"],
                m.get("component_id", "c0"),
                float(m["eigenvalue"]),
                int(m.get("fiber_dim", 1)),
            )
            for m in spectrum["modes"]
        ]
        return EigenmodeBasis(modes, spectrum.get("band_limit", 0.0))
    n = truncation or spectrum.get("n") or DEFAULT_TRUNCATION
    return EigenmodeBasis.lattice(
        int(n),
        shift=spectrum.get("shift", 0.0),
        fiber_dim=spectrum.get("fiber_dim", 1),
        band_limit=spectrum.get("band_limit", 2.0),
        spacing=spectrum.get("spacing", 1.0),
    )


def _build_condition(
    spec: dict, basis: EigenmodeBasis, rng: np.random.Generator, right: bool = False
) -> BoundaryCondition:
    if spec["type"] == "aps":
        if "keep_from" in spec and right:
            return make_generalized_aps(basis, basis.cut_above(-float(spec["keep_from"])))
        return make_generalized_aps(basis, float(spec.get("cut", 0.0)))
    return seeded_graph_condition(
        basis,
        rng,
        cut=float(spec.get("cut", 0.0)),
        dim_w_plus=int(spec.get("dim_w_plus", 1)),
        dim_w_minus=int(spec.get("dim_w_minus", 1)),
        g_norm=float(spec.get("g_norm", 0.5)),
        n_g_pairs=int(spec.get("n_g_pairs", 2)),
    )


def _build_problem(payload: dict, s: Scenario, rng: np.random.Generator) -> CylinderProblem:
    basis = _build_basis(payload["spectrum"], s.truncation)
    nb = basis.negated()
    sigma = SigmaZero.scalar(basis, 1.0)
    left = _build_condition(payload["left"], basis, rng)
    right = _build_condition(payload["right"], nb, rng, right=True)
    return CylinderProblem(basis, sigma, float(payload["rho"]), left, right)


def _rhs_section(payload: dict, basis: EigenmodeBasis, rho: float) -> CylinderSection:
    profiles: dict = {}
    for entry in payload.get("rhs", []):
        mid = entry["mode_id"]
        fib = entry.get("fiber_index", 0)
        terms = [
            (complex(t[0], t[1]), int(t[2]), complex(t[3], t[4])) for t in entry["terms"]
        ]
        profs = profiles.setdefault(
            mid, [Profile.zero(0.0, rho) for _ in range(basis.fiber_dim(mid))]
        )
        profs[fib] = profs[fib] + Profile.from_terms(terms, 0.0, rho)
    return CylinderSection(basis, rho, profiles)


def _certificate(report: ic.IndexReport) -> dict:
    return dict(report.truncation_certificate)


# -- per-kind runners -------------------------------------------------------

def _run_solve(s: Scenario, rng) -> tuple:
    P = _build_problem(s.payload, s, rng)
    psi = _rhs_section(s.payload, P.basis, P.rho)
    result = solve_bvp(P, psi)
    res_max = max(result.residuals.values()) if result.residuals else 0.0
    ok = result.consistent and res_max <= 1e-10 * (1.0 + math.sqrt(max(psi.l2_norm_sq(), 1.0)))
    out = {
        "consistent": result.consistent,
        "dim_ker": len(result.kernel_basis),
        "dim_obstruction": len(result.obstruction_basis),
        "residual_max": res_max,
    }
    return out, ok


def _run_index(s: Scenario, rng) -> tuple:
    P = _build_problem(s.payload, s, rng)
    rep = ic.index(P)
    out = {
        "index": rep.index,
        "dim_ker": rep.dim_ker,
        "dim_coker": rep.dim_coker,
        "certificate": _certificate(rep),
    }
    ok = rep.truncation_certificate["doubled_agrees"]
    if "expected_index" in s.payload:
        ok = ok and rep.index == s.payload["expected_index"]
        out["expected_index"] = s.payload["expected_index"]
    return out, bool(ok)


def _run_aps_shift(s: Scenario, rng) -> tuple:
    payload = dict(s.payload)
    payload.setdefault("left", {"type": "aps", "cut": payload["a"]})
    P = _build_problem(payload, s, rng)
    rep = ic.aps_shift_check(P, float(payload["a"]), float(payload["b"]))
    out = {
        "index_a": rep["index_a"],
        "index_b": rep["index_b"],
        "mode_count": rep["mode_count"],
        "equal": rep["equal"],
        "certificate": _certificate(rep["reports"][0]),
    }
    return out, rep["equal"]


def _run_graph_identity(s: Scenario, rng) -> tuple:
    P = _build_problem(s.payload, s, rng)
    rep = ic.graph_index_check(P)
    out = {k: rep[k] for k in ("lhs", "rhs", "aps_index", "correction", "equal")}
    out["certificate"] = _certificate(rep["reports"][0])
    return out, rep["equal"]


def _run_deform_sweep(s: Scenario, rng) -> tuple:
    P = _build_problem(s.payload, s, rng)
    rep = ic.deformation_sweep(P, steps=int(s.payload.get("steps", 11)))
    out = {"indices": rep["indices"], "constant": rep["constant"], "value": rep["value"]}
    rows = [
        {"step": i, "index": v, "dim_ker": r.dim_ker, "dim_coker": r.dim_coker}
        for i, (v, r) in enumerate(zip(rep["indices"], rep["reports"]))
    ]
    return out, rep["constant"], rows


def _run_fredholm_pair(s: Scenario, rng) -> tuple:
    basis = _build_basis(s.payload["spectrum"], s.truncation)
    B1 = _build_condition(s.payload["first"], basis, rng)
    B2 = _build_condition(s.payload["second"], basis, rng)
    rep = ic.fredholm_pair(ic.ClosedSubspace(B1), ic.ClosedSubspace(B2, complement=True))
    ok = rep.index == rep.dim_intersection - rep.codim_sum
    out = {
        "dim_intersection": rep.dim_intersection,
        "codim_sum": rep.codim_sum,
        "index": rep.index,
    }
    return out, ok


def _run_pair_identity(s: Scenario, rng) -> tuple:
    P = _build_problem({**s.payload, "left": s.payload["first"]}, s, rng)
    B1 = P.left
    B2 = _build_condition(s.payload["second"], P.basis, rng)
    expect_refusal = bool(s.payload.get("expect_refusal", False))
    try:
        rep = ic.pair_index_identity_check(P, B1, B2)
    except ic.PairHypothesisError as e:
        out = {"refused": True, "norm_product": e.norm_product}
        return out, expect_refusal
    out = {
        "refused": False,
        "index_1": rep["index_1"],
        "index_2": rep["index_2"],
        "pair_index": rep["pair_index"],
        "equal": rep["equal"],
        "norm_product": rep["norm_product"],
    }
    return out, rep["equal"] and not expect_refusal


def _run_split(s: Scenario, rng) -> tuple:
    P = _build_problem(s.payload, s, rng)
    nb = P.basis.negated()
    B1 = _build_condition(s.payload["cut_condition"], nb, rng)
    rep = ic.split_check(P, B1)
    out = {k: rep[k] for k in ("glued", "left", "right", "equal")}
    out["certificate"] = _certificate(rep["reports"][0])
    return out, rep["equal"]


def _run_cobordism(s: Scenario, rng) -> tuple:
    p = s.payload
    slope = float(p["slope"])
    offset = complex(*(p.get("offset", [0.0, 0.0])))
    zeros = set(p.get("zeros", []))
    n = int(s.truncation or p["n"])

    def block_fn(j: int) -> complex:
        if j in zeros:
            return 0.0
        return 1j * slope * j + offset

    basis, sigma = ic.chiral_block_basis(n, block_fn, float(p["band_limit"]))
    rep = ic.cobordism_check(basis, sigma, rho=float(p.get("rho", 1.0)))
    out = {
        k: rep[k]
        for k in (
            "contribution_left",
            "contribution_right",
            "total",
            "index_plus",
            "index_minus",
            "pass",
        )
    }
    out["certificate"] = _certificate(rep["reports"][0])
    return out, rep["pass"]


def _run_greens(s: Scenario, rng) -> tuple:
    basis = _build_basis(s.payload["spectrum"], s.truncation)
    rho = float(s.payload["rho"])
    sigma = SigmaZero.scalar(basis, 1j)
    ab = sigma.adjoint_basis()
    lam_max = float(np.max(np.abs(basis.coord_eigenvalue)))
    worst = 0.0
    ok = True
    for _ in range(int(s.payload.get("n_samples", 100))):
        phi = random_cylinder_section(basis, rng, rho)
        psi = random_cylinder_section(ab, rng, rho)
        residual = abs(greens_residual(phi, psi, sigma))
        worst = max(worst, residual)
        if residual > 1e-10:  # the bound is never below 1e-10
            # the compared inner products grow like (1 + lambda) ||phi|| ||psi||
            scale = (1.0 + lam_max) * math.sqrt(phi.l2_norm_sq() * psi.l2_norm_sq())
            ok = ok and residual <= 1e-10 * (1.0 + scale)
    return {"residual_max": worst}, ok


def _run_energy(s: Scenario, rng) -> tuple:
    basis = _build_basis(s.payload["spectrum"], s.truncation)
    rho = float(s.payload["rho"])
    worst = 0.0
    ok = True
    for _ in range(int(s.payload.get("n_samples", 100))):
        phi = random_cylinder_section(basis, rng, rho)
        residual = energy_identity_residual(phi)
        # the identity's terms grow like lambda^2 ||phi||^2: compare relative to ||phi||^2
        ok = ok and residual <= 1e-10 * (1.0 + phi.l2_norm_sq())
        worst = max(worst, residual)
    return {"residual_max": worst}, ok


def _run_ode_bounds(s: Scenario, rng) -> tuple:
    rho = float(s.payload["rho"])
    reports = []
    ok = True
    for lam in s.payload["lambdas"]:
        for _ in range(int(s.payload.get("n_rhs", 20))):
            terms = []
            for _ in range(3):
                c = complex(rng.standard_normal(), rng.standard_normal())
                mu = complex(rng.standard_normal(), rng.standard_normal())
                if abs(mu + lam) < 0.1:
                    mu += 0.2
                terms.append((c, int(rng.integers(0, 3)), mu))
            rep = ode_bound_check(float(lam), Profile.from_terms(terms, 0.0, rho))
            ok = ok and rep["pass"]
            reports.append(rep)
    min_slack = min(min(r["l2_slack"], r["h1_slack"]) for r in reports)
    return {"n_checked": len(reports), "min_slack": min_slack}, ok


def _run_extension_bound(s: Scenario, rng) -> tuple:
    basis = _build_basis(s.payload["spectrum"], s.truncation)
    n = int(s.payload.get("n_samples", 50))
    samples = [random_section(basis, rng) for _ in range(n)]
    const = extension_bound_probe(
        samples, float(s.payload["cut"]), float(s.payload["r"]), float(s.payload["rho"])
    )
    return {"constant": const}, math.isfinite(const)


def _run_norm_probe(s: Scenario, rng) -> tuple:
    basis = _build_basis(s.payload["spectrum"], s.truncation)
    n = int(s.payload.get("n_samples", 200))
    samples = [random_section(basis, rng) for _ in range(n)]
    rep = norm_equivalence_probe(samples, float(s.payload["cut1"]), float(s.payload["cut2"]))
    ok = 0.0 < rep["min_ratio"] <= rep["max_ratio"] < math.inf
    return rep, ok


# -- the kinds: runner, payload rule, certified ------------------------------

class _Kind(NamedTuple):
    run: Callable
    rule: dict
    # the runner calls index(), whose certificate needs the doubled lattice of
    # a lattice spectrum, so an explicit "modes" spectrum is refused
    certified: bool = False


_KINDS = {
    "solve": _Kind(_run_solve, _problem(_ENDS, rhs=_RHS)),
    "index": _Kind(_run_index, _problem(_ENDS, expected_index=_INTEGER), True),
    "aps_shift": _Kind(_run_aps_shift, _problem(
        ("spectrum", "rho", "right", "a", "b"), a=_NUMBER, b=_NUMBER,
    ), True),
    "graph_identity": _Kind(_run_graph_identity, _problem(_ENDS), True),
    "deform_sweep": _Kind(
        _run_deform_sweep, _problem(_ENDS, steps={"type": "integer", "minimum": 2}), True
    ),
    "fredholm_pair": _Kind(_run_fredholm_pair, _object(
        ("spectrum", "first", "second"), spectrum=_SPECTRUM, first=_CONDITION, second=_CONDITION,
    )),
    "pair_identity": _Kind(_run_pair_identity, _problem(
        ("spectrum", "rho", "right", "first", "second"),
        first=_CONDITION, second=_CONDITION, expect_refusal={"type": "boolean"},
    ), True),
    "split": _Kind(
        _run_split, _problem((*_ENDS, "cut_condition"), cut_condition=_CONDITION), True
    ),
    "cobordism": _Kind(_run_cobordism, _object(
        ("n", "slope", "band_limit"),
        n=_COUNT, slope=_NUMBER, offset=_array(_NUMBER, minItems=2, maxItems=2),
        zeros=_array(_INTEGER), band_limit=_NON_NEGATIVE, rho=_POSITIVE,
    ), True),
    "greens": _Kind(_run_greens, _SAMPLED),
    "energy": _Kind(_run_energy, _SAMPLED),
    "ode_bounds": _Kind(_run_ode_bounds, _object(
        ("lambdas", "rho"), lambdas=_array(_NUMBER, minItems=1), rho=_POSITIVE, n_rhs=_COUNT,
    )),
    "extension_bound": _Kind(_run_extension_bound, _object(
        ("spectrum", "cut", "r", "rho"),
        spectrum=_SPECTRUM, cut=_NUMBER, r=_POSITIVE, rho=_POSITIVE, n_samples=_COUNT,
    )),
    "norm_probe": _Kind(_run_norm_probe, _object(
        ("spectrum", "cut1", "cut2"),
        spectrum=_SPECTRUM, cut1=_NUMBER, cut2=_NUMBER, n_samples=_COUNT,
    )),
}
KINDS = tuple(_KINDS)

_SCENARIO = _object(
    ("kind", "payload"),
    id={"type": "string"}, kind={"enum": KINDS}, seed=_NON_NEGATIVE_INTEGER, truncation=_COUNT,
    payload={"type": "object"},
)


def run(s: Scenario) -> Report:
    """Execute one scenario; deterministic given (payload, seed, truncation)."""
    start = time.perf_counter()
    rng = np.random.default_rng(s.seed)
    try:
        result = _KINDS[s.kind].run(s, rng)
    except Exception as e:  # one failing scenario must not abort the batch
        return Report(
            s,
            {"error": f"{type(e).__name__}: {e}", "error_type": type(e).__name__},
            False,
            time.perf_counter() - start,
        )
    rows = []
    if len(result) == 3:
        outputs, passed, rows = result
    else:
        outputs, passed = result
    return Report(s, outputs, bool(passed), time.perf_counter() - start, rows)


# -- emission ---------------------------------------------------------------

def _csv_row(report: Report, outputs: Optional[dict] = None, suffix: str = "") -> list:
    o = outputs if outputs is not None else report.outputs
    residual_keys = ("residual_max", "min_slack", "constant")
    residual = next(
        (
            o[k]
            for k in residual_keys
            if isinstance(o.get(k), (int, float)) and not isinstance(o.get(k), bool)
        ),
        "",
    )
    return [
        report.scenario.scenario_id + suffix,
        report.scenario.kind,
        o.get("index", o.get("value", "")),
        o.get("dim_ker", ""),
        o.get("dim_coker", ""),
        residual,
        str(report.passed).lower() if not suffix else "",
        f"{report.seconds:.3f}" if not suffix else "",
    ]


def emit(reports: list, fmt: str) -> bytes:
    """Render reports as json, csv (fixed header), or markdown."""
    if fmt == "json":
        doc = [
            {
                "scenario_id": r.scenario.scenario_id,
                "kind": r.scenario.kind,
                "seed": r.scenario.seed,
                "outputs": r.outputs,
                "pass": r.passed,
                "seconds": r.seconds,
                "rows": r.rows,
            }
            for r in reports
        ]
        return (json.dumps(doc, indent=2, default=str) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_HEADER)
        for r in reports:
            if r.rows:
                for row in r.rows:
                    writer.writerow(_csv_row(r, row, suffix=f"/step{row.get('step', '')}"))
                verdict = dict(r.outputs)
                writer.writerow(_csv_row(r, verdict))
            else:
                writer.writerow(_csv_row(r))
        return buf.getvalue().encode()
    if fmt == "md":
        lines = ["| scenario | kind | lhs | rhs | pass | detail |", "|---|---|---|---|---|---|"]
        for r in reports:
            o = r.outputs
            lhs = o.get("lhs", o.get("index_b", o.get("index_1", o.get("glued", o.get("index", "")))))
            rhs = o.get("rhs", o.get("mode_count", o.get("pair_index", "")))
            detail = "; ".join(
                f"{k}={v}" for k, v in o.items() if k not in ("certificate",) and not isinstance(v, dict)
            )
            lines.append(
                f"| {r.scenario.scenario_id} | {r.scenario.kind} | {lhs} | {rhs} | "
                f"{'pass' if r.passed else 'FAIL'} | {detail} |"
            )
        return ("\n".join(lines) + "\n").encode()
    raise ScenarioError(f"unknown format {fmt!r}")


def run_all(scenarios: list, jobs: int = 1) -> list:
    """Run scenarios on a thread pool, merging reports in input order."""
    if jobs <= 1 or len(scenarios) <= 1:
        return [run(s) for s in scenarios]
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run, scenarios))


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="apslab", description="Run boundary-value scenario files and emit reports."
    )
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", default="json", choices=["json", "csv", "md"])
    parser.add_argument("--truncation", type=int, default=None, help="override truncation N")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seeds")
    parser.add_argument("--jobs", type=int, default=1, help="worker pool size")
    args = parser.parse_args(argv)

    try:
        # the overrides obey the rules that the file's own fields obey
        for name, rule in (("truncation", _COUNT), ("seed", _NON_NEGATIVE_INTEGER)):
            if getattr(args, name) is not None:
                _check(getattr(args, name), rule, f"--{name}")
        with open(args.scenario, "rb") as fh:
            scenarios = parse_scenario_file(fh.read())
    except (OSError, ScenarioError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    for s in scenarios:
        if args.truncation is not None:
            s.truncation = args.truncation
        if args.seed is not None:
            s.seed = args.seed

    reports = run_all(scenarios, args.jobs)
    payload = emit(reports, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())

    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
