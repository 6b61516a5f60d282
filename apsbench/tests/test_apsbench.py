"""Tests of the benchmark's own machinery: tracer hooks, self time, and the checks.

    python3 -m pytest -q apsbench/tests
"""

import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import apslab  # noqa: E402
from apslab import cylinder_solver, index_calculus  # noqa: E402

import checks  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def small_problem():
    b = apslab.EigenmodeBasis.lattice(8, band_limit=4.0)
    nb = b.negated()
    return apslab.CylinderProblem(
        b, apslab.SigmaZero.scalar(b, 1j), 1.0,
        apslab.make_generalized_aps(b, b.cut_above(0.0)),
        apslab.make_generalized_aps(nb, nb.cut_above(0.0)),
    )


def test_install_rebinds_imported_names_and_uninstall_restores():
    original = cylinder_solver.adjoint_problem
    t = tr.Tracer()
    t.install()
    try:
        assert index_calculus.adjoint_problem is cylinder_solver.adjoint_problem
        assert cylinder_solver.adjoint_problem is not original
        rep = t.run_op(apslab.index, small_problem())
    finally:
        t.uninstall()
    assert cylinder_solver.adjoint_problem is original
    assert index_calculus.adjoint_problem is original
    assert (rep.dim_ker, rep.dim_coker) == (1, 0)
    calls = t.summary()["by_name"]
    assert calls["cylinder_solver:adjoint_problem"]["calls"] == 2  # problem and its doubling
    assert calls["index_calculus:kernel_dim"]["calls"] == 4
    assert calls["linalg:svd"]["calls"] >= 4


def test_self_time_excludes_children():
    t = tr.Tracer()
    inner = t._wrap("a:inner", lambda: sum(range(20000)))
    outer = t._wrap("b:outer", lambda: inner() + inner())
    outer()
    s = t.summary()
    o, i = s["by_name"]["b:outer"], s["by_name"]["a:inner"]
    assert i["calls"] == 2
    assert o["self_s"] == pytest.approx(o["total_s"] - i["total_s"], abs=1e-12)
    assert s["layer_self_s"]["a"] == pytest.approx(i["self_s"])


def test_missing_layer_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tr, "LAYERS", tr.LAYERS + ("no_such_layer",))
    t = tr.Tracer()
    t.install()
    t.uninstall()
    assert not any(key.startswith("no_such_layer:") for key in t.wrapped)
    assert "spectral_core:SigmaZero.__init__" in t.wrapped


def test_sign_rule_matches_quick_start():
    eigs = checks.lattice_eigenvalues(8, 1.0, 0.0)
    assert checks.sign_rule(eigs, 0.5, 0.5) == (1, 0)
    assert checks.sign_rule(eigs, -3.5, 5.5) == (2, 0)


def test_index_expected_matches_program_on_a_fresh_round():
    for p in wl.index_round(7, 0):
        if p["kind"] in wl.KNOWN_FAULT_KINDS:
            continue
        rep = apslab.index(wl.index_problem(p, p["rho"]), route="banded", certify=False)
        assert rep.index == checks.index_expected(p)["index"], p["kind"]


def test_solve_check_accepts_the_program_and_rejects_a_perturbed_profile():
    p = wl.solve_round(3, 0)[0]
    result = wl.solve_op(p)
    assert checks.solve_ok(p, result)
    j = p["rhs"][0][0]
    prof = result.particular.profiles[j][0]
    result.particular.profiles[j] = [prof + apslab.Profile.constant(1e-4, prof.t0, prof.t1)]
    assert not checks.solve_ok(p, result)


def test_batch_check_uses_pass_flags_and_aps_shift_counts():
    template = wl.load_batch_template()
    reports = [{"scenario_id": s["id"], "pass": True, "outputs": {}} for s in template["scenarios"]]
    shift = next(r for r, s in zip(reports, template["scenarios"]) if s["kind"] == "aps_shift")
    shift["outputs"]["mode_count"] = 2  # eigenvalues j + 0.25 in [-0.5, 1.5)
    assert checks.batch_ok(template, {"exit_code": 0, "reports": reports})
    shift["outputs"]["mode_count"] = 3
    assert not checks.batch_ok(template, {"exit_code": 0, "reports": reports})
    shift["outputs"]["mode_count"] = 2
    reports[0]["pass"] = False
    assert not checks.batch_ok(template, {"exit_code": 0, "reports": reports})
