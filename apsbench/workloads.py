"""Workload inputs and operations.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Inputs are plain numbers drawn from the
workload seed; the program receives only those numbers.  Operations come in
rounds of a fixed make-up, and a run attempts whole rounds, so the share of
each kind of operation, and of the known-fault operations, is the same in
every run whatever the seed or the run length.

Within a round every operation costs about the same, so a percentile over the
run describes one kind of work.  The structural sizes that the traced
counters depend on (basis size, number of constrained modes per end, W and g
dimensions) are fixed per slot of a round; the seed moves only positions,
lengths and random condition data.  That keeps the per-layer counts equal
across seeds.
"""

from __future__ import annotations

import json
import os

import numpy as np

import apslab
from apslab import scenario_cli

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
BATCH_FILE = os.path.join(BENCH_DIR, "examples.json")

# index_fresh: total_dim 2*128+1 = 257, the ROADMAP reference size.
INDEX_N = 128
INDEX_BAND = 6.0

# index_fresh slots.  ``m_off`` places the right cut relative to the left one
# (see ``cuts``), which fixes the sign-rule kernel and cokernel of the slot.
# Every fresh slot has graph conditions at both ends with five W vectors in
# all, so fresh operations cost the same; APS/APS problems of the same size
# cost about 40% less and would split the median between two kinds of work.
INDEX_SLOTS = (
    {"kind": "graph_both", "m_off": 0, "left_w": (1, 1), "right_w": (1, 2)},
    {"kind": "graph_both", "m_off": 1, "left_w": (1, 1), "right_w": (1, 2)},
    {"kind": "graph_both", "m_off": 0, "left_w": (2, 1), "right_w": (1, 1)},
    {"kind": "graph_both", "m_off": 2, "left_w": (1, 2), "right_w": (1, 1)},
    # Long cylinder with APS ends, the same in every round and for every seed:
    # at rho=25 the dense route counts ker=5, coker=3 instead of 2 and 0
    # (relative 1e-9 SVD cut against exp(lambda*rho) column scaling).
    {"kind": "long_aps", "m_off": -1, "fixed": {"shift": 0.0, "k_left": -4,
                                                "f_left": 0.5, "f_right": 0.5,
                                                "rho": 25.0, "graph_seed": 0}},
)
KNOWN_FAULT_KINDS = ("long_aps",)

# solve_verify: total_dim 2*32+1 = 65 at spacing 0.5, so |lambda| <= 16 and
# |lambda|*rho <= 32, far below the exp underflow limit (~745).
SOLVE_N = 32
SOLVE_SPACING = 0.5
SOLVE_BAND = 2.0
SOLVE_RHS_MODES = 6
SOLVE_RHS_TERMS = 3
# (k_left, m_off) per slot; m_off <= 0 keeps the cokernel trivial.
SOLVE_SLOTS = ((-1, 0), (0, -1), (1, 0), (0, 0))

BATCH_TRUNCATION = 32


def cuts(shift: float, spacing: float, k_left: int, f_left: float, m: int, f_right: float):
    """Left cut a over A and right cut c over -A, both strictly inside spectral gaps.

    With eigenvalues spacing*j + shift, a lies between j=k_left and k_left+1;
    -c lies between j=m-1 and j=m.
    """
    a = shift + spacing * (k_left + f_left)
    c = -(shift + spacing * (m - f_right))
    return a, c


# -- index_fresh --------------------------------------------------------------

def index_round(seed: int, k: int) -> list:
    rng = np.random.default_rng([seed, k, 1])
    ops = []
    for slot in INDEX_SLOTS:
        p = {
            "shift": float(rng.uniform(-0.4, 0.4)),
            "k_left": int(rng.integers(-1, 1)),
            "f_left": float(rng.uniform(0.25, 0.75)),
            "f_right": float(rng.uniform(0.25, 0.75)),
            "rho": float(rng.uniform(0.5, 2.0)),
            "graph_seed": int(rng.integers(2**31)),
        }
        p.update(slot.get("fixed", {}))
        p["kind"] = slot["kind"]
        p["m"] = p["k_left"] + slot["m_off"]
        p["left_w"] = slot.get("left_w")
        p["right_w"] = slot.get("right_w")
        ops.append(p)
    return ops


def index_problem(p: dict, rho: float):
    basis = apslab.EigenmodeBasis.lattice(INDEX_N, shift=p["shift"], band_limit=INDEX_BAND)
    nb = basis.negated()
    a, c = cuts(p["shift"], 1.0, p["k_left"], p["f_left"], p["m"], p["f_right"])
    rng = np.random.default_rng(p["graph_seed"])
    if p["left_w"]:
        wp, wm = p["left_w"]
        left = apslab.seeded_graph_condition(basis, rng, cut=a, dim_w_plus=wp,
                                             dim_w_minus=wm, g_norm=0.7)
    else:
        left = apslab.make_generalized_aps(basis, a)
    if p["right_w"]:
        wp, wm = p["right_w"]
        right = apslab.seeded_graph_condition(nb, rng, cut=c, dim_w_plus=wp,
                                              dim_w_minus=wm, g_norm=0.6)
    else:
        right = apslab.make_generalized_aps(nb, c)
    return apslab.CylinderProblem(basis, apslab.SigmaZero.scalar(basis, 1j), rho, left, right)


def index_op(p: dict) -> dict:
    rep = apslab.index(index_problem(p, p["rho"]))
    return {
        "dim_ker": rep.dim_ker,
        "dim_coker": rep.dim_coker,
        "index": rep.index,
        "doubled_agrees": rep.truncation_certificate["doubled_agrees"],
    }


# -- solve_verify -------------------------------------------------------------

def solve_round(seed: int, k: int) -> list:
    rng = np.random.default_rng([seed, k, 2])
    ops = []
    for k_left, m_off in SOLVE_SLOTS:
        shift = float(rng.uniform(-0.2, 0.2))
        ids = rng.choice(np.arange(-SOLVE_N, SOLVE_N + 1), size=SOLVE_RHS_MODES, replace=False)
        rhs = []
        for j in sorted(int(x) for x in ids):
            lam = SOLVE_SPACING * j + shift
            terms = []
            for _ in range(SOLVE_RHS_TERMS):
                coef = complex(rng.standard_normal(), rng.standard_normal())
                power = int(rng.integers(0, 3))
                mu = complex(rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0))
                if abs(mu + lam) < 0.1:  # keep clear of resonance
                    mu += 0.2
                terms.append((coef, power, mu))
            rhs.append((j, terms))
        ops.append({
            "shift": shift,
            "k_left": k_left,
            "m": k_left + m_off,
            "f_left": float(rng.uniform(0.25, 0.75)),
            "f_right": float(rng.uniform(0.25, 0.75)),
            "rho": float(rng.uniform(0.5, 2.0)),
            "rhs": rhs,
        })
    return ops


def solve_op(p: dict):
    basis = apslab.EigenmodeBasis.lattice(
        SOLVE_N, shift=p["shift"], band_limit=SOLVE_BAND, spacing=SOLVE_SPACING
    )
    nb = basis.negated()
    a, c = cuts(p["shift"], SOLVE_SPACING, p["k_left"], p["f_left"], p["m"], p["f_right"])
    rho = p["rho"]
    P = apslab.CylinderProblem(
        basis, apslab.SigmaZero.scalar(basis, 1j), rho,
        apslab.make_generalized_aps(basis, a), apslab.make_generalized_aps(nb, c),
    )
    profiles = {j: [apslab.Profile.from_terms(terms, 0.0, rho)] for j, terms in p["rhs"]}
    return apslab.solve_bvp(P, apslab.CylinderSection(basis, rho, profiles))


# -- scenario_batch -----------------------------------------------------------

def batch_round(seed: int, k: int) -> list:
    return [{"seed": int(np.random.default_rng([seed, k, 3]).integers(2**31))}]


def batch_op(p: dict) -> dict:
    out = os.path.join(OUT_DIR, f"batch-{os.getpid()}.json")
    code = scenario_cli.main([
        "--scenario", BATCH_FILE, "--jobs", "1", "--truncation", str(BATCH_TRUNCATION),
        "--seed", str(p["seed"]), "--format", "json", "--out", out,
    ])
    return {"exit_code": code, "out": out}


def batch_collect(result: dict) -> dict:
    """Read back the report file of one pass, outside the timed region."""
    with open(result["out"], "rb") as fh:
        return {"exit_code": result["exit_code"], "reports": json.loads(fh.read())}


def load_batch_template() -> dict:
    with open(BATCH_FILE, "rb") as fh:
        return json.loads(fh.read())


def keep(result):
    return result


# name -> (round generator, timed operation, untimed collection of its output)
WORKLOADS = {
    "index_fresh": (index_round, index_op, keep),
    "scenario_batch": (batch_round, batch_op, batch_collect),
    "solve_verify": (solve_round, solve_op, keep),
}
