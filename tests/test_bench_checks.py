"""The benchmark's own output checks hold on every ``index_fresh`` slot.

``apsbench`` counts an ``index_fresh`` operation as failed when
``checks.index_ok`` (the sign rule, or the graph-index formula with graph ends)
or ``checks.rho_invariant`` (the index at half the length) is false.  Both run
here on every slot of round 0 for seeds 1-3, the long_aps slot included, with
``apsbench/workloads.py`` and ``apsbench/checks.py`` imported as they stand.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "apsbench"))

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("slot", range(len(workloads.INDEX_SLOTS)))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_index_fresh_round_0_passes_the_benchmark_checks(seed, slot):
    p = workloads.index_round(seed, 0)[slot]
    out = workloads.index_op(p)
    assert checks.index_ok(p, out)
    assert checks.rho_invariant(p, out)
