"""The per-mode arrays are the one representation of a spectrum.

``EigenmodeBasis`` keeps ids, components, eigenvalues, fiber dimensions and
offsets as sorted arrays, and builds ``Mode`` records only when ``modes`` is
read.  The ordering test checks the arrays against a sort of ``Mode`` records
by (component, eigenvalue, id), ties and signed zeros included, and checks
that the factories that derive a basis from another agree with building the
derived basis from its records.  The size guard counts ``Mode`` constructions
while an index problem is built and certified: none at any size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apslab.boundary_conditions import seeded_graph_condition
from apslab.cylinder_solver import CylinderProblem
from apslab.index_calculus import index
from apslab.spectral_core import EigenmodeBasis, Mode, SigmaZero

BAND = 0.5


def record_order(modes):
    return sorted(modes, key=lambda m: (m.component_id, m.eigenvalue, m.mode_id))


def assert_matches(basis, records, pairings=None):
    """``basis`` holds ``records`` in record order, with their offsets and coordinates."""
    want = record_order(records)
    fibers = [m.fiber_dim for m in want]
    assert basis.modes == tuple(want)
    assert basis.mode_ids.tolist() == [m.mode_id for m in want]
    assert basis.mode_components.tolist() == [m.component_id for m in want]
    assert basis.mode_fibers.tolist() == fibers
    assert basis.mode_offsets.tolist() == np.cumsum([0] + fibers)[:-1].tolist()
    assert basis.total_dim == sum(fibers)
    lam = np.repeat([float(m.eigenvalue) for m in want], fibers)
    # bitwise, so that the sign of a zero eigenvalue is kept
    assert basis.coord_eigenvalue.tobytes() == lam.tobytes()
    assert basis.mode_eigenvalues.tobytes() == np.array([m.eigenvalue for m in want]).tobytes()
    assert basis.coord_mode.tolist() == np.repeat(np.arange(len(want)), fibers).tolist()
    assert basis.pairings == pairings
    if pairings:
        assert list(basis.pairings.items()) == list(pairings.items())


mode_lists = st.integers(1, 12).flatmap(
    lambda size: st.tuples(
        st.permutations(range(-20, 20)).map(lambda ids: ids[:size]),
        st.lists(st.sampled_from(["c0", "c1", "c2"]), min_size=size, max_size=size),
        st.lists(st.sampled_from([-1.5, -1.0, -0.0, 0.0, 1.0, 2.5]), min_size=size, max_size=size),
        st.lists(st.integers(1, 3), min_size=size, max_size=size),
    )
).map(lambda t: [Mode(*m) for m in zip(*t)]).filter(
    lambda modes: max(abs(m.eigenvalue) for m in modes) > BAND
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mode_lists, st.integers(0, 2**32 - 1))
def test_arrays_follow_the_record_order(modes, seed):
    basis = EigenmodeBasis(modes, BAND)
    assert_matches(basis, modes)
    assert basis.same_modes(EigenmodeBasis(modes[::-1], BAND))

    negated = [Mode(m.mode_id, m.component_id, -m.eigenvalue, m.fiber_dim) for m in modes]
    assert_matches(basis.negated(), negated)

    rng = np.random.default_rng(seed)
    new = {m.mode_id: float(rng.choice([-2.0, -0.0, 0.0, 0.5, 2.0])) for m in modes}
    replaced = [Mode(m.mode_id, m.component_id, new[m.mode_id], m.fiber_dim) for m in modes]
    if max(abs(v) for v in new.values()) > BAND:
        assert_matches(basis.with_eigenvalues(new), replaced)

    copies, pairings = [], {}
    for m in record_order(modes):
        i1, i2 = 2 * m.mode_id, 2 * m.mode_id + 1
        copies.append(Mode(i1, m.component_id + ".copy1", m.eigenvalue, m.fiber_dim))
        copies.append(Mode(i2, m.component_id + ".copy2", -m.eigenvalue, m.fiber_dim))
        pairings[i1], pairings[i2] = i2, i1
    assert_matches(basis.doubled(), copies, pairings)


def test_records_are_built_on_demand_only():
    basis = EigenmodeBasis.lattice(3, shift=0.25)
    assert "modes" not in vars(basis)
    assert [m.eigenvalue for m in basis.modes] == (np.arange(-3, 4) + 0.25).tolist()
    assert basis.modes is basis.modes
    with pytest.raises(ValueError):
        basis.mode_eigenvalues[0] = 1.0


def test_array_input_is_validated_like_records():
    ids, comps = np.array([0, 1]), np.array(["c0", "c0"])
    with pytest.raises(ValueError, match="fiber_dim must be a positive integer"):
        EigenmodeBasis((ids, comps, np.array([0.0, 1.0]), np.array([1, 0])), 0.5)
    with pytest.raises(ValueError, match="eigenvalue must be finite"):
        EigenmodeBasis((ids, comps, np.array([0.0, np.inf]), np.array([1, 1])), 0.5)
    with pytest.raises(ValueError, match="duplicate mode_id: 1"):
        EigenmodeBasis((np.array([1, 1]), comps, np.array([0.0, 1.0]), np.array([1, 1])), 0.5)
    with pytest.raises(ValueError, match="at least one mode"):
        EigenmodeBasis([], 0.5)


# -- size guard -------------------------------------------------------------------

def graph_problem(n):
    """The index_fresh graph/graph problem at total_dim 2n + 1."""
    basis = EigenmodeBasis.lattice(n, shift=0.13, band_limit=6.0)
    nb = basis.negated()
    rng = np.random.default_rng(7)
    left = seeded_graph_condition(basis, rng, cut=-0.37, dim_w_plus=1, dim_w_minus=1, g_norm=0.7)
    right = seeded_graph_condition(nb, rng, cut=-0.6, dim_w_plus=1, dim_w_minus=2, g_norm=0.6)
    return CylinderProblem(basis, SigmaZero.scalar(basis, 1j), 1.3, left, right)


@pytest.mark.parametrize("n", [128, 2048])
def test_no_mode_records_while_building_and_certifying(n, monkeypatch):
    built = []
    post_init = Mode.__post_init__

    def counting(self):
        built.append(self.mode_id)
        post_init(self)

    monkeypatch.setattr(Mode, "__post_init__", counting)
    P = graph_problem(n)
    assert built == []
    rep = index(P)
    assert rep.truncation_certificate == {"N_used": 2 * n + 1, "doubled_agrees": True}
    assert built == []
    assert len(P.basis.modes) == 2 * n + 1 and len(built) == 2 * n + 1  # the counter counts
