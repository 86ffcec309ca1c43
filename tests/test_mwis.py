import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcomp import mwis, physics
from rydcomp.errors import ValidationError

from oracles import enumerate_independent_sets, matrix_energy, step_energy


def chain(n, spacing=1.0):
    return np.array([[i * spacing, 0.0] for i in range(n)])


def degree(g, i):
    return bin(g.neighbor_masks[i]).count("1")


def independent(g, mask):
    return not any(g.neighbor_masks[i] & mask for i in range(g.n) if (mask >> i) & 1)


def brute_mwis(g, weights, tol=1e-9):
    """Oracle: scan every independent set."""
    best = 0.0
    scored = []
    for m in enumerate_independent_sets(g):
        v = sum(weights[i] for i in range(g.n) if (m >> i) & 1)
        scored.append((v, m))
        best = max(best, v)
    masks = sorted(m for v, m in scored if v >= best - tol)
    return best, masks


class TestUDGraph:
    def test_strict_threshold(self):
        g = mwis.ud_graph(chain(3), 1.2)
        assert g.edges == ((0, 1), (1, 2))
        assert degree(g, 1) == 2
        assert g.neighbor_masks[1] == 0b101

    def test_exact_radius_is_non_edge_and_flagged(self):
        with pytest.warns(UserWarning, match="unit-disk radius"):
            g = mwis.ud_graph(chain(3), 1.0)
        assert g.edges == ()
        assert g.boundary_pairs == ((0, 1), (1, 2))

    def test_independent_check(self):
        g = mwis.ud_graph(chain(3), 1.2)
        assert independent(g, 0b101)
        assert not independent(g, 0b011)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_edges_match_pairwise_distances(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 3, size=(7, 2))
        r = 1.3
        g = mwis.ud_graph(pos, r)
        for i in range(7):
            for j in range(i + 1, 7):
                d = math.dist(pos[i], pos[j])
                assert ((i, j) in g.edges) == (d < r)


class TestEnumeration:
    def test_triangle(self):
        pos = [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]
        g = mwis.ud_graph(pos, 1.1)
        sets = sorted(enumerate_independent_sets(g))
        assert sets == [0b000, 0b001, 0b010, 0b100]

    def test_path_of_three(self):
        g = mwis.ud_graph(chain(3), 1.2)
        sets = sorted(enumerate_independent_sets(g))
        assert sets == [0b000, 0b001, 0b010, 0b100, 0b101]
        assert len(sets) == 5

    def test_no_duplicates_random(self):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 3, size=(10, 2))
        g = mwis.ud_graph(pos, 1.2)
        sets = list(enumerate_independent_sets(g))
        assert len(sets) == len(set(sets))


class TestSolve:
    def test_weighted_path(self):
        g = mwis.ud_graph(chain(3), 1.2)
        sol = mwis.solve_mwis(g, [1.0, 2.0, 1.0])
        assert sol.value == pytest.approx(2.0)
        assert sol.masks == (0b010, 0b101)

    def test_five_chain_copy_weights(self):
        # weights 1,2,2,2,1: both alternating patterns are maximisers at 4
        g = mwis.ud_graph(chain(5), 1.2)
        sol = mwis.solve_mwis(g, [1.0, 2.0, 2.0, 2.0, 1.0])
        assert sol.value == pytest.approx(4.0)
        assert sol.masks == (physics.mask_of([1, 3]), physics.mask_of([0, 2, 4]))

    def test_tolerance_collects_near_ties(self):
        g = mwis.ud_graph(chain(2), 1.5)
        sol = mwis.solve_mwis(g, [1.0, 1.0 + 5e-10])
        assert sol.masks == (0b01, 0b10)
        tight = mwis.solve_mwis(g, [1.0, 1.0 + 5e-10], tol=1e-12)
        assert tight.masks == (0b10,)

    def test_rejects_bad_weights(self):
        g = mwis.ud_graph(chain(2), 1.5)
        with pytest.raises(ValidationError):
            mwis.solve_mwis(g, [1.0])
        with pytest.raises(ValidationError):
            mwis.solve_mwis(g, [1.0, -0.5])

    def test_disconnected_components(self):
        pos = np.vstack([chain(3), chain(3) + [100.0, 0.0]])
        g = mwis.ud_graph(pos, 1.2)
        sol = mwis.solve_mwis(g, [1.0, 2.0, 1.0, 1.0, 2.0, 1.0])
        assert sol.value == pytest.approx(4.0)
        assert len(sol.masks) == 4  # 2 x 2 product of per-chain maximisers

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        pos = rng.uniform(0, 3.2, size=(n, 2))
        w = rng.uniform(0.2, 3.0, size=n)
        g = mwis.ud_graph(pos, 1.25)
        sol = mwis.solve_mwis(g, w)
        best, masks = brute_mwis(g, w)
        assert sol.value == pytest.approx(best, abs=1e-12)
        assert list(sol.masks) == masks

    def test_zero_tolerance_keeps_the_optimum(self):
        # float sums round differently along different paths; at tol=0 the
        # optimum must still come out (a memoised branch and bound returned
        # no maximiser on 12 of these 200 layouts)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 13))
            pos = rng.uniform(0, 3.2, size=(n, 2))
            w = rng.uniform(0.1, 3.0, size=n)
            g = mwis.ud_graph(pos, 1.25)
            sol = mwis.solve_mwis(g, w, tol=0.0)
            _, masks = brute_mwis(g, w, tol=1e-12)
            assert sol.masks and set(sol.masks) <= set(masks)


@st.composite
def tied_layouts(draw):
    """Up to 12 atoms on a half-spacing grid with half-integer weights.

    Exact weights make degenerate maximisers common, a 4 x 4 field often
    leaves the graph disconnected, and no grid distance equals the radius
    1.25, so no boundary pair is flagged.
    """
    n = draw(st.integers(1, 12))
    grid = st.tuples(st.integers(0, 8), st.integers(0, 8))
    cells = draw(st.lists(grid, min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return np.array(cells) / 2.0, np.array(weights) / 2.0


class TestSweepSolver:
    @given(tied_layouts())
    @settings(max_examples=80, deadline=None)
    def test_tied_weights_match_enumeration_oracle(self, layout):
        pos, w = layout
        g = mwis.ud_graph(pos, 1.25)
        sol = mwis.solve_mwis(g, w)
        best, masks = brute_mwis(g, w)
        assert sol.value == best
        assert list(sol.masks) == masks

    @given(tied_layouts(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_relabelling_relabels_the_maximisers(self, layout, rnd):
        pos, w = layout
        perm = list(range(len(w)))
        rnd.shuffle(perm)  # new label k is old atom perm[k]
        sol = mwis.solve_mwis(mwis.ud_graph(pos, 1.25), w)
        moved = mwis.solve_mwis(mwis.ud_graph(pos[perm], 1.25), w[perm])
        relabelled = sorted(
            sum(1 << k for k, old in enumerate(perm) if (m >> old) & 1)
            for m in sol.masks
        )
        assert moved.value == sol.value
        assert list(moved.masks) == relabelled


class TestStepEnergy:
    def test_adjacent_pair_pays_coupling(self):
        g = mwis.ud_graph(chain(3), 1.2)
        e = step_energy(g, 1.0, 3.0, 0b011)
        assert e == pytest.approx(-2.0 + 3.0)

    def test_independent_config_counts_only_detunings(self):
        g = mwis.ud_graph(chain(3), 1.2)
        assert step_energy(g, [1.0, 2.0, 1.0], 3.0, 0b101) == pytest.approx(-2.0)

    def test_warns_outside_validity(self):
        g = mwis.ud_graph(chain(2), 1.2)
        with pytest.warns(UserWarning, match="0 < detuning < coupling"):
            step_energy(g, 5.0, 3.0, 0b01)

    def test_matches_step_potential_diagonal_energy(self):
        # same model two ways: a step pair matrix summed like the physics
        # module's pair sum vs the graph-based sum, across every configuration
        pos = chain(5)
        cfg = physics.PhysicsConfig(interaction_ratio=3.0)
        g = mwis.ud_graph(pos, cfg.blockade_radius)
        u = cfg.energy_unit
        d = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(-1))
        step = np.where((d < cfg.blockade_radius) & (d > 0), u, 0.0)
        for config in range(2**5):
            a = matrix_energy(step, cfg.detuning, config)
            b = step_energy(g, cfg.detuning, u, config)
            assert a == pytest.approx(b, abs=1e-12)
