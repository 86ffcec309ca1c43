import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydcomp import physics
from rydcomp.errors import (
    EnumerationBudgetError,
    GeometryError,
    ValidationError,
)
from rydcomp.gadgets import make_gadget


def brute_energy(positions, detunings, mask, c6):
    """Independent O(n^2) reference implementation used as the oracle."""
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    det = np.broadcast_to(np.asarray(detunings, dtype=float), (n,))
    exc = [i for i in range(n) if (mask >> i) & 1]
    e = -sum(det[i] for i in exc)
    for a in range(len(exc)):
        for b in range(a + 1, len(exc)):
            r = math.dist(pos[exc[a]], pos[exc[b]])
            e += c6 / r**6
    return e


def chain(n, spacing=1.0):
    return np.array([[i * spacing, 0.0] for i in range(n)])


class TestConfig:
    def test_derived_scales(self):
        cfg = physics.PhysicsConfig(interaction_ratio=3.0)
        assert cfg.c6 == pytest.approx(3.0)
        assert cfg.energy_unit == pytest.approx(3.0)
        assert cfg.blockade_radius == pytest.approx(3.0 ** (1.0 / 6.0))
        assert 1.0 < cfg.blockade_radius < 2.0

    def test_scales_with_spacing_and_detuning(self):
        cfg = physics.PhysicsConfig(interaction_ratio=4.0, spacing=2.0, detuning=5.0)
        assert cfg.c6 == pytest.approx(4.0 * 5.0 * 64.0)
        assert cfg.blockade_radius == pytest.approx(4.0 ** (1.0 / 6.0) * 2.0)
        # blockade radius is where vdW equals the detuning
        assert physics.vdw(cfg.blockade_radius, cfg.c6) == pytest.approx(5.0)

    def test_ratio_bounds_enforced(self):
        with pytest.raises(ValidationError):
            physics.PhysicsConfig(interaction_ratio=1.0)
        with pytest.raises(ValidationError):
            physics.PhysicsConfig(interaction_ratio=64.0)
        with pytest.raises(ValidationError):
            physics.PhysicsConfig(interaction_ratio=3.0, spacing=0.0)


class TestPairEnergies:
    def test_vdw_values(self):
        assert physics.vdw(1.0, 3.0) == pytest.approx(3.0)
        assert physics.vdw(2.0, 3.0) == pytest.approx(3.0 / 64.0)
        np.testing.assert_allclose(
            physics.vdw([1.0, 2.0], 1.0), [1.0, 1.0 / 64.0]
        )

    def test_pair_matrix_matches_vdw(self):
        pos = chain(4)
        v = physics.pair_matrix(pos, 3.0)
        assert v[0, 0] == 0.0
        assert v[0, 1] == pytest.approx(3.0)
        assert v[0, 2] == pytest.approx(3.0 / 64.0)
        assert v[0, 3] == pytest.approx(3.0 / 729.0)
        np.testing.assert_allclose(v, v.T)

    def test_pair_matrix_rejects_coincident(self):
        with pytest.raises(GeometryError):
            physics.pair_matrix([[0.0, 0.0], [0.0, 0.0]], 1.0)


class TestDiagonalEnergy:
    def test_alternating_chain_energy(self):
        # five atoms at unit spacing, every other one excited, ratio 3:
        # -3*detuning + U0*(1/64 + 1/64 + 1/4096)
        pos = chain(5)
        mask = physics.mask_of([0, 2, 4])
        e = physics.diagonal_energy(pos, 1.0, mask, c6=3.0)
        assert e == pytest.approx(-3.0 + 3.0 * (2.0 / 64.0 + 1.0 / 4096.0))

    def test_empty_and_single(self):
        pos = chain(3)
        assert physics.diagonal_energy(pos, 1.0, 0, c6=3.0) == 0.0
        assert physics.diagonal_energy(pos, 1.0, 0b010, c6=3.0) == pytest.approx(-1.0)

    def test_site_detunings_vector(self):
        pos = chain(3)
        det = [0.5, 1.0, 2.0]
        e = physics.diagonal_energy(pos, det, 0b101, c6=1.0)
        assert e == pytest.approx(-2.5 + 1.0 / 64.0)

    def test_coincident_excited_raises(self):
        pos = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(GeometryError):
            physics.diagonal_energy(pos, 1.0, 0b011, c6=1.0)
        # coincidence between a ground-state atom and anything is tolerated
        e = physics.diagonal_energy(pos, 1.0, 0b101, c6=1.0)
        assert e == pytest.approx(-2.0 + 1.0)

    def test_pair_energy_override(self):
        pos = chain(3)
        pe = np.full((3, 3), 7.0)
        e = physics.diagonal_energy(pos, 1.0, 0b111, pair_energy=pe)
        assert e == pytest.approx(-3.0 + 3 * 7.0)

    @given(
        st.integers(min_value=0, max_value=2**6 - 1),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_reference(self, mask, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 5, size=(6, 2))
        det = rng.uniform(0.5, 2.0, size=6)
        expected = brute_energy(pos, det, mask, 2.7)
        got = physics.diagonal_energy(pos, det, mask, c6=2.7)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


@functools.lru_cache(maxsize=None)
def catalogue_gadget(spec):
    kind, _, length = spec.partition(":")
    cfg = physics.PhysicsConfig(interaction_ratio=3.0)
    return make_gadget(kind, config=cfg, length=int(length) if length else None), cfg


class TestMovingEnergy:
    @pytest.mark.parametrize(
        "spec", ["kite", "f3", "fork", "three_body", "link:5", "link:21"]
    )
    @given(st.lists(st.floats(0.25, 6.0), min_size=4, max_size=4))
    @example([0.25] * 4)
    @example([6.0] * 4)
    @settings(max_examples=40, deadline=None)
    def test_port_anchors_bitwise_equal_to_diagonal_energy(self, spec, dists):
        g, cfg = catalogue_gadget(spec)
        rows = []
        for (name, node), d in zip(g.ports.items(), dists):
            axis = np.asarray(g.port_axes[name], dtype=float)
            rows.append(g.positions[node] + d * axis / np.linalg.norm(axis))
        pos = np.vstack([g.positions, rows])
        anchors = range(g.n, len(pos))
        # the kernel ignores where the moving atoms sit at construction
        placeholder = np.vstack([g.positions, np.zeros((len(rows), 2))])
        for state in g.logical_states:
            m = state | physics.mask_of(anchors)
            f = physics.moving_energy(placeholder, cfg.detuning, m, cfg.c6, anchors)
            try:
                expected = physics.diagonal_energy(pos, cfg.detuning, m, cfg.c6)
            except GeometryError:
                with pytest.raises(GeometryError):
                    f(rows)
            else:
                assert f(rows) == expected

    @given(
        st.integers(min_value=0, max_value=2**6 - 1),
        st.integers(min_value=0, max_value=2**6 - 1),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_layouts_bitwise_equal(self, mask, moving_mask, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 5, size=(6, 2))
        det = rng.uniform(0.5, 2.0, size=6)
        moving = physics.nodes_of(moving_mask, 6)
        f = physics.moving_energy(pos, det, mask, 2.7, moving)
        pos[moving] = rng.uniform(0, 5, size=(len(moving), 2))
        assert f(pos[moving]) == physics.diagonal_energy(pos, det, mask, c6=2.7)

    def test_idle_moving_atom_has_no_pairs(self):
        pos = chain(4)
        f = physics.moving_energy(pos, 1.0, 0b0101, 3.0, (1,))
        expected = physics.diagonal_energy(pos, 1.0, 0b0101, c6=3.0)
        assert f([[0.0, 0.0]]) == expected
        assert f([[2.0, 0.0]]) == expected

    def test_nothing_moving(self):
        pos = chain(5)
        f = physics.moving_energy(pos, 1.0, 0b10101, 3.0, ())
        assert f([]) == physics.diagonal_energy(pos, 1.0, 0b10101, c6=3.0)

    def test_moving_onto_excited_atom_raises(self):
        pos = chain(3)
        f = physics.moving_energy(pos, 1.0, 0b111, 1.0, (2,))
        on_top = pos.copy()
        on_top[2] = pos[0]
        with pytest.raises(GeometryError):
            physics.diagonal_energy(on_top, 1.0, 0b111, c6=1.0)
        with pytest.raises(GeometryError):
            f([pos[0]])


class TestMaskHelpers:
    def test_roundtrip(self):
        mask = physics.mask_of([0, 2, 4])
        assert physics.bitstring(mask, 5) == "10101"
        assert physics.mask_from_bitstring("10101") == mask
        assert physics.nodes_of(mask, 5) == [0, 2, 4]

    def test_bit_order_is_atom_order(self):
        assert physics.bitstring(0b001, 3) == "100"
        assert physics.bitstring(0b100, 3) == "001"


class TestSpectrumDense:
    def test_full_enumeration_small(self):
        rng = np.random.default_rng(7)
        pos = rng.uniform(0, 4, size=(8, 2))
        det = rng.uniform(0.8, 1.4, size=8)
        res = physics.spectrum(pos, det, 2.0, window=1e9)
        assert len(res.entries) == 2**8
        assert not res.truncated
        # exhaustive oracle
        expected = sorted(
            (brute_energy(pos, det, m, 2.0), m) for m in range(2**8)
        )
        for ent, (e, m) in zip(res.entries, expected):
            assert ent.energy == pytest.approx(e, abs=1e-10)
        assert res.entries[0].energy == res.ground_energy

    def test_window_and_cap(self):
        pos = chain(4)
        res = physics.spectrum(pos, 1.0, 3.0, window=0.5)
        full = physics.spectrum(pos, 1.0, 3.0, window=1e9)
        e0 = full.ground_energy
        want = [e for e in full.entries if e.energy <= e0 + 0.5 + 1e-12]
        assert [x.config for x in res.entries] == [x.config for x in want]
        capped = physics.spectrum(pos, 1.0, 3.0, window=1e9, cap=5)
        assert capped.truncated and len(capped.entries) == 5
        assert [x.config for x in capped.entries] == [
            x.config for x in full.entries[:5]
        ]

    def test_logical_flags(self):
        pos = chain(3)
        marks = [physics.mask_of([0, 2]), physics.mask_of([1])]
        res = physics.spectrum(pos, 1.0, 3.0, window=1e9, logical_masks=marks)
        flagged = {e.config for e in res.entries if e.logical}
        assert flagged == set(marks)

    def test_deterministic_tie_order(self):
        # two far-separated atoms give degenerate single-excitation states
        pos = np.array([[0.0, 0.0], [1000.0, 0.0]])
        res = physics.spectrum(pos, 1.0, 1.0, window=10.0)
        masks = [e.config for e in res.entries]
        assert masks == sorted(masks, key=lambda m: (res.entries[masks.index(m)].energy, m))


class TestSpectrumBlocks:
    def _layout(self, n, seed=3):
        # clustered but non-degenerate geometry with a safe minimum distance
        rng = np.random.default_rng(seed)
        pts = []
        while len(pts) < n:
            p = rng.uniform(0, 9, size=2)
            if all(math.dist(p, q) > 0.8 for q in pts):
                pts.append(p)
        return np.array(pts)

    def test_agrees_with_dense_oracle(self):
        pos = self._layout(22)
        det = 1.0
        c6 = 2.0
        window = 1.2
        res = physics.spectrum(pos, det, c6, window, hint_configs=())
        # oracle: chunked dense enumeration written here, independent of the
        # module's internals
        n = len(pos)
        v = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    v[i, j] = c6 / math.dist(pos[i], pos[j]) ** 6
        best = np.inf
        kept = []
        cols = np.arange(n, dtype=np.uint64)
        for start in range(0, 2**n, 2**16):
            masks = np.arange(start, min(start + 2**16, 2**n), dtype=np.uint64)
            occ = ((masks[:, None] >> cols) & np.uint64(1)).astype(float)
            e = -occ.sum(1) * det + 0.5 * np.einsum("ij,ij->i", occ @ v, occ)
            best = min(best, float(e.min()))
            kept.append((masks, e))
        want = []
        for masks, e in kept:
            sel = e <= best + window + 1e-12
            want.extend(zip(e[sel].tolist(), masks[sel].tolist()))
        want.sort(key=lambda t: (t[0], t[1]))
        assert len(res.entries) == len(want)
        for ent, (e, m) in zip(res.entries, want):
            assert ent.config == m
            assert ent.energy == pytest.approx(e, abs=1e-9)

    def test_hints_do_not_change_result(self):
        pos = self._layout(22, seed=5)
        a = physics.spectrum(pos, 1.0, 2.0, 0.8)
        hint = a.entries[0].config
        b = physics.spectrum(pos, 1.0, 2.0, 0.8, hint_configs=[hint])
        assert [(x.energy, x.config) for x in a.entries] == [
            (x.energy, x.config) for x in b.entries
        ]

    def test_frontier_budget_raises(self):
        pos = self._layout(24, seed=11)
        with pytest.raises(EnumerationBudgetError):
            physics.spectrum(pos, 1.0, 2.0, window=50.0, max_frontier=50)


def test_rescale():
    out = physics.rescale([2.0, 3.0, 4.0], 2.0, 4.0)
    np.testing.assert_allclose(out, [0.0, 0.25, 0.5])
