"""Catalogue gadgets: frozen geometry facts, solved states, fusing by the placer.

The expected logical-state masks below were derived by hand from each
geometry (alternating patterns on chains, corner/midpoint patterns on the
triangle pieces) and are cross-checked here against ``brute_argmax``, a
test-local exhaustive search that never touches the package solver.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcomp.errors import GeometryError, ValidationError
from rydcomp.gadgets import _Builder, make_gadget
from rydcomp.mwis import ud_graph
from rydcomp.physics import PhysicsConfig

from oracles import port_bits, step_energy

CFG = PhysicsConfig(interaction_ratio=3.0)

ALL_KINDS = [
    ("link", 2),
    ("link", 3),
    ("link", 5),
    ("three_body", None),
    ("kite", None),
    ("fork", None),
    ("f3", None),
]


def build(kind, length=None, cfg=CFG):
    return make_gadget(kind, config=cfg, length=length)


def brute_argmax(positions, weights, radius):
    """Exhaustive MWIS by masks, independent of the package graph/solver."""
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    nbr = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(pos[i] - pos[j]) < radius:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    best, masks = 0.0, [0]
    for m in range(1, 1 << n):
        mm, ok = m, True
        while mm:
            i = (mm & -mm).bit_length() - 1
            if nbr[i] & m:
                ok = False
                break
            mm &= mm - 1
        if not ok:
            continue
        w = sum(weights[i] for i in range(n) if (m >> i) & 1)
        if w > best + 1e-9:
            best, masks = w, [m]
        elif w >= best - 1e-9:
            masks.append(m)
    return best, sorted(masks)


def state_weight(g, k):
    return sum(g.weights[i] for i in range(g.n) if (g.logical_states[k] >> i) & 1)


class TestFrozenCatalogue:
    def test_link5(self):
        g = build("link", 5)
        assert list(g.weights) == [1, 2, 2, 2, 1]
        assert g.logical_states == (0b10101, 0b01010)
        assert state_weight(g, 0) == 4.0
        assert len(ud_graph(g.positions, CFG.blockade_radius).edges) == 4
        assert g.ports == {"p0": 0, "p1": 4}
        assert g.comp_slots == {1: (1, 3)}

    def test_three_body(self):
        g = build("three_body")
        assert list(g.weights) == [1, 1, 1, 2, 2, 2]
        # reference: all three corners; then one corner plus the far midpoint
        assert g.logical_states == (0b000111, 0b100001, 0b010010, 0b001100)
        assert state_weight(g, 0) == 3.0
        assert len(ud_graph(g.positions, CFG.blockade_radius).edges) == 9
        assert g.comp_slots == {1: (5,), 2: (4,), 3: (3,)}
        d = np.linalg.norm(g.positions[0] - g.positions[1])
        assert d == pytest.approx(2.0)

    def test_kite(self):
        g = build("kite")
        assert list(g.weights) == [1, 2, 2, 1, 2, 2, 4, 2, 2]
        assert g.logical_states == (
            0b000001111,  # p q r s
            0b001001001,  # p s and the central midpoint
            0b100100010,  # q and the two r-side midpoints
            0b010010100,  # r and the two q-side midpoints
        )
        assert state_weight(g, 0) == 6.0
        assert len(ud_graph(g.positions, CFG.blockade_radius).edges) == 16
        assert g.comp_slots == {1: (6,), 2: (5, 8), 3: (4, 7)}
        # closest non-edge pair sits at sqrt(3): safe margin for 1 < ratio < 27
        dist = np.linalg.norm(g.positions[:, None] - g.positions[None, :], axis=-1)
        non_edge = dist[dist > CFG.blockade_radius]
        assert non_edge.min() == pytest.approx(math.sqrt(3.0))

    def test_fork(self):
        g = build("fork")
        assert list(g.weights) == [1, 3, 2, 1, 2, 1]
        assert g.logical_states == (0b101010, 0b010101)
        assert state_weight(g, 0) == 5.0
        assert len(ud_graph(g.positions, CFG.blockade_radius).edges) == 5
        assert g.comp_slots == {1: (2, 4)}

    def test_f3(self):
        g = build("f3")
        assert g.n == 12
        # core corners absorb the tail junction weight: 1 + 1
        assert list(g.weights) == [2, 2, 2, 2, 2, 2, 2, 1, 2, 1, 2, 1]
        assert g.ports == {"a": 7, "b": 9, "c": 11}
        assert g.logical_states == (2695, 1441, 1618, 2380)
        assert state_weight(g, 0) == 9.0
        assert len(ud_graph(g.positions, CFG.blockade_radius).edges) == 15
        assert g.comp_slots == {1: (5,), 2: (4,), 3: (3,)}


@pytest.mark.parametrize("kind,length", ALL_KINDS)
def test_solver_matches_exhaustive(kind, length):
    g = build(kind, length)
    best, masks = brute_argmax(g.positions, g.weights, CFG.blockade_radius)
    assert sorted(g.logical_states) == masks
    assert state_weight(g, 0) == pytest.approx(best)


@pytest.mark.parametrize("kind,length", ALL_KINDS)
def test_logical_states_are_degenerate(kind, length):
    g = build(kind, length)
    ref = state_weight(g, 0)
    for k in range(1, len(g.logical_states)):
        assert state_weight(g, k) == pytest.approx(ref)


@pytest.mark.parametrize("kind,length", ALL_KINDS)
def test_step_ground_configs_are_logical(kind, length):
    g = build(kind, length)
    coupling = 2.0 * float(g.weights.max()) + 1.0
    graph = ud_graph(g.positions, CFG.blockade_radius)
    energies = [step_energy(graph, g.weights, coupling, m) for m in range(1 << g.n)]
    floor = min(energies)
    ground = {m for m, e in enumerate(energies) if abs(e - floor) < 1e-9}
    assert ground == set(g.logical_states)


def test_kite_enforces_odd_parity_with_passthrough():
    g = build("kite")
    seen = set()
    for k in range(4):
        p, q, r, s = port_bits(g, k)
        assert p ^ q ^ r == 1
        assert s == p
        seen.add((p, q, r))
    assert seen == {(1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_three_body_port_patterns():
    g = build("three_body")
    assert [port_bits(g, k) for k in range(4)] == [
        (1, 1, 1),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_fork_is_inverting():
    g = build("fork")
    assert port_bits(g, 0) == (0, 1, 1)  # branch ends on, trunk off
    assert port_bits(g, 1) == (1, 0, 0)


def test_even_link_ports_are_opposite_phase():
    g = build("link", 2)
    assert g.logical_states == (0b01, 0b10)
    assert [port_bits(g, k) for k in range(2)] == [(1, 0), (0, 1)]


@given(
    angle=st.floats(0.0, 2.0 * math.pi),
    tx=st.floats(-5.0, 5.0),
    ty=st.floats(-5.0, 5.0),
)
@settings(max_examples=25, deadline=None)
def test_rigid_motion_preserves_structure(angle, tx, ty):
    g = build("kite")
    moved = g.placed(rotation=angle, translation=(tx, ty))
    d0 = np.linalg.norm(g.positions[:, None] - g.positions[None, :], axis=-1)
    d1 = np.linalg.norm(moved.positions[:, None] - moved.positions[None, :], axis=-1)
    assert np.allclose(d0, d1, atol=1e-9)
    assert moved.logical_states == g.logical_states
    edges = ud_graph(g.positions, CFG.blockade_radius).edges
    assert ud_graph(moved.positions, CFG.blockade_radius).edges == edges
    for v in moved.port_axes.values():
        assert math.hypot(*v) == pytest.approx(1.0)


class TestAmalgamation:
    """Two copies of a link fused end to end by the placer.

    The second copy is shifted by ``shift`` so its p0 sits on the first's p1.
    """

    def fuse(self, link, shift):
        placer = _Builder(CFG)
        placer.add(link)
        placer.add(link.placed(translation=(shift, 0.0)), merge={0: link.ports["p1"]})
        pos, w, _ = placer.finish()
        return pos, w

    def test_two_short_links_make_a_three_chain(self):
        pos, w = self.fuse(build("link", 2), 1.0)
        ref = build("link", 3)
        np.testing.assert_array_equal(pos, ref.positions)
        np.testing.assert_array_equal(w, ref.weights)

    def test_link3_pair_equals_link5(self):
        pos, w = self.fuse(build("link", 3), 2.0)
        ref = build("link", 5)
        np.testing.assert_array_equal(pos, ref.positions)
        # the fused atom carries both end weights: 1 + 1
        np.testing.assert_array_equal(w, ref.weights)
        assert w[2] == 2.0

    def test_ports_must_coincide(self):
        refusal = r"cannot fuse atom 0 of link onto atom 2: positions differ by 0\.5"
        with pytest.raises(GeometryError, match=refusal):
            self.fuse(build("link", 3), 2.5)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="catalogue"):
            build("pentagon")

    def test_link_needs_length(self):
        with pytest.raises(ValidationError, match="length"):
            build("link")
        with pytest.raises(ValidationError, match="at least 2"):
            build("link", 1)

    def test_only_links_take_lengths(self):
        with pytest.raises(ValidationError, match="length"):
            build("kite", 5)

    def test_fork_needs_moderate_ratio(self):
        with pytest.raises(GeometryError, match="fork"):
            build("fork", cfg=PhysicsConfig(interaction_ratio=8.5))

    def test_kite_survives_weak_interactions(self):
        g = build("kite", cfg=PhysicsConfig(interaction_ratio=1.5))
        assert g.logical_states == build("kite").logical_states
