"""Weight programming: tail compensation, homogenisation, anchors, balance.

The five-atom chain's tail corrections are checked against pair sums
written out by hand (three next-nearest pairs at distances 2, 2 and 4).
Everything else is held to the invariants each step promises: corrected
weights tie the logical manifold exactly, the homogeneous map preserves
per-state totals, and anchored systems put their logical states at the
bottom of the exact spectrum, degenerate to solver tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcomp.assembly import assemble_layout, logical_subspace, lone_instance
from rydcomp.errors import (
    GeometryError,
    NoRootInRange,
    ValidationError,
)
from rydcomp.gadgets import make_gadget
from rydcomp.mwis import solve_mwis, ud_graph
from rydcomp.parity import compile_parity, decompose_all, parity_energy
from rydcomp.physics import PhysicsConfig, diagonal_energy, spectrum
from rydcomp.problems import parse_problem
from rydcomp.programming import (
    balance_open_ports,
    build_global_layout,
    chain_profile,
    displace_atoms,
    displacement_shift,
    homogeneous_weights,
    homogenize,
    place_anchor,
    plan_anchors,
    quadratic_model,
    required_splitting,
    solve_bracketed,
    tail_compensate,
)

CFG3 = PhysicsConfig(interaction_ratio=3.0)
CFG4 = PhysicsConfig(interaction_ratio=4.0)

MODULE_KINDS = ["three_body", "kite", "f3"]


def layout_instance(tag, quadratic=(), cfg=CFG4):
    prob = parse_problem({"family": tag, "quadratic": list(quadratic)})
    return assemble_layout(
        decompose_all(compile_parity(prob)), cfg, link_length=5
    )


def state_energies(positions, weights, detuning, masks, c6):
    """Exact diagonal energies when each atom is driven at weight * detuning."""
    det = np.asarray(weights, dtype=float) * detuning
    return np.array([diagonal_energy(positions, det, m, c6) for m in masks])


class TestSolveBracketed:
    def test_cube_root(self):
        y = solve_bracketed(lambda t: t**3 - 2.0, 1.0, 2.0)
        assert abs(y - 2.0 ** (1.0 / 3.0)) < 1e-12

    def test_against_target(self):
        y = solve_bracketed(lambda t: t**-6, 0.5, 3.0, target=0.5)
        assert abs(y - 2.0 ** (1.0 / 6.0)) < 1e-12

    @given(st.floats(min_value=-0.8, max_value=0.8))
    @settings(max_examples=40, deadline=None)
    def test_shifted_cubic(self, r):
        y = solve_bracketed(lambda t: (t - r) ** 3 + (t - r), -1.0, 1.0)
        assert abs(y - r) < 1e-9

    def test_no_crossing(self):
        with pytest.raises(NoRootInRange, match="no sign change"):
            solve_bracketed(lambda t: t**2 + 1.0, -2.0, 2.0)

    def test_jump_without_root(self):
        with pytest.raises(NoRootInRange, match="residual"):
            solve_bracketed(lambda t: 1.5 if t > 0.3 else -0.5, 0.0, 1.0)

    def test_interval_must_be_ordered(self):
        with pytest.raises(ValidationError):
            solve_bracketed(lambda t: t, 1.0, 1.0)


class TestQuadraticModel:
    def test_exact_on_quadratic(self):
        f0, slope, curv = quadratic_model(lambda y: 2.0 + 3.0 * y + 5.0 * y**2, 0.7)
        assert f0 == pytest.approx(2.0 + 3.0 * 0.7 + 5.0 * 0.49, abs=1e-15)
        assert slope == pytest.approx(3.0 + 10.0 * 0.7, rel=1e-9)
        assert curv == pytest.approx(10.0, rel=1e-6)


class TestLoneInstance:
    @pytest.mark.parametrize("kind", ["link", "three_body", "kite", "fork", "f3"])
    def test_wraps_gadget_as_one_element(self, kind):
        g = make_gadget(kind, config=CFG3, length=5 if kind == "link" else None)
        inst = lone_instance(g, CFG3)
        assert np.array_equal(inst.positions, g.positions)
        assert np.array_equal(inst.weights, g.weights)
        assert len(inst.elements) == 1
        assert inst.elements[0].nodes == tuple(range(g.n))
        if kind in MODULE_KINDS:
            assert inst.modules == (0,) and inst.copies == ()
        else:
            assert inst.copies == (0,) and inst.modules == ()


class TestTailCompensation:
    # Five-atom chain, both logical states: the ends-on state carries
    # next-nearest pairs (0,2), (2,4) at distance 2 and (0,4) at distance 4,
    # the ends-off state only (1,3) at distance 2.  The imbalance
    # c6 * (1/2^6 + 1/4^6) is split over the two ports.
    @pytest.mark.parametrize("cfg", [CFG3, CFG4], ids=["ratio3", "ratio4"])
    def test_link5_end_correction(self, cfg):
        g = make_gadget("link", length=5, config=cfg)
        corr = tail_compensate(lone_instance(g, cfg)) - g.weights
        expected = cfg.c6 * (1.0 / 64.0 + 1.0 / 4096.0) / (2.0 * cfg.detuning)
        for port in ("p0", "p1"):
            assert corr[g.ports[port]] == pytest.approx(expected, abs=1e-15)
        interior = [k for k in range(g.n) if k not in g.ports.values()]
        assert np.all(corr[interior] == 0.0)

    def test_link5_frozen_value(self):
        g = make_gadget("link", length=5, config=CFG4)
        w1 = tail_compensate(lone_instance(g, CFG4))
        assert w1[g.ports["p0"]] == 1.03173828125
        assert w1[g.ports["p1"]] == 1.03173828125

    @pytest.mark.parametrize(
        "kind,length",
        [("link", 3), ("link", 5), ("three_body", None), ("kite", None),
         ("fork", None), ("f3", None)],
    )
    def test_gadget_states_tie_exactly(self, kind, length):
        g = make_gadget(kind, config=CFG3, length=length)
        w1 = tail_compensate(lone_instance(g, CFG3))
        es = state_energies(
            g.positions, w1, CFG3.detuning, g.logical_states, CFG3.c6
        )
        assert es.max() - es.min() <= 1e-12 * CFG3.detuning

    def test_assembled_k2_ties_exactly(self):
        inst = layout_instance("K_2")
        w1 = tail_compensate(inst)
        masks = [s.mask for s in logical_subspace(inst)]
        es = state_energies(
            inst.positions, w1, inst.config.detuning, masks, inst.config.c6
        )
        assert es.max() - es.min() <= 1e-12 * inst.config.detuning


class TestHomogeneous:
    def test_link_values(self):
        g = make_gadget("link", length=5, config=CFG3)
        hw = homogeneous_weights(g)
        assert hw[g.ports["p0"]] == 0.5
        assert hw[g.ports["p1"]] == 0.5
        assert sum(hw) == 0.5 + 0.5 + 3.0

    def test_kite_values(self):
        g = make_gadget("kite", config=CFG3)
        hw = homogeneous_weights(g)
        assert hw[g.ports["p"]] == 0.75
        assert hw[g.ports["s"]] == 0.75
        assert hw[g.ports["q"]] == 0.5
        assert hw[g.ports["r"]] == 0.5

    def test_fork_values(self):
        g = make_gadget("fork", config=CFG3)
        hw = homogeneous_weights(g)
        assert hw[g.ports["trunk"]] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert hw[g.ports["branch_a"]] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert hw[g.ports["branch_b"]] == pytest.approx(2.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize(
        "kind,length",
        [("link", 3), ("link", 5), ("three_body", None), ("kite", None),
         ("fork", None), ("f3", None)],
    )
    def test_state_sums_agree(self, kind, length):
        g = make_gadget(kind, config=CFG3, length=length)
        hw = homogeneous_weights(g)
        sums = {
            sum(hw[a] for a in range(g.n) if (m >> a) & 1)
            for m in g.logical_states
        }
        assert max(sums) - min(sums) <= 1e-12

    def test_assembled_interiors_are_unit(self):
        inst = layout_instance("K_2")
        w2 = homogenize(inst, tail_compensate(inst))
        for ch in inst.chains.values():
            ends = {a for a, _ in ch.open_ends}
            for a in ch.atoms:
                if a in ch.ports or a in ends:
                    continue
                assert w2[a] == pytest.approx(1.0, abs=1e-12)

    def test_homogenize_shifts_states_evenly(self):
        inst = layout_instance("K_2")
        w1 = tail_compensate(inst)
        w2 = homogenize(inst, w1)
        masks = [s.mask for s in logical_subspace(inst)]
        shifts = [
            sum((w2[a] - w1[a]) for a in range(inst.n_atoms) if (m >> a) & 1)
            for m in masks
        ]
        assert max(shifts) - min(shifts) <= 1e-12


class TestSlotSweep:
    # Slot deposits carry intended state-dependence; the sweep must push
    # them onto the ports unchanged (same per-state pattern) while paying a
    # single uniform offset of minus half the deposit total.
    @pytest.mark.parametrize("kind", MODULE_KINDS)
    def test_slot_deposits_shift_all_states_by_half_total(self, kind):
        g = make_gadget(kind, config=CFG3)
        w1 = tail_compensate(lone_instance(g, CFG3))
        base = homogenize(lone_instance(g, CFG3), w1)
        rng = np.random.default_rng(2026)
        for _ in range(10):
            draw = rng.uniform(-0.1, 0.1, size=3)
            w1p = w1.copy()
            for idx, x in zip((1, 2, 3), draw):
                w1p[g.comp_slots[idx][0]] += x
            w2p = homogenize(lone_instance(g, CFG3), w1p)
            for m in g.logical_states:
                on = [a for a in range(g.n) if (m >> a) & 1]
                before = sum(w1p[a] - w1[a] for a in on)
                after = sum(w2p[a] - base[a] for a in on)
                assert after - before == pytest.approx(
                    -draw.sum() / 2.0, abs=1e-12
                )

    @pytest.mark.parametrize("kind", MODULE_KINDS)
    def test_homogenized_argmax_is_unchanged(self, kind):
        g = make_gadget(kind, config=CFG3)
        graph = ud_graph(g.positions, CFG3.blockade_radius)
        w1 = tail_compensate(lone_instance(g, CFG3))
        rng = np.random.default_rng(7)
        for _ in range(3):
            w1p = w1.copy()
            for idx, x in zip((1, 2, 3), rng.uniform(-0.1, 0.1, size=3)):
                w1p[g.comp_slots[idx][0]] += x
            w2p = homogenize(lone_instance(g, CFG3), w1p)
            assert set(solve_mwis(graph, w1p).masks) == set(
                solve_mwis(graph, w2p).masks
            )


class TestAnchors:
    def test_place_anchor_inverts_power_law(self):
        c6 = CFG4.c6

        def prof(q):
            q = np.asarray(q, dtype=float)
            return c6 / float((q**2).sum()) ** 3

        target = 0.3 * CFG4.detuning
        pos, dist = place_anchor(prof, (0.0, 0.0), (0.0, 1.0), target, CFG4)
        assert dist == pytest.approx((c6 / target) ** (1.0 / 6.0), abs=1e-9)
        assert pos[0] == pytest.approx(0.0, abs=1e-12)
        assert pos[1] == pytest.approx(dist, abs=1e-12)

    def test_chain_profile_matches_signed_pair_sum(self):
        inst = layout_instance("K_2")
        name = inst.program.variables[0].name
        ch = inst.chains[name]
        prof = chain_profile(inst, name)
        q = inst.positions[ch.atoms[0]] + np.array([0.0, 1.7])
        expected = 0.0
        for a, ph in zip(ch.atoms, ch.phases):
            d2 = float(((inst.positions[a] - q) ** 2).sum())
            expected += (1.0 if ph == 0 else -1.0) * inst.config.c6 / d2**3
        assert prof(q) == pytest.approx(expected, rel=1e-12)

    def test_required_splitting_is_field_when_uniform(self):
        inst = layout_instance("K_2", [[0, 1, 0.2]])
        flat = np.ones(inst.n_atoms)
        for v in inst.program.variables:
            got = required_splitting(inst, flat, v.name)
            assert got == pytest.approx(inst.config.detuning * v.field, abs=1e-15)

    def test_plan_anchors_k2(self):
        inst = layout_instance("K_2")
        anchors = plan_anchors(inst, homogenize(inst, tail_compensate(inst)))
        assert len(anchors) == 3
        assert {a.style for a in anchors} <= {"axial", "raise", "lower"}
        rb = inst.config.blockade_radius
        for a in anchors:
            d = inst.positions - np.asarray(a.position)
            assert math.sqrt(float((d**2).sum(axis=1).min())) > rb

    def test_plan_anchors_two_open_ends(self):
        # the aux chain of K_{2,2} has two open ends and four ports; with no
        # couplings it has no field, so each end carries half the requirement
        inst = layout_instance("K_{2,2}")
        (name,) = [n for n, ch in inst.chains.items() if len(ch.open_ends) == 2]
        ch = inst.chains[name]
        assert len(ch.ports) == 4
        anchors = plan_anchors(inst, homogenize(inst, tail_compensate(inst)))
        mine = [a for a in anchors if a.variable == name]
        assert sorted(a.base_atom for a in mine) == sorted(a for a, _ in ch.open_ends)
        assert {a.style for a in mine} == {"axial"}
        assert mine[0].target == mine[1].target

    @pytest.mark.parametrize("quad", [[], [[0, 1, 0.2]]], ids=["free", "coupled"])
    def test_k2_band_reproduces_parity_energies(self, quad):
        cfg = CFG4
        lay = build_global_layout(
            decompose_all(compile_parity(parse_problem({"family": "K_2", "quadratic": quad}))),
            cfg,
            link_length=5,
        )
        masks = lay.full_masks()
        phys = np.array(
            [diagonal_energy(lay.positions, lay.detunings, m, cfg.c6) for m in masks]
        )
        want = np.array(
            [parity_energy(lay.instance.program, s.values) for s in lay.logical]
        )
        got = (phys - phys[0]) / cfg.detuning
        assert np.allclose(got, want - want[0], atol=1e-8)

    def test_k2_logical_band_is_ground_band(self):
        cfg = CFG4
        lay = build_global_layout(
            decompose_all(compile_parity(parse_problem({"family": "K_2"}))),
            cfg,
            link_length=5,
        )
        masks = lay.full_masks()
        res = spectrum(
            lay.positions,
            lay.detunings,
            cfg.c6,
            0.03 * cfg.energy_unit,
            hint_configs=masks,
            logical_masks=masks,
        )
        assert len(res.entries) >= len(masks)
        head = res.entries[: len(masks)]
        assert {e.config for e in head} == set(masks)
        band = max(e.energy for e in head) - head[0].energy
        assert band <= 1e-8 * cfg.detuning
        if len(res.entries) > len(masks):
            assert not res.entries[len(masks)].logical


class TestBalanceOpenPorts:
    @pytest.mark.parametrize(
        "kind,length,cfg",
        [
            ("link", 5, CFG3),
            ("link", 3, CFG3),
            ("three_body", None, CFG3),
            ("kite", None, PhysicsConfig(interaction_ratio=1.5)),
            ("fork", None, CFG3),
            ("f3", None, CFG3),
        ],
    )
    def test_logical_states_become_ground_band(self, kind, length, cfg):
        g = make_gadget(kind, config=cfg, length=length)
        anchored = balance_open_ports(g, cfg)
        masks = anchored.full_masks()
        res = spectrum(
            anchored.positions,
            cfg.detuning,
            cfg.c6,
            0.4 * cfg.energy_unit,
            hint_configs=masks,
            logical_masks=masks,
        )
        head = res.entries[: len(masks)]
        assert {e.config for e in head} == set(masks)
        spread = max(e.energy for e in head) - head[0].energy
        assert spread <= 1e-9 * cfg.energy_unit
        if len(res.entries) > len(masks):
            gap = res.entries[len(masks)].energy - head[0].energy
            assert gap > 1e-6 * cfg.energy_unit

    def test_anchor_record_shape(self):
        g = make_gadget("link", length=5, config=CFG3)
        anchored = balance_open_ports(g, CFG3)
        assert len(anchored.anchors) == 2
        for name, pos, dist in anchored.anchors:
            assert name in g.ports
            assert dist > 0.0
            assert len(pos) == 2
        assert anchored.positions.shape == (g.n + 2, 2)


class TestDisplacement:
    C6 = CFG3.c6

    def toy(self):
        # two atoms, both excited in the 1-state, only the fixed one in the
        # 0-state; moving atom 0 along +x approaches its partner at (2, 0)
        pos = np.array([[0.0, 0.0], [2.0, 0.0]])
        return pos, 0b11, 0b10

    def test_shift_matches_closed_form(self):
        pos, one, zero = self.toy()
        for delta in (0.15, -0.15):
            got = displacement_shift(pos, one, zero, 0, (1.0, 0.0), delta, self.C6)
            want = self.C6 / (2.0 - delta) ** 6 - self.C6 / 2.0**6
            assert got == pytest.approx(want, rel=1e-12)

    def test_shift_matches_energy_difference(self):
        pos, one, zero = self.toy()
        delta = 0.2
        moved = pos.copy()
        moved[0, 0] += delta
        before = diagonal_energy(pos, 1.0, one, self.C6) - diagonal_energy(
            pos, 1.0, zero, self.C6
        )
        after = diagonal_energy(moved, 1.0, one, self.C6) - diagonal_energy(
            moved, 1.0, zero, self.C6
        )
        got = displacement_shift(pos, one, zero, 0, (1.0, 0.0), delta, self.C6)
        assert got == pytest.approx(after - before, rel=1e-12)

    def test_approach_beats_retreat(self):
        pos, one, zero = self.toy()
        for delta in np.linspace(0.02, 0.2, 7):
            toward = displacement_shift(pos, one, zero, 0, (1.0, 0.0), delta, self.C6)
            away = displacement_shift(pos, one, zero, 0, (1.0, 0.0), -delta, self.C6)
            assert toward > 0.0 > away
            assert toward > abs(away)

    def test_displace_atoms_hits_target(self):
        pos, one, zero = self.toy()
        target = 0.05 * CFG3.detuning
        newpos, delta = displace_atoms(
            pos, one, zero, 0, (1.0, 0.0), target, CFG3
        )
        res = displacement_shift(pos, one, zero, 0, (1.0, 0.0), delta, self.C6)
        assert res == pytest.approx(target, abs=1e-12)
        assert newpos[0, 0] == pytest.approx(delta, abs=1e-15)
        # independent bisection on the same closed form
        lo, hi = 0.0, 0.45
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            val = self.C6 / (2.0 - mid) ** 6 - self.C6 / 2.0**6
            if val < target:
                lo = mid
            else:
                hi = mid
        assert delta == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_displace_refuses_blockade_entry(self):
        cfg = CFG3
        pos = np.array([[0.0, 0.0], [1.3, 0.0]])
        # solving this target would park atom 0 at distance 1.05 < r_B
        target = cfg.c6 / 1.05**6 - cfg.c6 / 1.3**6
        with pytest.raises(GeometryError, match="blockade"):
            displace_atoms(pos, 0b11, 0b10, 0, (1.0, 0.0), target, cfg)
