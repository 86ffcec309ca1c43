"""Layout assembly: geometry, chain bookkeeping, logical-subspace audit."""

import gc

import numpy as np
import pytest

from rydcomp.assembly import _read_rows, assemble_layout, logical_subspace
from rydcomp.errors import GeometryError, PipelineError, ValidationError
from rydcomp.gadgets import _Builder, make_gadget
from rydcomp.mwis import solve_mwis
from rydcomp.parity import compile_parity, decode, decompose_all, parity_energy
from rydcomp.physics import PhysicsConfig
from rydcomp.problems import evaluate, parse_problem

CFG = PhysicsConfig(interaction_ratio=4.0)


def instance(tag, quadratic=(), cfg=CFG, link_length=5):
    prob = parse_problem({"family": tag, "quadratic": list(quadratic)})
    prog = decompose_all(compile_parity(prob))
    return assemble_layout(prog, cfg, link_length=link_length)


K23_COUPLINGS = [[0, 2, 0.2], [0, 3, -0.1], [1, 4, 0.3]]


class TestBuilder:
    def two_links(self):
        link = make_gadget("link", config=CFG, length=5)  # atoms at x = 0..4
        b = _Builder(CFG)
        b.add(link)
        # fused end to end: the new atom next to the fused one sits a
        # spacing from it, which only the fusion excuses
        b.add(link.placed(translation=(4.0, 0.0)), merge={0: 4})
        return b, link

    def test_fused_atom_is_not_a_clash(self):
        b, _ = self.two_links()
        pos, _, _ = b.finish()
        np.testing.assert_array_equal(pos, [[x, 0.0] for x in range(9)])

    def test_clash_names_first_new_atom_then_lowest_placed_atom(self):
        b, link = self.two_links()
        # a vertical link through x = 6: its atom 1 at (6, -1) clashes only
        # with atom 6, its atom 2 at (6, 0) with atoms 5, 6 and 7
        upright = link.placed(rotation=np.pi / 2, translation=(6.0, -2.0))
        with pytest.raises(GeometryError, match="link atom 1 clashes with existing atom 6 "):
            b.add(upright)


class TestKiteGrid:
    def test_inventory(self):
        inst = instance("K_{2,3}", K23_COUPLINGS)
        assert inst.n_atoms == 80
        kinds = [e.kind for e in inst.elements]
        assert kinds.count("kite") == 4
        assert kinds.count("link") == 12
        assert len(inst.chains) == 8  # six cut parities + two auxiliaries
        assert inst.graph.boundary_pairs == ()

    @pytest.mark.parametrize("m,link_length,atoms", [(2, 5, 45), (3, 5, 80), (3, 3, 56)])
    def test_atom_counts(self, m, link_length, atoms):
        inst = instance(f"K_{{2,{m}}}", link_length=link_length)
        assert inst.n_atoms == atoms

    def test_chain_shapes(self):
        inst = instance("K_{2,3}", K23_COUPLINGS)
        boundary = inst.chains[("p", 0, 0)]
        assert len(boundary.atoms) == 5
        assert len(boundary.ports) == 1
        assert len(boundary.open_ends) == 1
        assert boundary.open_ends[0][1] == (-1.0, 0.0)
        interior = inst.chains[("p", 0, 1)]
        assert len(interior.ports) == 2
        assert interior.open_ends == ()
        aux = inst.chains[("aux", 0)]
        # two stubs (5 atoms each) and the column (5): 11 link atoms + 4 ports
        assert len(aux.atoms) == 15
        assert len(aux.ports) == 4
        assert len(aux.open_ends) == 2

    def test_chain_records(self):
        # required_splitting sums along the walk and the anchor solver ranks
        # sites by their index on it, so the order is part of the output
        inst = instance("K_{2,3}")
        alt = (0, 1, 0, 1, 0)
        expected = {
            ("p", 0, 0): ((36, 37, 38, 39, 1), alt, (1,), (36,), (4,)),
            ("p", 0, 1): ((2, 40, 41, 42, 10), alt, (2, 10), (), (5,)),
            ("p", 0, 2): ((11, 43, 44, 45, 46), alt, (11,), (46,), (6,)),
            ("p", 1, 0): ((47, 48, 49, 50, 19), alt, (19,), (47,), (7,)),
            ("p", 1, 1): ((20, 51, 52, 53, 28), alt, (20, 28), (), (8,)),
            ("p", 1, 2): ((29, 54, 55, 56, 57), alt, (29,), (57,), (9,)),
            ("aux", 0): (
                (0, 61, 62, 63, 64, 3, 58, 59, 60, 18, 21, 65, 66, 67, 68),
                alt * 3, (0, 3, 18, 21), (64, 68), (11, 10, 12),
            ),
            ("aux", 1): (
                (9, 72, 73, 74, 75, 12, 69, 70, 71, 27, 30, 76, 77, 78, 79),
                alt * 3, (9, 12, 27, 30), (75, 79), (14, 13, 15),
            ),
        }
        got = {
            name: (ch.atoms, ch.phases, ch.ports, tuple(a for a, _ in ch.open_ends), ch.elements)
            for name, ch in inst.chains.items()
        }
        assert got == expected
        assert list(got) == list(expected)

    def test_positions_do_not_depend_on_couplings(self):
        bare = instance("K_{2,3}")
        coupled = instance("K_{2,3}", K23_COUPLINGS)
        assert np.array_equal(bare.positions, coupled.positions)
        assert np.array_equal(bare.weights, coupled.weights)

    def test_assembly_is_deterministic(self):
        a = instance("K_{2,3}", K23_COUPLINGS)
        b = instance("K_{2,3}", K23_COUPLINGS)
        assert a.positions.tobytes() == b.positions.tobytes()
        assert [e.kind for e in a.elements] == [e.kind for e in b.elements]

    def test_logical_subspace_bijects(self):
        inst = instance("K_{2,3}", K23_COUPLINGS)
        states = logical_subspace(inst)
        assert len(states) == 16
        weight = [
            sum(inst.weights[a] for a in range(inst.n_atoms) if (s.mask >> a) & 1)
            for s in states
        ]
        assert max(weight) - min(weight) < 1e-9
        decodes = {decode(inst.program, s.values) for s in states}
        assert len(decodes) == 16
        for s in states:
            bits = decode(inst.program, s.values)
            assert parity_energy(inst.program, s.values) == pytest.approx(
                evaluate(inst.program.problem, bits)
            )

    def test_larger_grid_certifies(self):
        states = logical_subspace(instance("K_{2,4}"))
        assert len(states) == 2 ** 5

    @pytest.mark.parametrize("m", [5, 6])
    def test_wide_grids_certify(self, m):
        states = logical_subspace(instance(f"K_{{2,{m}}}"))
        assert len(states) == 2 ** (m + 1)

    def test_solver_frontier_stays_flat_across_columns(self):
        # The sweep DP's widest layer holds 10 states on K_{2,2} and 80 on
        # each of K_{2,3}..K_{2,6}: one column's worth, whatever the length.
        # Deciding the atoms in index order instead peaks at 131,072 states
        # on K_{2,3}.
        peaks = []
        for m in range(2, 7):
            inst = instance(f"K_{{2,{m}}}")
            peaks.append(solve_mwis(inst.graph, inst.weights).peak_frontier)
            assert peaks[-1] <= 100  # before a wider grid can run away
        assert len(set(peaks[1:])) == 1
        assert peaks[0] <= peaks[1]

    def test_solver_runs_no_garbage_collection(self):
        # Every layer of the sweep DP is an int -> float dict, which the
        # cyclic collector does not track.  Per-layer edge lists of tuples
        # would run about 11 young-generation collections per K_{2,4}
        # solve, and now and then a full one of 6-16 ms.
        inst = instance("K_{2,4}")
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            sol = solve_mwis(inst.graph, inst.weights)
        finally:
            gc.callbacks.remove(count)
        assert len(sol.masks) == 2**5
        assert len(starts) <= 1


@pytest.mark.parametrize("link_length", [3, 5, 7])
@pytest.mark.parametrize(
    "tag", ["K_1", "K_2", "K_{2,2}", "K_{2,3}", "K_{2,4}", "K_{2,5}", "K_{2,6}"]
)
def test_chains_follow_their_links(tag, link_length):
    inst = instance(tag, link_length=link_length)
    module_atoms = {a for e in inst.elements if e.kind != "link" for a in e.nodes}
    for chain in inst.chains.values():
        links = [inst.elements[k] for k in chain.elements]
        assert all(e.kind == "link" for e in links)
        assert sorted(chain.atoms) == sorted({a for e in links for a in e.nodes})
        phase = dict(zip(chain.atoms, chain.phases))
        assert chain.ports == tuple(a for a in chain.atoms if a in module_atoms)
        lone_ends = {
            e.ports[p]
            for e in links
            for p in ("p0", "p1")
            if sum(e.ports[p] in f.nodes for f in inst.elements) == 1
        }
        assert {a for a, _ in chain.open_ends} == lone_ends
        for a, axis in chain.open_ends:
            # the axis points out of the chain, away from the end's one neighbour
            step = inst.positions[a] - inst.positions[list(chain.atoms)]
            dist = np.linalg.norm(step, axis=1)
            inner = np.nonzero((dist > 0) & (dist < 1.5))[0]
            assert len(inner) == 1
            np.testing.assert_allclose(step[inner[0]], axis, atol=1e-12)
        # value == excitation wherever a chain meets a module or free space
        assert all(phase[a] == 0 for a in chain.ports)
        assert all(phase[a] == 0 for a, _ in chain.open_ends)


class TestSingleTriangle:
    def test_inventory_and_subspace(self):
        inst = instance("K_2", [[0, 1, 1.0]], link_length=3)
        assert inst.n_atoms == 12
        assert [e.kind for e in inst.elements] == ["three_body"] + ["link"] * 3
        states = logical_subspace(inst)
        assert len(states) == 4
        assert {decode(inst.program, s.values) for s in states} == {
            (0, 0), (0, 1), (1, 0), (1, 1)
        }


class TestParallelChains:
    def test_single_variable(self):
        inst = instance("K_1")
        assert inst.n_atoms == 5
        states = logical_subspace(inst)
        assert len(states) == 2

    def test_one_sided_bipartite(self):
        inst = instance("K_{1,3}")
        assert inst.n_atoms == 15
        assert len(inst.chains) == 3
        states = logical_subspace(inst)
        assert len(states) == 8
        spread = np.ptp(inst.positions[:, 1])
        assert spread == pytest.approx(8.0)  # rows 4 apart


class TestReadValues:
    def test_inconsistent_pattern_is_loud(self):
        inst = instance("K_1")
        chain = inst.chains[("s", 0)]
        with pytest.raises(PipelineError, match="inconsistent"):
            next(_read_rows(inst, [1 << chain.atoms[0]]))

    def test_logical_patterns_read_cleanly(self):
        inst = instance("K_2", [[0, 1, -0.5]], link_length=3)
        for s in logical_subspace(inst):
            assert next(_read_rows(inst, [s.mask])) == s.values


class TestScope:
    def test_odd_length_required(self):
        with pytest.raises(ValidationError, match="odd"):
            instance("K_1", link_length=4)
        with pytest.raises(ValidationError, match="odd"):
            instance("K_1", link_length=1)

    def test_undecomposed_program_rejected(self):
        prob = parse_problem({"family": "K_{2,3}"})
        prog = compile_parity(prob)  # still has weight-4 plaquettes
        with pytest.raises(ValidationError, match="decompose"):
            assemble_layout(prog, CFG)

    @pytest.mark.parametrize("tag", ["K_3", "K_5", "K_{3,3}", "K_{4,2}"])
    def test_unsupported_shapes(self, tag):
        with pytest.raises(GeometryError, match="no assembly"):
            instance(tag)
