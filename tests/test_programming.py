"""Weight programming: tail compensation, homogenisation, anchors, balance.

The five-atom chain's tail corrections are checked against pair sums
written out by hand (three next-nearest pairs at distances 2, 2 and 4).
Everything else is held to the invariants each step promises: corrected
weights tie the logical manifold exactly, the homogeneous map preserves
per-state totals, and anchored systems put their logical states at the
bottom of the exact spectrum, degenerate to solver tolerance.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import anchored_requirement, chain_sum, diagonal_energy

from rydcomp import cli, programming

from rydcomp.assembly import assemble_layout, logical_subspace, lone_instance
from rydcomp.errors import GeometryError, NoRootInRange, ValidationError
from rydcomp.gadgets import make_gadget
from rydcomp.mwis import solve_mwis, ud_graph
from rydcomp.parity import compile_parity, decompose_all, parity_energy
from rydcomp.physics import PhysicsConfig, probe_sum, spectrum
from rydcomp.problems import parse_problem
from rydcomp.programming import (
    Anchor,
    _assign_module_pairs,
    _check_sites,
    _copy_correction,
    _module_occupancies,
    _tail_pairs,
    balance_open_ports,
    build_global_layout,
    homogeneous_weights,
    homogenize,
    place_anchor,
    plan_anchors,
    required_splitting,
    service_functional,
    solve_bracketed,
    tail_compensate,
)

CFG3 = PhysicsConfig(interaction_ratio=3.0)
CFG4 = PhysicsConfig(interaction_ratio=4.0)

MODULE_KINDS = ["three_body", "kite", "f3"]


def layout_instance(tag, quadratic=(), cfg=CFG4, link_length=5):
    prob = parse_problem({"family": tag, "quadratic": list(quadratic)})
    return assemble_layout(
        decompose_all(compile_parity(prob)), cfg, link_length=link_length
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


def exact_scan(fn, seen=None):
    """A batch form that returns ``fn``'s values bit for bit, as ``probe_sum``'s does.

    Every sample it scores is appended to ``seen`` when that is a list.
    """

    def scan(ys):
        if seen is not None:
            seen.extend(ys.tolist())
        return np.array([fn(y) for y in ys.tolist()])

    return scan


class TestBatchedScan:
    GRID = np.linspace(-1.0, 1.0, 128).tolist()
    # most fn calls one anchor root solve makes, measured over the balance
    # and plan cases below; a solver that re-scores batched values exceeds it
    MAX_FN_CALLS = 6

    @staticmethod
    def counting(real, counts):
        """``solve_bracketed`` that appends each solve's number of fn calls."""

        def batched(fn, lo, hi, **kw):
            calls = []

            def counted(y):
                calls.append(y)
                return fn(y)

            y = real(counted, lo, hi, **kw)
            counts.append(len(calls))
            return y

        return batched

    @given(st.floats(min_value=-0.8, max_value=0.8))
    @example(GRID[37])  # roots exactly on a grid sample
    @example(GRID[0])
    @example(GRID[127])
    @example(GRID[64])
    @example(math.nextafter(GRID[37], 1.0))  # one end never moves in bisection
    @example(math.nextafter(GRID[90], -1.0))
    @settings(max_examples=40, deadline=None)
    def test_lying_scan_keeps_root_bits(self, r):
        def fn(t):
            return (t - r) ** 3 + (t - r)

        calls = []

        def counted(t):
            calls.append(t)
            return fn(t)

        want = solve_bracketed(fn, -1.0, 1.0)
        got = solve_bracketed(counted, -1.0, 1.0, scan=exact_scan(fn))
        assert got.hex() == want.hex()
        # the bracket scan's samples take their values from the batch alone
        assert not set(calls) & set(self.GRID)

    def test_lying_scan_against_target(self):
        def fn(t):
            return t**-6

        want = solve_bracketed(fn, 0.5, 3.0, target=0.5)
        got = solve_bracketed(fn, 0.5, 3.0, target=0.5, scan=exact_scan(fn))
        assert got.hex() == want.hex()

    def test_lying_scan_without_root_still_refuses(self):
        def fn(t):
            return t**2 + 1.0

        with pytest.raises(NoRootInRange, match="no sign change"):
            solve_bracketed(fn, -2.0, 2.0, scan=exact_scan(fn))

    @staticmethod
    def chunked(scan, sizes):
        def recorded(ys):
            sizes.append(len(ys))
            return scan(ys)

        return recorded

    @pytest.mark.parametrize(
        "r, chunks",
        [
            (0.5 * (GRID[100] + GRID[101]), 4),  # a root in the last chunk
            (GRID[31], 1),  # roots on the chunk-boundary samples
            (GRID[32], 2),
            (GRID[63], 2),
            (GRID[64], 3),
            (0.5 * (GRID[31] + GRID[32]), 2),  # a change across two chunks
            (0.5 * (GRID[63] + GRID[64]), 3),
            (GRID[127], 4),  # the last sample is the root
            (GRID[0], 1),
        ],
    )
    def test_chunked_scan_keeps_root_bits(self, r, chunks):
        def fn(t):
            return (t - r) ** 3 + (t - r)

        want = solve_bracketed(fn, -1.0, 1.0)
        sizes = []
        got = solve_bracketed(fn, -1.0, 1.0, scan=self.chunked(exact_scan(fn), sizes))
        assert got.hex() == want.hex()
        # chunks of 32 up to the first stop, then at most one path batch
        assert sizes[:chunks] == [32] * chunks
        assert len(sizes) <= chunks + 1 and 32 not in sizes[chunks:]

    @pytest.mark.parametrize("vectorised", [False, True])
    def test_chunked_scan_without_root_scores_every_chunk(self, vectorised):
        def fn(t):
            return t**2 + 1.0

        sizes = []
        scan = (lambda ys: ys**2 + 1.0) if vectorised else exact_scan(fn)
        with pytest.raises(NoRootInRange, match="no sign change"):
            solve_bracketed(fn, -2.0, 2.0, scan=self.chunked(scan, sizes))
        assert sizes == [32] * 4

    @given(
        st.floats(min_value=-0.8, max_value=0.8),
        st.floats(min_value=1e-175, max_value=1e-140),
    )
    @example(-0.27242925360145254, 3.935542620360592e-148)
    @example(0.0640179281543507, 1.2198331015223531e-148)
    @example(0.6898855637688361, 4.977704281897794e-148)
    @example(0.4397897250135747, 3.6430258100913905e-148)
    @settings(max_examples=40, deadline=None)
    def test_tiny_values_keep_root_bits(self, r, scale):
        # near 1e-150, fn's own test fa * fm < 0.0 underflows to zero; the
        # batch's values are fn's, so bisection takes the same steps
        def fn(t):
            return scale * ((t - r) ** 3 + (t - r))

        want = solve_bracketed(fn, -1.0, 1.0, tol=1e-12 * scale)
        got = solve_bracketed(fn, -1.0, 1.0, tol=1e-12 * scale, scan=exact_scan(fn))
        assert got.hex() == want.hex()

    @staticmethod
    def outcome(fn, **kw):
        try:
            return solve_bracketed(fn, -1.0, 1.0, **kw).hex()
        except NoRootInRange as exc:
            return str(exc)

    @pytest.mark.parametrize("left, right", [(-1e-149, 1e-180), (-1e-180, 1e-149)])
    @pytest.mark.parametrize("r", np.linspace(-0.7, 0.7, 8).tolist())
    def test_underflowing_product_keeps_root_bits(self, r, left, right):
        # on one side of r fn is so small that its own fa * fm underflows to
        # zero, which sends bisection the "wrong" way: the batch's values
        # at both ends reproduce that
        def fn(t):
            return right if t >= r else left

        for tol in (1e-200, 1e-170):
            want = self.outcome(fn, tol=tol)
            assert self.outcome(fn, tol=tol, scan=exact_scan(fn)) == want

    @pytest.mark.parametrize("r", [-0.61, 0.05, 0.3337, 0.77])
    def test_polish_starts_from_fn_values(self, r):
        # both final ends are predicted midpoints whose values came from the
        # batch; a tolerance below what bisection reaches makes the polish
        # read both of them
        def fn(t):
            return math.exp(t - r) - 1.0

        for tol in (1e-15, 0.0):
            assert self.outcome(fn, tol=tol, scan=exact_scan(fn)) == self.outcome(fn, tol=tol)

    def test_trusted_scan_calls_fn_only_at_bracket_and_polish(self):
        calls = []

        def fn(t):
            calls.append(t)
            return t - 0.3

        seen = []
        y = solve_bracketed(fn, -1.0, 1.0, scan=exact_scan(lambda t: t - 0.3, seen))
        assert abs(y - 0.3) < 1e-12
        assert len(calls) < 50
        # the batch scores the bracket's ends, and fn is never called where
        # the batch has scored
        k = int(np.searchsorted(self.GRID, 0.3))
        assert set(self.GRID[: k + 1]) <= set(seen)
        assert not set(calls) & set(seen)

    @given(
        st.sampled_from(["K_{2,2}", "K_{2,3}"]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_service_batch_within_bound_on_rays(self, tag, seed):
        # the bound is zero: every batched value is the scalar call's
        inst = cached_instance(tag)
        rng = np.random.default_rng(seed)
        names = list(inst.chains)
        name = names[int(rng.integers(len(names)))]
        service = service_functional(inst, name)
        atoms = inst.chains[name].atoms
        base = inst.positions[atoms[int(rng.integers(len(atoms)))]]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(angle), math.sin(angle)])
        ts = np.sort(rng.uniform(0.5, 60.0, size=16))
        values = service.batch(base + ts[:, None] * u)
        assert values.tolist() == [service(base + t * u) for t in ts.tolist()]

    @pytest.mark.parametrize("ratio", [1.5, 2.0, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("spec", ["link:5", "link:21", "three_body", "kite", "fork", "f3"])
    def test_balance_bitwise_equal_to_scalar_scan(self, spec, ratio, monkeypatch):
        kind, _, length = spec.partition(":")
        cfg = PhysicsConfig(interaction_ratio=ratio)
        gadget = make_gadget(kind, config=cfg, length=int(length) if length else None)
        real = programming.solve_bracketed
        counts = []

        def outcome():
            anchored = balance_open_ports(gadget, cfg)
            return anchored.anchors, anchored.positions.tobytes()

        def scalar(fn, lo, hi, *, scan, **kw):
            return real(fn, lo, hi, **kw)

        monkeypatch.setattr(programming, "solve_bracketed", self.counting(real, counts))
        got = outcome()
        monkeypatch.setattr(programming, "solve_bracketed", scalar)
        assert got == outcome()
        assert counts and max(counts) <= self.MAX_FN_CALLS

    @pytest.mark.parametrize(
        "tag, quadratic",
        [("K_{2,2}", [[0, 2, 0.1], [1, 3, -0.15]]), ("K_{2,3}", [[0, 2, 0.2], [1, 4, -0.1]])],
    )
    def test_plan_anchors_bitwise_equal_to_scalar_scan(self, tag, quadratic, monkeypatch):
        inst = layout_instance(tag, quadratic)
        w2 = homogenize(inst, tail_compensate(inst))
        real = programming.solve_bracketed

        def scalar(fn, lo, hi, *, scan, **kw):
            return real(fn, lo, hi, **kw)

        counts = []
        monkeypatch.setattr(programming, "solve_bracketed", self.counting(real, counts))
        got = anchor_bits(plan_anchors(inst, w2))
        assert {style for _, style, *_ in got} >= {"axial", "raise"}
        assert counts and max(counts) <= self.MAX_FN_CALLS
        monkeypatch.setattr(programming, "solve_bracketed", scalar)
        assert got == anchor_bits(plan_anchors(inst, w2))

    # the anchors as they stand; a solver change that moves any bit fails here
    PINNED_DISTANCES = {
        ("kite", 1.5): {
            "p": "0x1.4d261735e5752p+0",
            "q": "0x1.32a175928c8fep+0",
            "r": "0x1.32a175928c8fep+0",
            "s": "0x1.4d261735e5752p+0",
        },
        ("link:31", 3.0): {"p0": "0x1.5a00ef7460496p+0", "p1": "0x1.5a00ef7460496p+0"},
    }

    @pytest.mark.parametrize("spec, ratio", list(PINNED_DISTANCES))
    def test_gadget_anchor_bits_are_pinned(self, spec, ratio):
        kind, _, length = spec.partition(":")
        cfg = PhysicsConfig(interaction_ratio=ratio)
        gadget = make_gadget(kind, config=cfg, length=int(length) if length else None)
        anchored = balance_open_ports(gadget, cfg)
        got = {name: float(d).hex() for name, _, d in anchored.anchors}
        assert got == self.PINNED_DISTANCES[spec, ratio]

    def test_k22_plan_bits_are_pinned(self):
        inst = layout_instance("K_{2,2}")
        got = anchor_bits(plan_anchors(inst, homogenize(inst, tail_compensate(inst))))
        x, y0, y1, y2, z = (
            "0x1.99a5f25a18100p+2",
            "-0x1.ddb3d742c2655p+2",
            "0x1.caf1901ea5011p+2",
            "-0x1.d452b3b0b3b34p+3",
            "0x1.7ff7d31f18a05p-52",
        )
        t0, t1, t2, t3 = (
            "0x1.058120443f556p-1",
            "0x1.058120443f54ep-1",
            "0x1.058120443f552p-1",
            "0x1.bc008f0d16609p-2",
        )
        assert got == [
            (("p", 0, 0), "axial", 18, ["-" + x, "0x0.0p+0"], t0),
            (("p", 0, 1), "axial", 25, [x, "0x0.0p+0"], t1),
            (("p", 1, 0), "axial", 26, ["-" + x, y0], t2),
            (("p", 1, 1), "axial", 33, [x, y0], t2),
            (("aux", 0), "axial", 40, [z, y1], t3),
            (("aux", 0), "axial", 44, [z, y2], t3),
        ]


def anchor_bits(anchors):
    """Every field of each planned anchor, floats as ``float.hex``."""
    return [
        (a.variable, a.style, a.base_atom, [float(c).hex() for c in a.position], float(a.target).hex())
        for a in anchors
    ]


@functools.lru_cache(maxsize=None)
def cached_instance(tag):
    return layout_instance(tag)


def quadratic_model(fn, y0, h=1e-4):
    """(value, slope, curvature) of ``fn`` at ``y0`` by central differences."""
    f0 = fn(y0)
    fp = fn(y0 + h)
    fm = fn(y0 - h)
    return f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / h**2


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


def pairwise_owners(instance, v):
    """Reference pair ownership: every atom pair walked and classified alone.

    Same rules as ``_assign_module_pairs``: a fused atom counts for the last
    module and the last chain that list it, pairs inside one chain element
    are the copy pass's, and two chains share the lowest-index module they
    both hang off.  Returns ``{module: [(a, b), ...]}`` in row-major order.
    """
    if not instance.modules:
        return {}
    module_of = {}
    for kdx in instance.modules:
        for a in instance.elements[kdx].nodes:
            module_of[a] = kdx
    touch = {
        name: {module_of[p] for p in ch.ports if p in module_of}
        for name, ch in instance.chains.items()
    }
    chain_of = {}
    for name, ch in instance.chains.items():
        for a in ch.atoms:
            chain_of[a] = name
    elements_of = [set() for _ in range(instance.n_atoms)]
    for kdx, e in enumerate(instance.elements):
        for a in e.nodes:
            elements_of[a].add(kdx)
    out = {kdx: [] for kdx in instance.modules}
    rows, cols = np.nonzero(np.triu(v, 1))
    for a, b in zip(rows.tolist(), cols.tolist()):
        shared = elements_of[a] & elements_of[b]
        if any(not instance.elements[k].is_module for k in shared):
            continue
        ma, mb = module_of.get(a), module_of.get(b)
        ca, cb = chain_of.get(a), chain_of.get(b)
        owner = None
        if ma is not None and mb is not None:
            owner = ma if ma == mb else None
        elif ma is not None:
            owner = ma if cb is not None and ma in touch[cb] else None
        elif mb is not None:
            owner = mb if ca is not None and mb in touch[ca] else None
        elif ca is not None and cb is not None:
            common = touch[ca] & touch[cb]
            owner = min(common) if common else None
        if owner is not None:
            out[owner].append((a, b))
    return out


def pairwise_tail_compensate(instance):
    """``tail_compensate`` with the module tails summed pair by pair."""
    dlt = instance.config.detuning
    v = _tail_pairs(instance)
    w1 = instance.weights.astype(float).copy()
    for kdx in instance.copies:
        e = instance.elements[kdx]
        for atom, c in _copy_correction(
            v, e.nodes, e.gadget.logical_states, e.gadget.ports, dlt
        ).items():
            w1[atom] += c
    owners = pairwise_owners(instance, v)
    for kdx in instance.modules:
        e = instance.elements[kdx]
        occupancies = [row.tolist() for row in _module_occupancies(instance, kdx)]
        tails = [
            sum(v[a, b] * occ[a] * occ[b] for a, b in owners[kdx])
            for occ in occupancies
        ]
        deposits = {}
        for idx, slot_locals in e.gadget.comp_slots.items():
            dep = (tails[idx] - tails[0]) / (len(slot_locals) * dlt)
            for loc in slot_locals:
                deposits[e.nodes[loc]] = deposits.get(e.nodes[loc], 0.0) + dep
        for atom, c in deposits.items():
            w1[atom] += c
    return w1


OWNERSHIP_CASES = [
    pytest.param(tag, cfg, length, id=f"{tag}-r{cfg.interaction_ratio:g}-L{length}")
    for tag in ["K_2", "K_{2,2}", "K_{2,3}", "K_{2,4}", "K_{2,5}"]
    for cfg in (CFG3, CFG4)
    for length in (3, 5)
]


class TestModulePairOwnership:
    @staticmethod
    def owners(instance):
        v = _tail_pairs(instance)
        got = {
            kdx: list(zip(a.tolist(), b.tolist()))
            for kdx, (a, b) in _assign_module_pairs(instance, v).items()
        }
        return got, pairwise_owners(instance, v)

    @pytest.mark.parametrize("tag,cfg,length", OWNERSHIP_CASES)
    def test_layouts_match_pairwise_reference(self, tag, cfg, length):
        inst = layout_instance(tag, cfg=cfg, link_length=length)
        got, want = self.owners(inst)
        assert got == want
        assert np.array_equal(tail_compensate(inst), pairwise_tail_compensate(inst))

    @pytest.mark.parametrize("kind", MODULE_KINDS)
    def test_lone_modules_match_pairwise_reference(self, kind):
        inst = lone_instance(make_gadget(kind, config=CFG3), CFG3)
        got, want = self.owners(inst)
        assert got == want
        assert np.array_equal(tail_compensate(inst), pairwise_tail_compensate(inst))


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

        prof = probe_sum([[0.0, 0.0]], [1.0], c6)
        target = 0.3 * CFG4.detuning
        pos, dist = place_anchor(prof, (0.0, 0.0), (0.0, 1.0), target, CFG4)
        assert dist == pytest.approx((c6 / target) ** (1.0 / 6.0), abs=1e-9)
        assert pos[0] == pytest.approx(0.0, abs=1e-12)
        assert pos[1] == pytest.approx(dist, abs=1e-12)

    def test_window_grows_to_reach_a_weak_target(self):
        # the root at 6.5 spacings lies beyond the first window [0.5, 5]:
        # the window grows to 8 and finds it, but not under a cap of 6
        prof = probe_sum([[0.0, 0.0]], [1.0], CFG4.c6)
        target = CFG4.c6 / 6.5**6
        _, dist = place_anchor(prof, (0.0, 0.0), (1.0, 0.0), target, CFG4)
        assert dist == pytest.approx(6.5, abs=1e-6)
        with pytest.raises(NoRootInRange, match=r"in \[0\.5, 6\]"):
            place_anchor(prof, (0.0, 0.0), (1.0, 0.0), target, CFG4, cap=6.0)

    def test_first_inaccessible_anchor_is_named(self):
        # both anchors sit inside a blockade disk; the first in anchor
        # order is named, not the one nearer to its atom
        inst = layout_instance("K_1")
        atom = inst.positions[0]
        anchors = (
            Anchor("A", tuple(atom + (0.0, 0.5)), 0.1, 0, "raise"),
            Anchor("B", tuple(atom + (0.0, -0.3)), 0.1, 0, "raise"),
        )
        with pytest.raises(GeometryError, match=r"anchor for A .* at 0\.500 is inside"):
            _check_sites(inst, anchors)

    def test_first_colliding_anchor_pair_is_named(self):
        # pairs (1, 2) and (0, 3) collide; the row-major first is (0, 3)
        inst = layout_instance("K_1")
        far = inst.positions.max(axis=0) + 50.0
        sites = [far, far + (5.0, 0.0), far + (5.5, 0.0), far + (0.0, 1.0)]
        anchors = tuple(
            Anchor(name, tuple(q), 0.1, 0, "axial") for name, q in zip("ABCD", sites)
        )
        with pytest.raises(GeometryError, match="for A and D collide"):
            _check_sites(inst, anchors)
        _check_sites(inst, anchors[:2])
        _check_sites(inst, ())

    def test_service_without_modules_is_the_chain_sum(self):
        # K_1 compiles to one chain and no constraint, so no module: the
        # service has no swept channel and is the signed chain sum alone
        inst = layout_instance("K_1")
        assert not inst.modules
        (name,) = inst.chains
        ch = inst.chains[name]
        service = service_functional(inst, name)
        for lift in (0.6, 1.7, 4.0):
            q = inst.positions[ch.atoms[0]] + np.array([0.3, lift])
            assert service(q) == pytest.approx(chain_sum(inst, name, q), rel=1e-12)

    @given(
        st.sampled_from(["K_{2,2}", "K_{2,3}"]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_requirement_matches_two_channel_oracle(self, tag, seed):
        # plan_anchors prices the other chains' anchors through the chain's
        # service functional; the oracle prices the module channel as a
        # port-weight shift and the chain channel as a signed pair sum.
        # _TRANSFER is symmetric, so the two agree in exact arithmetic.
        inst = cached_instance(tag)
        w2 = homogenize(inst, tail_compensate(inst))
        cfg = inst.config
        rng = np.random.default_rng(seed)
        lo = inst.positions.min(axis=0) - 3.0
        hi = inst.positions.max(axis=0) + 3.0
        k, qs = int(rng.integers(1, 15)), []
        while len(qs) < k:
            q = rng.uniform(lo, hi)
            if np.sqrt(((inst.positions - q) ** 2).sum(axis=1)).min() > 0.5:
                qs.append(tuple(q.tolist()))
        pot = sum(
            float((cfg.c6 / ((inst.positions - q) ** 2).sum(axis=1) ** 3).sum())
            for q in qs
        )
        n = inst.n_atoms * (len(qs) + 1)
        for name, ch in inst.chains.items():
            need = required_splitting(inst, w2, name)
            need -= sum(service_functional(inst, name)(q) for q in qs)
            want = anchored_requirement(inst, w2, name, qs)
            # Rounding bound: either form adds at most n terms, each a
            # weight deficit, the field or an anchor-atom pair energy times
            # a factor of magnitude <= 4.5 (chain signs, swept module
            # jumps); M is the unsigned sum of those.  Each sum lands within
            # n*eps*4.5*M of the exact value, so the two forms within
            # 9*n*eps*M of each other; the bound rounds that up to 10.
            deficit = sum(abs(1.0 - w2[a]) for a in ch.atoms)
            field = abs(inst.program.variable(name).field)
            m = cfg.detuning * (deficit + field) + pot
            assert abs(need - want) <= 10.0 * n * np.finfo(float).eps * m

    @pytest.mark.parametrize(
        "tag, seed",
        [(f, None) for f in ("K_2", "K_{2,2}", "K_{2,3}", "K_{2,4}", "K_{2,5}")]
        + [(f, s) for f in ("K_{2,2}", "K_{2,3}") for s in range(3)],
    )
    def test_plan_anchors_settles_in_few_sweeps(self, tag, seed, monkeypatch):
        # the full-step Gauss-Seidel sweep settles in 3 to 6 sweeps on
        # these; a cap of 8 leaves room for rounding drift and none for a
        # slowly contracting sweep.  Couplings are uniform in +-0.3
        # detunings, as endtoend draws them.
        problem = parse_problem({"family": tag})
        if seed is not None:
            problem = cli._random_instance(problem, np.random.default_rng(seed), 0.3)
        monkeypatch.setattr(programming, "_MAX_ROUNDS", 8)
        lay = build_global_layout(decompose_all(compile_parity(problem)), CFG4)
        assert lay.n_anchors > 0

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
            [diagonal_energy(lay.positions, cfg.detuning, m, cfg.c6) for m in masks]
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
            cfg.detuning,
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


    def test_k24_logical_band_is_ground_band(self):
        # the spectrum of a whole anchored kite grid, as `verify` runs it:
        # 32 logical states below the first bulk state (about 0.011 units
        # up), from block tables of at most 2,389 rows
        cfg = CFG4
        lay = build_global_layout(
            decompose_all(compile_parity(parse_problem({"family": "K_{2,4}"}))),
            cfg,
            link_length=5,
        )
        masks = lay.full_masks()
        unit = cfg.energy_unit
        res = spectrum(
            lay.positions,
            cfg.detuning,
            cfg.c6,
            0.02 * unit,
            hint_configs=masks,
            logical_masks=masks,
        )
        ground = [e for e in res.entries if e.energy <= res.ground_energy + 1e-9 * unit]
        assert ground and all(e.logical for e in ground)
        assert {e.config for e in res.entries[: len(masks)]} == set(masks)
        # the spectrum joins its tables over several passes: the window
        # holds 256 states and the largest joined table 2,389 rows, so a
        # change to what a join keeps moves one of them
        assert len(res.entries) == 256
        assert res.peak_table == 2389


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
