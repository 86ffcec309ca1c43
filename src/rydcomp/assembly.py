"""Placing gadgets on the plane: parity programs become atom layouts.

Supported shapes (anything else raises :class:`GeometryError`):

* programs with no constraints — one horizontal chain per variable, stacked
  with generous vertical clearance;
* the two-variable complete graph — its single weight-3 constraint becomes
  one three-body gadget with a radial chain per variable;
* bipartite problems with a two-variable left block — a double row of kite
  gadgets: each decomposed plaquette contributes a top and a bottom kite
  tied together by a vertical chain carrying the auxiliary variable, while
  the cut parities run horizontally through the kite rows.

Atom positions depend only on the family, the sizes and the chain length —
never on coupling values; couplings enter later through detuning offsets.
All chains use an odd number of atoms so both ends of a chain carry the
variable in the same phase.

``logical_subspace`` certifies the construction: the degenerate maximisers
of the assembled weighted unit-disk instance are re-solved from scratch,
read back through the chains, and matched one-to-one against the satisfying
assignments of the parity program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, PipelineError, ValidationError
from .gadgets import Gadget, make_gadget
from .mwis import solve_mwis, ud_graph
from .parity import ParityProgram, violations
from .physics import PhysicsConfig

_MODULE_KINDS = {"kite", "three_body", "f3"}


@dataclass(frozen=True, eq=False)
class PlacedGadget:
    kind: str
    gadget: Gadget  # placed copy, positions in the global frame
    nodes: tuple  # local index -> global atom id
    ports: dict  # port name -> global atom id
    role: dict

    @property
    def is_module(self) -> bool:
        return self.kind in _MODULE_KINDS


@dataclass(frozen=True)
class Chain:
    """All atoms that carry one parity variable, in walk order.

    ``phases[k]`` says how atom ``atoms[k]`` encodes the variable:
    excited == value XOR phase.  ``ports`` are the atoms shared with a
    module gadget; ``open_ends`` are chain tips that continue into free
    space, each with its outward axis.
    """

    variable: tuple
    atoms: tuple
    phases: tuple
    ports: tuple
    open_ends: tuple  # ((atom id, (ux, uy)), ...)
    elements: tuple  # indices into MWISInstance.elements of this chain's links


@dataclass(frozen=True, eq=False)
class MWISInstance:
    program: ParityProgram
    config: PhysicsConfig
    positions: np.ndarray
    weights: np.ndarray  # bare constraint weights (units of the detuning)
    elements: tuple  # PlacedGadget, fixed deterministic order
    chains: dict  # variable name -> Chain
    _graph: object = field(default=None, repr=False, compare=False)

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @property
    def graph(self):
        if self._graph is None:
            object.__setattr__(
                self, "_graph", ud_graph(self.positions, self.config.blockade_radius)
            )
        return self._graph

    @property
    def modules(self) -> tuple:
        return tuple(k for k, e in enumerate(self.elements) if e.is_module)

    @property
    def copies(self) -> tuple:
        return tuple(k for k, e in enumerate(self.elements) if not e.is_module)


@dataclass(frozen=True)
class LogicalState:
    mask: int
    values: tuple  # physical parity bits, program variable order


class _Builder:
    def __init__(self, config):
        self.config = config
        self.pos = []
        self.w = []
        self.elements = []

    def add(self, gadget: Gadget, role: dict, merge: dict | None = None) -> PlacedGadget:
        merge = dict(merge or {})
        rb = self.config.blockade_radius
        n_before = len(self.pos)
        nodes = [None] * gadget.n
        for local, gid in merge.items():
            drift = float(np.linalg.norm(gadget.positions[local] - self.pos[gid]))
            if drift > 1e-9:
                raise GeometryError(
                    f"cannot fuse atom {local} of {gadget.kind} onto atom {gid}: "
                    f"positions differ by {drift:.3g}"
                )
            nodes[local] = gid
            self.w[gid] += float(gadget.weights[local])
        fresh = [local for local in range(gadget.n) if nodes[local] is None]
        if fresh and n_before:
            # new atoms against every placed atom but the fused ones; the
            # first clash in (local, gid) order is the one reported
            diff = gadget.positions[fresh][:, None, :] - np.asarray(self.pos)[None, :, :]
            clash = np.linalg.norm(diff, axis=2) < rb
            clash[:, list(merge.values())] = False
            rows, gids = np.nonzero(clash)
            if len(rows):
                raise GeometryError(
                    f"{gadget.kind} atom {fresh[rows[0]]} clashes with existing atom "
                    f"{gids[0]} (closer than the blockade radius)"
                )
        for local in fresh:
            nodes[local] = len(self.pos)
            self.pos.append(np.asarray(gadget.positions[local], dtype=float))
            self.w.append(float(gadget.weights[local]))
        placed = PlacedGadget(
            gadget.kind,
            gadget,
            tuple(nodes),
            {name: nodes[i] for name, i in gadget.ports.items()},
            role,
        )
        self.elements.append(placed)
        return placed

    def finish(self) -> tuple:
        return (
            np.array(self.pos, dtype=float),
            np.array(self.w, dtype=float),
            tuple(self.elements),
        )


def lone_instance(gadget: Gadget, config: PhysicsConfig) -> MWISInstance:
    """One free-standing gadget as a one-element instance.

    It has no program and no chains, so only the weight-programming steps
    (``tail_compensate`` and ``homogenize``) take it.
    """
    b = _Builder(config)
    b.add(gadget, {})
    pos, w, elements = b.finish()
    return MWISInstance(None, config, pos, w, elements, {})


def _require_triples(program):
    if any(len(c.members) != 3 for c in program.constraints):
        raise ValidationError(
            "assembly needs weight-3 constraints; run decompose_all first"
        )
    if any(c.target != 1 for c in program.constraints):
        raise ValidationError("assembly expects odd-parity (target 1) constraints")


def assemble_layout(
    program: ParityProgram, config: PhysicsConfig, *, link_length: int = 5
) -> MWISInstance:
    if link_length < 3 or link_length % 2 == 0:
        raise ValidationError("chains need an odd length of at least 3")
    _require_triples(program)
    problem = program.problem
    if not program.constraints:
        return _parallel_chains(program, config, link_length)
    if problem.family == "complete" and problem.n == 2:
        return _single_triangle(program, config, link_length)
    if problem.family == "bipartite" and problem.n == 2 and problem.m >= 2:
        return _kite_grid(program, config, link_length)
    raise GeometryError(
        f"no assembly for {problem.label}: supported are constraint-free "
        "problems, K_2, and K_{2,m}"
    )


def _link_chain_record(e: PlacedGadget, junction_first: bool, kdx):
    """Chain along a single straight link element."""
    n = len(e.nodes)
    # phase 0 at every junction; odd length keeps open ends at phase 0 too
    if junction_first:
        phases = tuple(i % 2 for i in range(n))
    else:
        phases = tuple((n - 1 - i) % 2 for i in range(n))
    return list(e.nodes), list(phases), [kdx]


def _parallel_chains(program, config, L):
    b = _Builder(config)
    link = make_gadget("link", config=config, length=L)
    chains = {}
    for k, v in enumerate(program.variables):
        e = b.add(link.placed(translation=(0.0, 4.0 * k)), {"variable": v.name})
        chains[v.name] = Chain(
            v.name,
            e.nodes,
            tuple(i % 2 for i in range(L)),
            (),
            ((e.ports["p0"], e.gadget.port_axes["p0"]),
             (e.ports["p1"], e.gadget.port_axes["p1"])),
            (len(b.elements) - 1,),
        )
    pos, w, elements = b.finish()
    return MWISInstance(program, config, pos, w, elements, chains)


def _single_triangle(program, config, L):
    b = _Builder(config)
    core = make_gadget("three_body", config=config)
    placed_core = b.add(core, {"constraint": 0})
    members = program.constraints[0].members
    chains = {}
    for port, name in zip(("a", "b", "c"), members):
        axis = np.asarray(core.port_axes[port])
        angle = math.atan2(axis[1], axis[0])
        corner = core.positions[core.ports[port]]
        link = make_gadget("link", config=config, length=L)
        e = b.add(
            link.placed(rotation=angle, translation=tuple(corner)),
            {"variable": name},
            merge={0: placed_core.ports[port]},
        )
        chains[name] = Chain(
            name,
            e.nodes,
            tuple(i % 2 for i in range(L)),
            (placed_core.ports[port],),
            ((e.ports["p1"], e.gadget.port_axes["p1"]),),
            (len(b.elements) - 1,),
        )
    pos, w, elements = b.finish()
    return MWISInstance(program, config, pos, w, elements, chains)


def _kite_grid(program, config, L):
    problem = program.problem
    m = problem.m
    pitch = float(L + 1)
    r3 = math.sqrt(3.0)
    y_bot = -(L - 1) - 2.0 * r3

    b = _Builder(config)
    kite = make_gadget("kite", config=config)
    link = make_gadget("link", config=config, length=L)

    top = [
        b.add(kite.placed(translation=(pitch * j, 0.0)), {"row": 0, "plaquette": j})
        for j in range(m - 1)
    ]
    bot = [
        b.add(kite.placed(translation=(pitch * j, y_bot)), {"row": 1, "plaquette": j})
        for j in range(m - 1)
    ]

    chains = {}

    def horizontal_row(i, kites, y):
        for j in range(m):
            name = ("p", i, j)
            if j == 0:
                e = b.add(
                    link.placed(translation=(-float(L), y)),
                    {"variable": name},
                    merge={L - 1: kites[0].ports["q"]},
                )
                atoms, phases, els = _link_chain_record(e, False, len(b.elements) - 1)
                ports = (kites[0].ports["q"],)
                open_ends = ((e.ports["p0"], e.gadget.port_axes["p0"]),)
            elif j == m - 1:
                e = b.add(
                    link.placed(translation=(pitch * (m - 2) + 1.0, y)),
                    {"variable": name},
                    merge={0: kites[m - 2].ports["r"]},
                )
                atoms, phases, els = _link_chain_record(e, True, len(b.elements) - 1)
                ports = (kites[m - 2].ports["r"],)
                open_ends = ((e.ports["p1"], e.gadget.port_axes["p1"]),)
            else:
                e = b.add(
                    link.placed(translation=(pitch * (j - 1) + 1.0, y)),
                    {"variable": name},
                    merge={0: kites[j - 1].ports["r"], L - 1: kites[j].ports["q"]},
                )
                atoms, phases, els = _link_chain_record(e, True, len(b.elements) - 1)
                ports = (kites[j - 1].ports["r"], kites[j].ports["q"])
                open_ends = ()
            chains[name] = Chain(
                name, tuple(atoms), tuple(phases), ports, open_ends, tuple(els)
            )

    horizontal_row(0, top, 0.0)
    horizontal_row(1, bot, y_bot)

    for j in range(m - 1):
        name = ("aux", j)
        vert = b.add(
            link.placed(rotation=-math.pi / 2, translation=(pitch * j, -r3)),
            {"variable": name, "segment": "column"},
            merge={0: top[j].ports["s"], L - 1: bot[j].ports["p"]},
        )
        stub_up = b.add(
            link.placed(rotation=math.pi / 2, translation=(pitch * j, r3)),
            {"variable": name, "segment": "stub_up"},
            merge={0: top[j].ports["p"]},
        )
        stub_dn = b.add(
            link.placed(rotation=-math.pi / 2, translation=(pitch * j, y_bot - r3)),
            {"variable": name, "segment": "stub_down"},
            merge={0: bot[j].ports["s"]},
        )
        atoms = []
        phases = []
        for e in (stub_up, vert, stub_dn):
            for i, gid in enumerate(e.nodes):
                if gid in atoms:
                    continue
                atoms.append(gid)
                phases.append(i % 2)
        chains[name] = Chain(
            name,
            tuple(atoms),
            tuple(phases),
            (
                top[j].ports["p"],
                top[j].ports["s"],
                bot[j].ports["p"],
                bot[j].ports["s"],
            ),
            (
                (stub_up.ports["p1"], stub_up.gadget.port_axes["p1"]),
                (stub_dn.ports["p1"], stub_dn.gadget.port_axes["p1"]),
            ),
            (len(b.elements) - 2, len(b.elements) - 3, len(b.elements) - 1),
        )

    pos, w, elements = b.finish()
    return MWISInstance(program, config, pos, w, elements, chains)


def _read_rows(instance: MWISInstance, masks):
    """Parity-variable values of each pattern in ``masks``, yielded in order.

    All patterns are unpacked into one bit matrix and every chain is read
    at once.  Every atom of a chain must agree on the variable's value; the
    first pattern where a chain disagrees is reported as a pipeline error
    when its turn comes, naming the first such chain in variable order.
    """
    names = [v.name for v in instance.program.variables]
    chains = [instance.chains[name] for name in names]
    atoms = np.concatenate([ch.atoms for ch in chains])
    phases = np.concatenate([ch.phases for ch in chains]).astype(np.uint8)
    starts = np.cumsum([0] + [len(ch.atoms) for ch in chains[:-1]])
    width = (max([instance.n_atoms] + [mask.bit_length() for mask in masks]) + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    bits = np.unpackbits(packed, axis=1, bitorder="little")[:, atoms] ^ phases
    values = np.minimum.reduceat(bits, starts, axis=1)
    bad = values != np.maximum.reduceat(bits, starts, axis=1)
    for mask, row, wrong in zip(masks, values.tolist(), bad):
        if wrong.any():
            name = names[int(wrong.argmax())]
            raise PipelineError("read", f"chain of {name} is inconsistent in state {mask:#x}")
        yield tuple(row)


def read_values(instance: MWISInstance, mask: int) -> tuple:
    """Parity-variable values carried by one excitation pattern.

    Every atom of a chain must agree on the variable's value; disagreement
    means the pattern is not logical and is reported as a pipeline error.
    """
    return next(_read_rows(instance, [mask]))


def logical_subspace(instance: MWISInstance) -> tuple:
    """Solve the assembled instance and certify it against the program.

    Returns one :class:`LogicalState` per degenerate maximiser.  Raises
    :class:`PipelineError` unless the maximisers biject onto the satisfying
    assignments of the parity program.
    """
    program = instance.program
    problem = program.problem
    sol = solve_mwis(instance.graph, instance.weights)
    states = []
    seen = set()
    for mask, values in zip(sol.masks, _read_rows(instance, sol.masks)):
        if violations(program, values):
            raise PipelineError(
                "certify", f"maximiser {mask:#x} reads as an unsatisfying pattern"
            )
        if values in seen:
            raise PipelineError(
                "certify", f"two maximisers read as the same pattern {values}"
            )
        seen.add(values)
        states.append(LogicalState(mask, values))
    if problem.family == "complete":
        expected = 2 ** problem.n
    else:
        expected = 2 ** (problem.n + problem.m - 1)
    if len(states) != expected:
        raise PipelineError(
            "certify",
            f"{len(states)} degenerate maximisers but {expected} satisfying "
            "assignments",
        )
    states.sort(key=lambda s: s.mask)
    return tuple(states)
