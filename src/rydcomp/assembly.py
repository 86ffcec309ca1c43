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

Each shape is a placement plan: it places its gadgets through the placer of
:mod:`.gadgets`, fusing links onto module ports, and lists for each variable
its link elements in walk order.  ``_chains`` derives every :class:`Chain`
record from those walks and the placed elements.

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
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, PipelineError, ValidationError
from .gadgets import Gadget, _Builder, _radial_tails, make_gadget
from .mwis import solve_mwis, ud_graph
from .parity import ParityProgram, violations
from .physics import PhysicsConfig, occupancy


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


def lone_instance(gadget: Gadget, config: PhysicsConfig) -> MWISInstance:
    """One free-standing gadget as a one-element instance.

    It has no program and no chains, so only the weight-programming steps
    (``tail_compensate`` and ``homogenize``) take it.
    """
    b = _Builder(config)
    b.add(gadget)
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


def _chains(elements, walks) -> dict:
    """One :class:`Chain` per variable from the link elements it walks through.

    ``walks`` maps each variable to the indices of its link elements in
    walk order.  An atom's phase is its index along its link modulo 2, so
    with odd links every link end sits at phase 0.  The chain's ports are
    its atoms that belong to a module element; its open ends are the ends
    of its links that no other element shares.
    """
    module_atoms = {a for e in elements if e.is_module for a in e.nodes}
    uses = Counter(a for e in elements for a in e.nodes)
    chains = {}
    for name, walk in walks.items():
        phase = {}
        open_ends = []
        for kdx in walk:
            e = elements[kdx]
            for i, a in enumerate(e.nodes):
                phase.setdefault(a, i % 2)
            open_ends += [
                (a, e.gadget.port_axes[port])
                for port, a in e.ports.items()
                if uses[a] == 1
            ]
        chains[name] = Chain(
            name,
            tuple(phase),
            tuple(phase.values()),
            tuple(a for a in phase if a in module_atoms),
            tuple(open_ends),
            tuple(walk),
        )
    return chains


def _parallel_chains(program, config, L):
    b = _Builder(config)
    link = make_gadget("link", config=config, length=L)
    for k in range(len(program.variables)):
        b.add(link.placed(translation=(0.0, 4.0 * k)))
    pos, w, elements = b.finish()
    walks = {v.name: [k] for k, v in enumerate(program.variables)}
    return MWISInstance(program, config, pos, w, elements, _chains(elements, walks))


def _single_triangle(program, config, L):
    b = _Builder(config)
    core = b.add(make_gadget("three_body", config=config))
    _radial_tails(b, core, make_gadget("link", config=config, length=L))
    pos, w, elements = b.finish()
    # element 0 is the core; the tail on port a, b, c follows it
    walks = {name: [k + 1] for k, name in enumerate(program.constraints[0].members)}
    return MWISInstance(program, config, pos, w, elements, _chains(elements, walks))


def _kite_grid(program, config, L):
    m = program.problem.m
    pitch = float(L + 1)
    r3 = math.sqrt(3.0)
    y_bot = -(L - 1) - 2.0 * r3

    b = _Builder(config)
    kite = make_gadget("kite", config=config)
    link = make_gadget("link", config=config, length=L)
    top = [b.add(kite.placed(translation=(pitch * j, 0.0))) for j in range(m - 1)]
    bot = [b.add(kite.placed(translation=(pitch * j, y_bot))) for j in range(m - 1)]
    walks = {}

    # the cut parities run left to right; each link fuses onto the r port of
    # the kite before it and the q port of the kite after it, where there is one
    for i, (kites, y) in enumerate(((top, 0.0), (bot, y_bot))):
        for j in range(m):
            merge = {}
            if j > 0:
                merge[0] = kites[j - 1].ports["r"]
            if j < m - 1:
                merge[L - 1] = kites[j].ports["q"]
            x = -float(L) if j == 0 else pitch * (j - 1) + 1.0
            b.add(link.placed(translation=(x, y)), merge=merge)
            walks[("p", i, j)] = [len(b.elements) - 1]

    for j in range(m - 1):
        k = len(b.elements)
        b.add(
            link.placed(rotation=-math.pi / 2, translation=(pitch * j, -r3)),
            merge={0: top[j].ports["s"], L - 1: bot[j].ports["p"]},
        )
        b.add(
            link.placed(rotation=math.pi / 2, translation=(pitch * j, r3)),
            merge={0: top[j].ports["p"]},
        )
        b.add(
            link.placed(rotation=-math.pi / 2, translation=(pitch * j, y_bot - r3)),
            merge={0: bot[j].ports["s"]},
        )
        walks[("aux", j)] = [k + 1, k, k + 2]  # up stub, column, down stub

    pos, w, elements = b.finish()
    return MWISInstance(program, config, pos, w, elements, _chains(elements, walks))


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
    bits = occupancy(masks, instance.n_atoms)[:, atoms] ^ phases
    values = np.minimum.reduceat(bits, starts, axis=1)
    bad = values != np.maximum.reduceat(bits, starts, axis=1)
    for mask, row, wrong in zip(masks, values.tolist(), bad):
        if wrong.any():
            name = names[int(wrong.argmax())]
            raise PipelineError("read", f"chain of {name} is inconsistent in state {mask:#x}")
        yield tuple(row)


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
