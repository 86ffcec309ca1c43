"""Catalogue of unit-disk MWIS gadgets and the placer that fuses them.

Distances are in units of the lattice spacing and weights in units of the
global detuning.  Every gadget records:

* ``ports`` — named attachment atoms where chains continue or anchors sit,
* ``port_axes`` — outward unit vector per port (the direction a continuation
  or an axial anchor extends),
* ``logical_states`` — the degenerate MWIS maximisers, recomputed exactly at
  construction by the solver (never hard-coded), ordered with the
  all-ports-excited reference state first,
* ``comp_slots`` — per non-reference state, the interior atoms excited in
  exactly that one logical state; these later absorb interaction-tail
  corrections without touching any other state.

The catalogue:

``link(L)``     a straight chain, weights 1,2,...,2,1; its two maximisers are
                the two alternating patterns (a copy line / parity chain).
``three_body``  corners of a side-2 triangle (weight 1, the ports) plus the
                three side midpoints (weight 2, mutually adjacent); the four
                maximisers encode an odd-parity constraint on the corners.
``kite``        two three-body gadgets glued along an edge (9 atoms): ports
                p,q,r,s with s locked to p; enforces p XOR q XOR r = 1 while
                passing p straight through — the workhorse for grids.
``fork``        an inverting one-to-two fan-out: trunk port plus two branch
                tines at 45 degrees.
``f3``          three_body with a length-3 link fused radially onto each
                corner, giving the same constraint with well separated
                ports.

``_Builder`` places gadgets one by one in a global frame, fusing each new
gadget onto atoms already placed at shared ports (weights add there) and
refusing any other pair closer than the blockade radius.  ``f3`` and every
assembled layout are built with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ValidationError
from .mwis import solve_mwis, ud_graph
from .physics import PhysicsConfig, distances

KINDS = ("link", "three_body", "kite", "fork", "f3")

_EXPECTED_STATES = {"link": 2, "three_body": 4, "kite": 4, "fork": 2, "f3": 4}

_MODULE_KINDS = {"kite", "three_body", "f3"}


@dataclass(frozen=True, eq=False)
class Gadget:
    kind: str
    positions: np.ndarray
    weights: np.ndarray
    ports: dict  # name -> node index, insertion order is the port order
    port_axes: dict  # name -> outward unit vector
    logical_states: tuple  # masks; [0] is the reference state
    comp_slots: dict  # state index -> tuple of slot node indices

    @property
    def n(self) -> int:
        return len(self.weights)

    def placed(self, rotation: float = 0.0, translation=(0.0, 0.0)) -> "Gadget":
        """Rigidly transformed copy (same node order, states, weights)."""
        c, s = math.cos(rotation), math.sin(rotation)
        rot = np.array([[c, -s], [s, c]])
        pos = self.positions @ rot.T + np.asarray(translation, dtype=float)
        axes = {k: tuple(rot @ np.asarray(v)) for k, v in self.port_axes.items()}
        return Gadget(
            self.kind,
            pos,
            self.weights.copy(),
            dict(self.ports),
            axes,
            self.logical_states,
            dict(self.comp_slots),
        )


def _order_states(masks, port_nodes):
    def key(m):
        bits = tuple((m >> i) & 1 for i in port_nodes)
        return (-sum(bits), tuple(1 - b for b in bits), m)

    return tuple(sorted(masks, key=key))


def _slots(states, port_nodes, n):
    ports = set(port_nodes)
    out = {}
    for idx, st in enumerate(states):
        only = []
        for i in range(n):
            if i in ports or not (st >> i) & 1:
                continue
            if all((other >> i) & 1 == 0 for j, other in enumerate(states) if j != idx):
                only.append(i)
        if only and idx > 0:
            out[idx] = tuple(only)
    return out


def _finish(kind, pos, w, ports, axes, config):
    pos = np.asarray(pos, dtype=float)
    w = np.asarray(w, dtype=float)
    sol = solve_mwis(ud_graph(pos, config.blockade_radius), w)
    states = _order_states(sol.masks, list(ports.values()))
    expected = _EXPECTED_STATES[kind]
    if len(states) != expected:
        raise GeometryError(
            f"{kind}: got {len(states)} degenerate maximisers, expected "
            f"{expected}; geometry is invalid at ratio {config.interaction_ratio}"
        )
    slots = _slots(states, list(ports.values()), len(w))
    return Gadget(kind, pos, w, ports, axes, states, slots)


def _make_link(length, config):
    if length < 2:
        raise ValidationError("link length must be at least 2")
    pos = [(float(i), 0.0) for i in range(length)]
    w = [1.0] + [2.0] * (length - 2) + [1.0]
    ports = {"p0": 0, "p1": length - 1}
    axes = {"p0": (-1.0, 0.0), "p1": (1.0, 0.0)}
    return _finish("link", pos, w, ports, axes, config)


def _make_three_body(config):
    a = np.array([0.0, 2.0 / math.sqrt(3.0)])
    b = np.array([-1.0, -1.0 / math.sqrt(3.0)])
    c = np.array([1.0, -1.0 / math.sqrt(3.0)])
    pos = [a, b, c, (a + b) / 2, (a + c) / 2, (b + c) / 2]
    w = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    ports = {"a": 0, "b": 1, "c": 2}
    axes = {
        "a": tuple(a / np.linalg.norm(a)),
        "b": tuple(b / np.linalg.norm(b)),
        "c": tuple(c / np.linalg.norm(c)),
    }
    return _finish("three_body", pos, w, ports, axes, config)


def _make_kite(config):
    r3 = math.sqrt(3.0)
    pos = [
        (0.0, r3),  # 0 p
        (-1.0, 0.0),  # 1 q
        (1.0, 0.0),  # 2 r
        (0.0, -r3),  # 3 s
        (-0.5, r3 / 2),  # 4 mid p-q
        (0.5, r3 / 2),  # 5 mid p-r
        (0.0, 0.0),  # 6 mid q-r (shared by both halves)
        (-0.5, -r3 / 2),  # 7 mid s-q
        (0.5, -r3 / 2),  # 8 mid s-r
    ]
    w = [1.0, 2.0, 2.0, 1.0, 2.0, 2.0, 4.0, 2.0, 2.0]
    ports = {"p": 0, "q": 1, "r": 2, "s": 3}
    axes = {"p": (0.0, 1.0), "q": (-1.0, 0.0), "r": (1.0, 0.0), "s": (0.0, -1.0)}
    return _finish("kite", pos, w, ports, axes, config)


def _make_fork(config):
    if config.interaction_ratio >= 8.0:
        raise GeometryError(
            "fork tines separated by sqrt(2) become blockaded above ratio 8"
        )
    h = math.sqrt(0.5)
    pos = [
        (-1.0, 0.0),  # 0 trunk port
        (0.0, 0.0),  # 1 junction
        (h, h),  # 2 upper tine inner
        (2 * h, 2 * h),  # 3 upper tine end (port)
        (h, -h),  # 4 lower tine inner
        (2 * h, -2 * h),  # 5 lower tine end (port)
    ]
    w = [1.0, 3.0, 2.0, 1.0, 2.0, 1.0]
    ports = {"trunk": 0, "branch_a": 3, "branch_b": 5}
    axes = {"trunk": (-1.0, 0.0), "branch_a": (h, h), "branch_b": (h, -h)}
    return _finish("fork", pos, w, ports, axes, config)


def _make_f3(config):
    b = _Builder(config)
    core = b.add(_make_three_body(config))
    tails = _radial_tails(b, core, _make_link(3, config))
    pos, w, _ = b.finish()
    ports = {name: tail.ports["p1"] for name, tail in zip(core.ports, tails)}
    axes = {name: tail.gadget.port_axes["p1"] for name, tail in zip(core.ports, tails)}
    return _finish("f3", pos, w, ports, axes, config)


def make_gadget(kind: str, *, config: PhysicsConfig, length: int | None = None) -> Gadget:
    """Construct a catalogue gadget; logical states are solved, not assumed."""
    if kind == "link":
        if length is None:
            raise ValidationError("link needs a length")
        return _make_link(int(length), config)
    if length is not None:
        raise ValidationError(f"{kind} does not take a length")
    if kind == "three_body":
        return _make_three_body(config)
    if kind == "kite":
        return _make_kite(config)
    if kind == "fork":
        return _make_fork(config)
    if kind == "f3":
        return _make_f3(config)
    raise ValidationError(f"unknown gadget kind {kind!r}; catalogue: {KINDS}")


@dataclass(frozen=True, eq=False)
class PlacedGadget:
    kind: str
    gadget: Gadget  # placed copy, positions in the global frame
    nodes: tuple  # local index -> global atom id
    ports: dict  # port name -> global atom id

    @property
    def is_module(self) -> bool:
        return self.kind in _MODULE_KINDS


class _Builder:
    def __init__(self, config):
        self.config = config
        self.pos = np.empty((0, 2))  # grows once per add
        self.w = []
        self.elements = []

    def add(self, gadget: Gadget, merge: dict | None = None) -> PlacedGadget:
        """Place ``gadget`` as it stands, fusing local atom ``l`` onto atom ``merge[l]``."""
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
            clash = distances(gadget.positions[fresh], self.pos) < rb
            clash[:, list(merge.values())] = False
            rows, gids = np.nonzero(clash)
            if len(rows):
                raise GeometryError(
                    f"{gadget.kind} atom {fresh[rows[0]]} clashes with existing atom "
                    f"{gids[0]} (closer than the blockade radius)"
                )
        for k, local in enumerate(fresh):
            nodes[local] = n_before + k
            self.w.append(float(gadget.weights[local]))
        self.pos = np.concatenate([self.pos, gadget.positions[fresh]])
        placed = PlacedGadget(
            gadget.kind,
            gadget,
            tuple(nodes),
            {name: nodes[i] for name, i in gadget.ports.items()},
        )
        self.elements.append(placed)
        return placed

    def finish(self) -> tuple:
        return (
            self.pos.copy(),
            np.array(self.w, dtype=float),
            tuple(self.elements),
        )


def _radial_tails(b: _Builder, core: PlacedGadget, link: Gadget) -> list:
    """Fuse a copy of ``link`` by its ``p0`` onto each port of ``core``, pointing outward."""
    tails = []
    for name, gid in core.ports.items():
        ux, uy = core.gadget.port_axes[name]
        corner = core.gadget.positions[core.gadget.ports[name]]
        tail = link.placed(rotation=math.atan2(uy, ux), translation=corner)
        tails.append(b.add(tail, merge={0: gid}))
    return tails
