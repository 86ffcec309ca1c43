"""Catalogue of unit-disk MWIS gadgets and their amalgamation.

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
``f3``          three_body with a length-3 link amalgamated radially onto
                each corner, giving the same constraint with well separated
                ports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, ValidationError
from .mwis import solve_mwis, ud_graph
from .physics import PhysicsConfig

KINDS = ("link", "three_body", "kite", "fork", "f3")

_EXPECTED_STATES = {"link": 2, "three_body": 4, "kite": 4, "fork": 2, "f3": 4}


@dataclass(frozen=True, eq=False)
class Gadget:
    kind: str
    positions: np.ndarray
    weights: np.ndarray
    ports: dict  # name -> node index, insertion order is the port order
    port_axes: dict  # name -> outward unit vector
    logical_states: tuple  # masks; [0] is the reference state
    comp_slots: dict  # state index -> tuple of slot node indices
    graph: object
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.weights)

    def port_bits(self, state_index: int):
        """Excitation of each port (in port order) in one logical state."""
        m = self.logical_states[state_index]
        return tuple((m >> i) & 1 for i in self.ports.values())

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
            self.graph,
            dict(self.meta),
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


def _finish(kind, pos, w, ports, axes, config, meta=None, expected=None):
    pos = np.asarray(pos, dtype=float)
    w = np.asarray(w, dtype=float)
    g = ud_graph(pos, config.blockade_radius)
    sol = solve_mwis(g, w)
    states = _order_states(sol.masks, list(ports.values()))
    expected = expected if expected is not None else _EXPECTED_STATES.get(kind)
    if expected is not None and len(states) != expected:
        raise GeometryError(
            f"{kind}: got {len(states)} degenerate maximisers, expected "
            f"{expected}; geometry is invalid at ratio {config.interaction_ratio}"
        )
    if len(states) < 2:
        raise GeometryError(
            f"{kind}: the maximiser is unique; a gadget must stay degenerate"
        )
    slots = _slots(states, list(ports.values()), len(w))
    return Gadget(kind, pos, w, ports, axes, states, slots, g, meta or {})


def _make_link(length, config):
    if length < 2:
        raise ValidationError("link length must be at least 2")
    pos = [(float(i), 0.0) for i in range(length)]
    w = [1.0] + [2.0] * (length - 2) + [1.0]
    ports = {"p0": 0, "p1": length - 1}
    axes = {"p0": (-1.0, 0.0), "p1": (1.0, 0.0)}
    return _finish("link", pos, w, ports, axes, config, meta={"length": length})


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
    core = _make_three_body(config)
    out = core
    for name in ("a", "b", "c"):
        axis = np.asarray(core.port_axes[name])
        angle = math.atan2(axis[1], axis[0])
        corner = core.positions[core.ports[name]]
        tail = _make_link(3, config).placed(rotation=angle, translation=corner)
        out = amalgamate(out, name, tail, "p0", config)
    # re-tag: the three remaining link ends are the gadget's ports a/b/c
    ports = {"a": out.ports["p1"], "b": out.ports["p1_2"], "c": out.ports["p1_3"]}
    axes = {
        "a": out.port_axes["p1"],
        "b": out.port_axes["p1_2"],
        "c": out.port_axes["p1_3"],
    }
    return _finish(
        "f3", out.positions, out.weights, ports, axes, config, meta={"tail": 3}
    )


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


def amalgamate(g1: Gadget, p1: str, g2: Gadget, p2: str, config: PhysicsConfig) -> Gadget:
    """Contract port ``p1`` of ``g1`` with port ``p2`` of ``g2``.

    The caller must already have placed ``g2`` so the two port atoms
    coincide; weights at the contracted atom add.  Any other cross pair
    closer than the blockade radius is a clash.  Logical states of the
    merged gadget are re-solved from scratch.
    """
    if p1 not in g1.ports or p2 not in g2.ports:
        raise ValidationError(f"no such port: {p1!r} / {p2!r}")
    n1 = g1.n
    i1 = g1.ports[p1]
    i2 = g2.ports[p2]
    if np.linalg.norm(g1.positions[i1] - g2.positions[i2]) > 1e-9:
        raise GeometryError(
            f"ports {p1!r} and {p2!r} do not coincide; place g2 first"
        )
    rb = config.blockade_radius
    for i in range(n1):
        for j in range(g2.n):
            if j == i2 or i == i1:
                continue
            if np.linalg.norm(g1.positions[i] - g2.positions[j]) < rb:
                raise GeometryError(
                    f"amalgamation clash: atoms {i} and +{j} closer than the "
                    "blockade radius"
                )
    keep2 = [j for j in range(g2.n) if j != i2]
    remap = {j: n1 + k for k, j in enumerate(keep2)}
    remap[i2] = i1
    pos = np.vstack([g1.positions, g2.positions[keep2]])
    w = np.concatenate([g1.weights, g2.weights[keep2]])
    w[i1] = g1.weights[i1] + g2.weights[i2]
    ports = {k: v for k, v in g1.ports.items() if k != p1}
    axes = {k: g1.port_axes[k] for k in ports}
    for k, v in g2.ports.items():
        if k == p2:
            continue
        name = k
        while name in ports:
            suffix = name.rsplit("_", 1)
            bump = (
                f"{suffix[0]}_{int(suffix[1]) + 1}"
                if len(suffix) == 2 and suffix[1].isdigit()
                else f"{name}_2"
            )
            name = bump
        ports[name] = remap[v]
        axes[name] = g2.port_axes[k]
    kind = f"amalgam({g1.kind}+{g2.kind})"
    return _finish(kind, pos, w, ports, axes, config)
