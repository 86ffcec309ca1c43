"""From a certified layout to a globally drivable one.

The assembled instance is a *weighted* independent-set problem, but the
hardware applies the same detuning to every atom.  This module closes that
gap in three exact bookkeeping steps plus one geometric one:

1. tail compensation (``tail_compensate``) — pair interactions do not stop
   at the blockade radius; the long tails inside every chain and around
   every module are summed exactly and folded back into per-atom weights so
   the degenerate manifold survives;
2. homogenisation (``homogenize``) — the corrected weights are rewritten so
   every interior atom wants exactly one unit of detuning, pushing all
   deviations onto junctions and chain ends;
3. anchor planning (``plan_anchors``) — each variable's residual weight
   imbalance plus its problem field becomes always-excited auxiliary atoms:
   one axial anchor per open chain end, plus, for a nonzero field, one or
   more interior anchors (more once the field passes ``_EXPOSURE``), each
   root-solved against the exact interaction sum over the whole chain;
4. ``build_global_layout`` runs the full pipeline and returns atom
   positions plus one uniform detuning per atom.

A free-standing gadget is compensated and homogenised by the same
``tail_compensate`` and ``homogenize``, as a one-element instance
(``assembly.lone_instance``).  Only its anchoring is specific to gadgets:
``balance_open_ports`` polishes the port anchors against the exact
state-degeneracy conditions of the gadget plus its anchors — the ground
truth the instance-level anchor planner approximates.

Sign convention throughout: a positive required splitting must *raise* the
energy of the chain's value-1 states relative to its value-0 states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import MWISInstance, assemble_layout, logical_subspace, lone_instance
from .errors import (
    GeometryError,
    NoRootInRange,
    PipelineError,
    ValidationError,
)
from .gadgets import Gadget
from .mwis import ud_graph
from .physics import mask_of, moving_energy, pair_matrix

# Sweeping a slot deposit onto the ports: the half-difference map sends the
# per-state deposits (a, b, c) to port increments that move every logical
# state's total weight by the same -(a+b+c)/2, so degeneracy is preserved.
_TRANSFER = 0.5 * np.array(
    [[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
)

# Which ports, and with which fraction, receive the swept deposit of each
# non-reference state.  The kite splits its share over the pass-through pair.
_PORT_SHARES = {
    "three_body": {1: (("a", 1.0),), 2: (("b", 1.0),), 3: (("c", 1.0),)},
    "kite": {1: (("p", 0.5), ("s", 0.5)), 2: (("q", 1.0),), 3: (("r", 1.0),)},
    "f3": {1: (("a", 1.0),), 2: (("b", 1.0),), 3: (("c", 1.0),)},
}

# Ports that move together when a free-standing gadget is anchored, and the
# state pair whose exact degeneracy that orbit is responsible for.  Ports in
# no orbit keep their first-guess distance (the fork trunk: one condition is
# enough for its two states, so the branch orbit owns it).
_ORBITS = {
    "link": ((("p0", "p1"), (1, 0)),),
    "three_body": ((("a", "b", "c"), (1, 0)),),
    # the pass-through pair is on in state 0 and state 1 alike, so its
    # distance only moves the gap to state 2 (and 3, by mirror symmetry);
    # the cross pair likewise owns the state-1 condition
    "kite": ((("p", "s"), (2, 0)), (("q", "r"), (1, 0))),
    "fork": ((("branch_a", "branch_b"), (1, 0)),),
    "f3": ((("a", "b", "c"), (1, 0)),),
}


def solve_bracketed(fn, lo, hi, *, target=0.0, tol=1e-12, samples=128):
    """Solve ``fn(y) == target`` on [lo, hi] without derivatives.

    A uniform scan finds a sign change, bisection shrinks it, and a secant
    polish drives the residual below ``tol`` (same units as ``fn``).  Raises
    :class:`NoRootInRange` when the scan sees no crossing or the polish
    cannot reach the tolerance.
    """
    if not lo < hi:
        raise ValidationError(f"need lo < hi, got [{lo}, {hi}]")

    def g(y):
        return fn(y) - target

    ys = np.linspace(lo, hi, samples).tolist()
    vals = [g(y) for y in ys]
    bracket = None
    for k in range(samples - 1):
        if vals[k] == 0.0:
            bracket = (k, k)
            break
        if vals[k] * vals[k + 1] < 0.0:
            bracket = (k, k + 1)
            break
    else:
        if vals[-1] == 0.0:
            bracket = (-1, -1)
    if bracket is None:
        raise NoRootInRange(
            f"no sign change against target {target:.6g} in [{lo:.6g}, {hi:.6g}]",
            lo,
            hi,
        )
    a, b = (ys[k] for k in bracket)
    fa, fb = (vals[k] for k in bracket)
    if fa == 0.0:
        b, fb = a, fa
    for _ in range(100):
        if b - a < 1e-14 * max(1.0, abs(a)):
            break
        mid = 0.5 * (a + b)
        fm = g(mid)
        if fm == 0.0:
            a = b = mid
            fa = fb = 0.0
            break
        if fa * fm < 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    x0, f0 = a, fa
    x1, f1 = b, fb
    for _ in range(60):
        if abs(f1) <= tol:
            return x1
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (lo <= x2 <= hi) or not math.isfinite(x2):
            x2 = 0.5 * (x0 + x1)
        x0, f0 = x1, f1
        x1, f1 = x2, g(x2)
    if abs(f1) <= tol:
        return x1
    raise NoRootInRange(
        f"residual {abs(f1):.3g} stuck above tolerance {tol:.3g}", lo, hi
    )


def quadratic_model(fn, y0, h=1e-4):
    """(value, slope, curvature) of ``fn`` at ``y0`` by central differences."""
    f0 = fn(y0)
    fp = fn(y0 + h)
    fm = fn(y0 - h)
    return f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / h**2


# ---------------------------------------------------------------------------
# step 1: exact tail compensation


def _tail_pairs(positions, radius, c6):
    """Pair energies of every non-edge pair; edges and diagonal are zero."""
    v = pair_matrix(positions, c6)
    g = ud_graph(positions, radius)
    for i, j in g.edges:
        v[i, j] = 0.0
        v[j, i] = 0.0
    return v


def _copy_correction(v, nodes, states, ports, dlt):
    """Port increments that re-tie the two states of one chain element."""
    tails = []
    for st in states:
        on = [g for k, g in enumerate(nodes) if (st >> k) & 1]
        tails.append(sum(v[a, b] for x, a in enumerate(on) for b in on[x + 1 :]))
    delta = tails[0] - tails[1]
    out = {}
    for name, loc in ports.items():
        diff = ((states[0] >> loc) & 1) - ((states[1] >> loc) & 1)
        out[nodes[loc]] = diff * delta / (len(ports) * dlt)
    return out


def _module_deposits(v, pairs, occupancies, slots, nodes, dlt):
    """Per-slot increments that re-tie the module states over its pairs."""
    tails = [
        sum(v[a, b] * occ[a] * occ[b] for a, b in pairs) for occ in occupancies
    ]
    out = {}
    for idx, slot_locals in slots.items():
        dep = (tails[idx] - tails[0]) / (len(slot_locals) * dlt)
        for loc in slot_locals:
            out[nodes[loc]] = out.get(nodes[loc], 0.0) + dep
    return out


def _chains_touching(instance):
    """variable name -> set of module element indices its ports sit on."""
    module_of = {}
    for kdx in instance.modules:
        for a in instance.elements[kdx].nodes:
            module_of[a] = kdx
    touch = {}
    for name, ch in instance.chains.items():
        touch[name] = {module_of[p] for p in ch.ports if p in module_of}
    return module_of, touch


def _assign_module_pairs(instance, v):
    """Owner module of every compensable non-edge pair.

    A module owns a pair when both occupancies are functions of its logical
    state: its own internal pairs, pairs into any chain hanging off it, and
    pairs between two chains that both hang off it.  Pairs inside a single
    chain element belong to the copy pass and are skipped here; pairs with
    no qualifying owner (atoms of unrelated plaquettes) stay uncompensated
    and are part of the documented error budget.
    """
    if not instance.modules:
        return {}
    n = instance.n_atoms
    module_of, touch = _chains_touching(instance)
    chain_of = {}
    for name, ch in instance.chains.items():
        for a in ch.atoms:
            chain_of[a] = name
    elements_of = [set() for _ in range(n)]
    for kdx, e in enumerate(instance.elements):
        for a in e.nodes:
            elements_of[a].add(kdx)
    out = {kdx: [] for kdx in instance.modules}
    for a in range(n):
        for b in range(a + 1, n):
            if v[a, b] == 0.0:
                continue
            shared = elements_of[a] & elements_of[b]
            if any(not instance.elements[k].is_module for k in shared):
                continue  # same chain element: the copy pass owns it
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


def _module_occupancies(instance, kdx):
    """Occupation of the module and all its chains, one dict per state."""
    e = instance.elements[kdx]
    module_atoms = set(e.nodes)
    hooked = [
        ch
        for ch in instance.chains.values()
        if any(p in module_atoms for p in ch.ports)
    ]
    out = []
    for st in e.gadget.logical_states:
        occ = {a: (st >> loc) & 1 for loc, a in enumerate(e.nodes)}
        for ch in hooked:
            on_module = [p for p in ch.ports if p in module_atoms]
            values = {occ[p] for p in on_module}
            if len(values) != 1:
                raise PipelineError(
                    "compensate",
                    f"module ports of {ch.variable} disagree in state {st:#x}",
                )
            value = values.pop()
            for a, ph in zip(ch.atoms, ch.phases):
                bit = value ^ ph
                if occ.setdefault(a, bit) != bit:
                    raise PipelineError(
                        "compensate",
                        f"atom {a} is double-booked with conflicting phases",
                    )
        out.append(occ)
    return out


def tail_compensate(instance: MWISInstance) -> np.ndarray:
    """Bare weights plus the exact interaction-tail corrections.

    Chain elements spread their internal tail difference over their ports;
    every module absorbs the tails of its whole neighbourhood — its own
    atoms, the chains hanging off it and the pairs between those chains —
    on its per-state compensation slots.  Each non-edge pair is counted at
    most once, so for a layout whose pairs all have an owner the corrected
    weights tie the logical manifold exactly.
    """
    cfg = instance.config
    v = _tail_pairs(instance.positions, cfg.blockade_radius, cfg.c6)
    w1 = instance.weights.astype(float).copy()
    for kdx in instance.copies:
        e = instance.elements[kdx]
        for atom, c in _copy_correction(
            v, e.nodes, e.gadget.logical_states, e.gadget.ports, cfg.detuning
        ).items():
            w1[atom] += c
    assigned = _assign_module_pairs(instance, v)
    for kdx in instance.modules:
        e = instance.elements[kdx]
        occ = _module_occupancies(instance, kdx)
        for atom, c in _module_deposits(
            v, assigned[kdx], occ, e.gadget.comp_slots, e.nodes, cfg.detuning
        ).items():
            w1[atom] += c
    return w1


# ---------------------------------------------------------------------------
# step 2: weight homogenisation


def homogeneous_weights(gadget: Gadget) -> np.ndarray:
    """Catalogue weights rescaled so every interior atom sits at one unit.

    Port values are forced by the fusion rules: a chain end carries 1/2 so
    two fused ends make a full unit, the kite pass-through pair carries 3/4
    each, and the fork splits 1/3 against 2/3 across the inversion.  Every
    logical state of a gadget keeps the same total under this map.
    """
    w = np.ones(gadget.n)
    p = gadget.ports
    if gadget.kind == "link":
        w[[p["p0"], p["p1"]]] = 0.5
    elif gadget.kind in ("three_body", "f3"):
        w[[p["a"], p["b"], p["c"]]] = 0.5
    elif gadget.kind == "kite":
        w[[p["p"], p["s"]]] = 0.75
        w[[p["q"], p["r"]]] = 0.5
    elif gadget.kind == "fork":
        w[p["trunk"]] = 1.0 / 3.0
        w[[p["branch_a"], p["branch_b"]]] = 2.0 / 3.0
    else:
        raise ValidationError(f"no homogeneous form for kind {gadget.kind!r}")
    return w


def _sweep_to_ports(gadget, nodes, deps, out):
    """Add the half-difference sweep of per-state deposits onto the ports."""
    moved = _TRANSFER @ deps
    for idx, shares in _PORT_SHARES[gadget.kind].items():
        for port, frac in shares:
            out[nodes[gadget.ports[port]]] += moved[idx - 1] * frac


def _sweep_slots(gadget, nodes, bare, w1, w2):
    """Move slot deposits onto the ports, preserving state degeneracy."""
    deps = np.zeros(3)
    for idx in (1, 2, 3):
        for loc in gadget.comp_slots.get(idx, ()):
            a = nodes[loc]
            d = w1[a] - bare[a]
            deps[idx - 1] += d
            w2[a] -= d
    _sweep_to_ports(gadget, nodes, deps, w2)


def homogenize(instance: MWISInstance, w1: np.ndarray) -> np.ndarray:
    """Rewrite corrected weights onto the uniform-interior form.

    Every correction accumulated in ``w1`` rides along; module slot deposits
    are swept onto the module ports through the half-difference transfer,
    which shifts all logical states of a module by the same amount.  After
    this step only junction atoms, chain ends and ports can differ from one
    unit — exactly the atoms the anchor planner knows how to serve.
    """
    w2 = w1.astype(float) - instance.weights
    for e in instance.elements:
        hw = homogeneous_weights(e.gadget)
        for loc, a in enumerate(e.nodes):
            w2[a] += hw[loc]
    for kdx in instance.modules:
        e = instance.elements[kdx]
        _sweep_slots(e.gadget, e.nodes, instance.weights, w1, w2)
    return w2


# ---------------------------------------------------------------------------
# step 3: anchors


@dataclass(frozen=True)
class Anchor:
    """One always-excited auxiliary atom serving one variable's chain."""

    variable: object
    position: tuple
    target: float  # the splitting this anchor contributes (energy units)
    base_atom: int  # the chain atom it is placed against
    style: str  # "axial" | "raise" | "lower"


def chain_profile(instance: MWISInstance, name):
    """Exact value-splitting a probe atom at ``q`` would give this chain.

    Positive sign for atoms excited with value 1, negative for value 0; the
    sum over the chain is the energy the probe adds to value-1 states minus
    what it adds to value-0 states.
    """
    ch = instance.chains[name]
    pts = instance.positions[list(ch.atoms)]
    signs = np.array([1.0 if ph == 0 else -1.0 for ph in ch.phases])
    c6 = instance.config.c6

    def prof(q):
        d2 = ((pts - np.asarray(q, dtype=float)) ** 2).sum(axis=1)
        return float(np.sum(signs * c6 / d2**3))

    return prof


def place_anchor(prof, base, direction, target, config, *, lo=0.5, hi=5.0, cap=60.0):
    """Anchor position on the ray ``base + y*direction`` with ``prof == target``.

    Distances are in units of the lattice spacing; the search window grows
    (up to ``cap`` spacings) when the target is too weak for the first
    bracket.  Returns ``(position, distance)``; the residual is at most
    1e-12 of the detuning.
    """
    base = np.asarray(base, dtype=float)
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    s = config.spacing
    tol = 1e-12 * config.detuning
    if cap <= lo:
        raise NoRootInRange(f"no room on this ray: cap {cap:.2f} <= {lo:.2f}")
    top = min(hi, cap)
    while True:
        try:
            y = solve_bracketed(
                lambda t: prof(base + t * u),
                lo * s,
                top * s,
                target=target,
                tol=tol,
            )
            break
        except NoRootInRange:
            if top >= cap:
                raise
            top = min(cap, top * 1.6)
    return tuple(base + y * u), y


def required_splitting(instance: MWISInstance, w2: np.ndarray, name) -> float:
    """Energy the anchors of one chain must supply.

    The weight imbalance left after homogenisation (one-unit drive against
    the per-atom requirement, phase-signed along the chain) plus the
    variable's problem field, both in energy units.
    """
    ch = instance.chains[name]
    imb = sum(
        (1.0 - w2[a]) * (1.0 if ph == 0 else -1.0)
        for a, ph in zip(ch.atoms, ch.phases)
    )
    field = instance.program.variable(name).field
    return instance.config.detuning * (imb + field)


def _chain_normal(instance, ch, index):
    """Unit normal to the chain direction at the atom ``ch.atoms[index]``."""
    pos = instance.positions
    lo = max(0, index - 1)
    hi = min(len(ch.atoms) - 1, index + 1)
    t = pos[ch.atoms[hi]] - pos[ch.atoms[lo]]
    t = t / np.linalg.norm(t)
    return np.array([-t[1], t[0]])


def _clearance(instance, ch, q):
    """Distance from ``q`` to the nearest atom outside this chain."""
    others = [a for a in range(instance.n_atoms) if a not in set(ch.atoms)]
    if not others:
        return math.inf
    d = instance.positions[others] - np.asarray(q, dtype=float)
    return float(np.sqrt((d**2).sum(axis=1)).min())


def _corridor_cap(instance, ch, base, direction, limit=60.0):
    """How far an anchor may travel along a ray before it stops being local.

    An anchor further from its base atom than from some unrelated structure
    perturbs that structure more strongly than the chain it serves, which
    both wrecks the self-consistency iteration and can park it inside a
    foreign blockade disk.  The cap is the largest distance (in spacings)
    at which the ray point is still nearer to its base than to any atom the
    chain's service functional does not account for — atoms of other chains
    and of modules this chain never touches.  The chain's own modules are
    accounted exactly, so they impose only the hard standoff that every
    atom does: anchors stay out of blockade disks.
    """
    s = instance.config.spacing
    mine = set(ch.atoms)
    accounted = set(ch.atoms)
    for kdx in instance.modules:
        e = instance.elements[kdx]
        if mine & set(e.nodes):
            accounted.update(e.nodes)
    foreign = [a for a in range(instance.n_atoms) if a not in accounted]
    near_own = [a for a in accounted if a not in mine]
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    ts = np.linspace(0.05, limit, 1200) * s
    pts = np.asarray(base, dtype=float)[None, :] + ts[:, None] * u[None, :]
    standoff = instance.config.blockade_radius + 0.2 * s
    bad = np.zeros(len(ts), dtype=bool)
    if foreign:
        diff = pts[:, None, :] - instance.positions[foreign][None, :, :]
        near = np.sqrt((diff**2).sum(-1)).min(axis=1)
        bad |= near < np.maximum(ts, standoff)
    if near_own:
        diff = pts[:, None, :] - instance.positions[near_own][None, :, :]
        near = np.sqrt((diff**2).sum(-1)).min(axis=1)
        bad |= near < standoff
    if not bad.any():
        return limit
    k = int(np.argmax(bad))
    return float(ts[max(k - 1, 0)] / s) if k else 0.0


# Largest share routed to a single mid-chain anchor before it is split over
# several interior sites.  Mid-chain anchors are guarded by two domain walls
# (about two detuning units), so the cap is generous; boundary anchors get no
# cap because their shares are matched to the local weight deficit instead.
_EXPOSURE = 0.45

# Boundary shares below this fraction of the detuning are folded into the
# chain's mid-chain residual rather than earning their own anchor.
_SLIVER = 0.02


def _solve_chain_anchors(
    instance, service, ch, name, need, end_share, cfg, previous=()
):
    """Anchors delivering ``need`` to one chain, matched to where it arises.

    ``service`` is the chain's net-splitting functional (direct chain sum
    plus the anchor's own module-sweep feedback).  ``end_share`` is what
    each open end carries, in energy units: the caller splits the chain's
    whole non-field requirement (``need`` less the problem field) evenly
    over the open ends.  Each open end gets one axial anchor with that
    share, so only the problem field is left for perpendicular anchors over
    matching-sign atoms at the chain middle.  Giving each end its own end
    atom's deficit instead was tried: it placed 6 anchors on ``K_2``, not
    3, and matched 5/8 rather than 6/8 randomised ``K_{2,2}`` trials.
    Shares below ``_SLIVER`` of the detuning, and ends whose ray has no
    root, leave their share in the residual.  A residual large enough that
    escaping it would rival the two-wall cost of reaching mid-chain is
    split over several interior sites (``_EXPOSURE``).

    Perpendicular sites prefer the side of the chain used on the previous
    self-consistency round (``previous``): both sides often clear equally
    well, and re-ranking them every round lets micrometre drifts of the
    other anchors flip the choice forever instead of settling.  Absent a
    history the side alternates from site to site, which keeps neighbouring
    anchors comfortably apart.
    """
    dlt = cfg.detuning
    out = []
    residual = need
    ends = {atom for atom, _ in ch.open_ends}
    for atom, axis in ch.open_ends:
        if abs(end_share) < _SLIVER * dlt:
            break
        base = instance.positions[atom]
        ray = np.asarray(axis, dtype=float)
        cap = _corridor_cap(instance, ch, base, ray)
        try:
            q, _ = place_anchor(service, base, ray, end_share, cfg, cap=cap)
        except NoRootInRange:
            continue  # the interior sites absorb the share
        out.append(Anchor(name, q, end_share, atom, "axial"))
        residual -= end_share
    if abs(residual) < 1e-12 * dlt:
        return tuple(out)
    phase = 0 if residual > 0 else 1
    style = "raise" if residual > 0 else "lower"
    mid = (len(ch.atoms) - 1) / 2.0
    sites = sorted(
        (abs(k - mid), k, a)
        for k, (a, ph) in enumerate(zip(ch.atoms, ch.phases))
        if ph == phase and a not in ch.ports and a not in ends
    )
    want = max(1, math.ceil(abs(residual) / (_EXPOSURE * dlt) - 1e-9))
    p = len([a for a in previous if a.style != "axial"])
    if p and abs(want - p) == 1:
        # sticky site count: late-round drifts of the requirement must not
        # toggle the split through a cap boundary and prevent settling
        if (p - 1) * _EXPOSURE * dlt * 0.95 <= abs(residual) <= p * _EXPOSURE * dlt * 1.05:
            want = p
    while sites:
        k = min(want, len(sites))
        share = residual / k
        inner = []
        failed = None
        last_sign = 0.0
        for pick in range(k):
            _, index, atom = sites[pick]
            base = instance.positions[atom]
            normal = _chain_normal(instance, ch, index)
            prefer = -last_sign
            for a in previous:
                if a.style != "axial" and a.base_atom == atom:
                    d = np.asarray(a.position, dtype=float) - base
                    prefer = 1.0 if float(d @ normal) > 0 else -1.0
            options = []
            for sgn in (1.0, -1.0):
                cap = _corridor_cap(instance, ch, base, sgn * normal)
                try:
                    q, _ = place_anchor(service, base, sgn * normal, share, cfg, cap=cap)
                except NoRootInRange:
                    continue
                options.append((sgn, _clearance(instance, ch, q), q))
            if not options:
                failed = pick
                break
            chosen = None
            for sgn, _, q in options:
                if sgn == prefer:
                    chosen = (sgn, q)
            if chosen is None:
                options.sort(key=lambda t: -t[1])
                chosen = (options[0][0], options[0][2])
            last_sign = chosen[0]
            inner.append(Anchor(name, chosen[1], share, atom, style))
        if failed is None:
            return tuple(out) + tuple(inner)
        del sites[failed]
    return tuple(out) + _too_weak(name, residual, cfg)


def _too_weak(name, need, cfg):
    """No root inside any corridor: drop the anchor if that is harmless.

    Roots escape every corridor only when the requirement is below the
    profile at the corridor edges, so the residual of serving nothing is
    bounded by the same few-1e-3-detuning scale; anything larger means the
    chain is genuinely walled in and must be treated as a layout defect.
    """
    if abs(need) > 0.05 * cfg.detuning:
        raise GeometryError(
            f"no accessible anchor site for {name}: the requirement "
            f"{need:.4g} has no root inside any corridor"
        )
    return ()


def _module_anchor_shift(instance, anchor_positions):
    """Port-weight shift absorbing anchor potentials on module interiors.

    Anchors interact with every atom, not just their own chain.  Their
    effect on chain atoms is handled through the chain sums; their effect
    on the non-chain interior of each module is state-dependent and is
    absorbed here, swept onto the module ports exactly like a slot deposit.
    """
    shift = np.zeros(instance.n_atoms)
    if not anchor_positions:
        return shift
    cfg = instance.config
    qs = np.asarray(anchor_positions, dtype=float)
    chain_atoms = set()
    for ch in instance.chains.values():
        chain_atoms.update(ch.atoms)
    for kdx in instance.modules:
        e = instance.elements[kdx]
        pots = {}
        for loc, a in enumerate(e.nodes):
            if a in chain_atoms:
                continue
            d2 = ((qs - instance.positions[a]) ** 2).sum(axis=1)
            pots[loc] = float((cfg.c6 / d2**3).sum())
        phis = [
            sum(pot for loc, pot in pots.items() if (st >> loc) & 1)
            for st in e.gadget.logical_states
        ]
        deps = np.array([phis[1], phis[2], phis[3]]) - phis[0]
        _sweep_to_ports(e.gadget, e.nodes, deps / cfg.detuning, shift)
    return shift


def service_functional(instance: MWISInstance, name):
    """Net value-splitting one probe anchor at ``q`` delivers to this chain.

    The direct channel is the signed chain sum (:func:`chain_profile`); the
    indirect channel is the probe's state-dependent potential on module
    interiors, which homogenisation sweeps onto the module ports and which
    therefore feeds back into this chain's own requirement.  Folding both
    into one functional lets the placement solve for the splitting the
    chain actually receives: near module junctions the two channels can
    cancel almost exactly, and a solver aiming only the direct channel
    chases that cancellation forever.  Both channels are weighted sums of
    C6/r^6 over fixed atoms, so the functional is one coefficient vector.
    """
    ch = instance.chains[name]
    cfg = instance.config
    coeff = np.zeros(instance.n_atoms)
    sigma = {}
    for a, ph in zip(ch.atoms, ch.phases):
        sigma[a] = 1.0 if ph == 0 else -1.0
        coeff[a] += sigma[a]
    chain_atoms = set()
    for other in instance.chains.values():
        chain_atoms.update(other.atoms)
    for kdx in instance.modules:
        e = instance.elements[kdx]
        gain = np.zeros(3)
        for idx, shares in _PORT_SHARES[e.gadget.kind].items():
            for port, frac in shares:
                p = e.nodes[e.gadget.ports[port]]
                if p in sigma:
                    gain[idx - 1] += sigma[p] * frac
        if not gain.any():
            continue
        row = gain @ _TRANSFER
        states = e.gadget.logical_states
        for loc, a in enumerate(e.nodes):
            if a in chain_atoms:
                continue
            jumps = np.array(
                [
                    float((states[i] >> loc) & 1) - float((states[0] >> loc) & 1)
                    for i in (1, 2, 3)
                ]
            )
            coeff[a] += float(row @ jumps)
    idx = np.flatnonzero(coeff)
    pts = instance.positions[idx]
    wts = coeff[idx]
    c6 = cfg.c6

    def service(q):
        d2 = ((pts - np.asarray(q, dtype=float)) ** 2).sum(axis=1)
        return float(np.sum(wts * c6 / d2**3))

    return service


def plan_anchors(instance: MWISInstance, w2: np.ndarray, *, tol=1e-9, max_rounds=200):
    """One anchor set per variable, solved to mutual self-consistency.

    Chains are re-solved one at a time against the exact service sums with
    every other chain's newest anchors folded in (a Gauss-Seidel sweep —
    the freshest positions damp the mutual coupling far better than
    whole-round updates): the other chains' spill onto this chain comes
    off the requirement, both directly and through the module-interior
    sweep, while this chain's own anchors are handled inside the root
    solve (:func:`service_functional`), never through the outer loop.
    Chains whose requirement stays below ``tol`` (relative to the
    detuning) get no anchor.  Requirements are under-relaxed adaptively:
    whenever a chain's update direction reverses — the signature of two
    chains relocating each other's sites in a limit cycle — its step
    factor halves, which contracts the cycle while leaving the fixed
    point untouched and monotone chains at full speed.  Iterates until no
    anchor moves by more than 1e-10 spacings.  Raises
    :class:`GeometryError` when a site lands inside the blockade disk of
    any computational atom or two sites come closer than two spacings,
    and :class:`PipelineError` when the placement does not settle.
    """
    cfg = instance.config
    dlt = cfg.detuning
    names = [v.name for v in instance.program.variables]
    profs = {name: chain_profile(instance, name) for name in names}
    services = {name: service_functional(instance, name) for name in names}
    anchors = {name: () for name in names}
    memory = {}
    trend = {}
    theta = {name: 1.0 for name in names}
    for _ in range(max_rounds):
        settled = True
        for name in names:
            qs = [
                a.position
                for other in names
                if other != name
                for a in anchors[other]
            ]
            w2_eff = w2 + _module_anchor_shift(instance, qs)
            ch = instance.chains[name]
            need = required_splitting(instance, w2_eff, name)
            need -= sum(profs[name](q) for q in qs)
            if name in memory:
                step = need - memory[name]
                if trend.get(name, 0.0) * step < 0:
                    theta[name] = max(theta[name] * 0.5, 1.0 / 64.0)
                if step:
                    trend[name] = step
                need = memory[name] + theta[name] * step
            memory[name] = need
            if abs(need) <= tol * dlt:
                solved = ()
            else:
                field = dlt * instance.program.variable(name).field
                share = (need - field) / len(ch.open_ends) if ch.open_ends else 0.0
                solved = _solve_chain_anchors(
                    instance, services[name], ch, name, need, share, cfg, anchors[name]
                )
            if len(solved) != len(anchors[name]) or any(
                a.style != b.style
                or a.base_atom != b.base_atom
                or max(
                    abs(a.position[0] - b.position[0]),
                    abs(a.position[1] - b.position[1]),
                )
                > 1e-10 * cfg.spacing
                for a, b in zip(solved, anchors[name])
            ):
                settled = False
            anchors[name] = solved
        if settled:
            break
    else:
        raise PipelineError(
            "anchor", f"anchor placement did not settle in {max_rounds} rounds"
        )
    flat = tuple(a for name in names for a in anchors[name])
    _check_sites(instance, flat)
    return flat


def _check_sites(instance, anchors):
    rb = instance.config.blockade_radius
    s = instance.config.spacing
    for a in anchors:
        d = instance.positions - np.asarray(a.position, dtype=float)
        dmin = float(np.sqrt((d**2).sum(axis=1)).min())
        if dmin <= rb:
            raise GeometryError(
                f"anchor for {a.variable} is not accessible: nearest "
                f"computational atom at {dmin:.3f} is inside the blockade disk"
            )
    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            d = np.asarray(anchors[i].position) - np.asarray(anchors[j].position)
            if float(np.sqrt((d**2).sum())) < 2.0 * s:
                raise GeometryError(
                    f"anchor sites for {anchors[i].variable} and "
                    f"{anchors[j].variable} collide; displace one chain first"
                )


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True, eq=False)
class ProgrammedLayout:
    """Atom positions plus a uniform drive that realise one problem.

    ``w1``/``w2`` document the weight bookkeeping (tail-compensated and
    homogenised); the physical output is ``positions`` (computational atoms
    first, then anchors) with the same detuning everywhere.
    """

    instance: MWISInstance
    w1: np.ndarray
    w2: np.ndarray
    anchors: tuple
    positions: np.ndarray
    detunings: np.ndarray
    logical: tuple  # LogicalState records, masks over computational atoms

    @property
    def n_comp(self) -> int:
        return self.instance.n_atoms

    @property
    def n_anchors(self) -> int:
        return len(self.anchors)

    @property
    def anchor_mask(self) -> int:
        return mask_of(range(self.n_comp, self.n_comp + self.n_anchors))

    def full_masks(self) -> tuple:
        """Logical masks over the complete layout (anchors excited)."""
        return tuple(s.mask | self.anchor_mask for s in self.logical)


def build_global_layout(program, config, *, link_length=5) -> ProgrammedLayout:
    """Assemble, certify, compensate, homogenise and anchor one program."""
    instance = assemble_layout(program, config, link_length=link_length)
    logical = logical_subspace(instance)
    w1 = tail_compensate(instance)
    w2 = homogenize(instance, w1)
    anchors = plan_anchors(instance, w2)
    if anchors:
        pos = np.vstack(
            [instance.positions, np.array([a.position for a in anchors])]
        )
    else:
        pos = instance.positions.copy()
    det = np.full(len(pos), config.detuning)
    return ProgrammedLayout(instance, w1, w2, tuple(anchors), pos, det, logical)


# ---------------------------------------------------------------------------
# free-standing gadgets: anchor against the exact degeneracy conditions


@dataclass(frozen=True, eq=False)
class AnchoredGadget:
    """A gadget plus its port anchors, drivable with one global detuning."""

    gadget: Gadget
    w2: np.ndarray
    anchors: tuple  # (port name, (x, y), distance along the port axis)
    positions: np.ndarray  # gadget atoms first, then anchors in port order

    @property
    def n_comp(self) -> int:
        return self.gadget.n

    @property
    def anchor_mask(self) -> int:
        return mask_of(range(self.n_comp, len(self.positions)))

    def full_masks(self) -> tuple:
        return tuple(m | self.anchor_mask for m in self.gadget.logical_states)


def balance_open_ports(gadget: Gadget, config, *, tol=1e-12, max_rounds=60):
    """Anchor every port of a free-standing gadget and polish to degeneracy.

    The gadget is wrapped as a one-element instance and compensated and
    homogenised by the same ``tail_compensate`` and ``homogenize`` as a full
    instance.  Each port then gets an always-excited atom on its outward
    axis.  Distances start from the single-atom inversion of the homogenised
    port weight and are then polished orbit by orbit (a Gauss–Seidel sweep
    over the symmetry orbits) on the exact energy differences of the full
    gadget-plus-anchor system, to ``tol`` in units of the nearest-neighbour
    pair energy.  Each logical state gets one ``physics.moving_energy``
    kernel with the anchors as its moving atoms, so a trial distance
    recomputes only the anchor pairs, bitwise equal to ``diagonal_energy``
    on the stacked layout.  Only this polish is specific to free-standing
    gadgets.
    """
    cfg = config
    dlt = cfg.detuning
    lone = lone_instance(gadget, cfg)
    w2 = homogenize(lone, tail_compensate(lone))
    names = list(gadget.ports)
    dist = {}
    for name in names:
        node = gadget.ports[name]
        miss = (1.0 - w2[node]) * dlt
        if miss <= 0.0:
            raise ValidationError(
                f"port {name} wants weight {w2[node]:.3f} >= 1; nothing to anchor"
            )
        dist[name] = (cfg.c6 / miss) ** (1.0 / 6.0)

    rays = []
    for name in names:
        axis = np.asarray(gadget.port_axes[name], dtype=float)
        base = gadget.positions[gadget.ports[name]]
        rays.append((base.tolist(), axis.tolist(), float(np.linalg.norm(axis))))

    def anchor_rows(d):
        # base + d * axis / |axis|, in floats, term by term as numpy does it
        return [
            [b + d[name] * u / norm for b, u in zip(base, axis)]
            for name, (base, axis, norm) in zip(names, rays)
        ]

    def stacked(d):
        return np.vstack([gadget.positions, anchor_rows(d)])

    anchor_atoms = range(gadget.n, gadget.n + len(names))
    a_mask = mask_of(anchor_atoms)
    first = stacked(dist)
    kernels = [
        moving_energy(first, dlt, m | a_mask, cfg.c6, anchor_atoms)
        for m in gadget.logical_states
    ]

    def split(d, hi, lo):
        rows = anchor_rows(d)
        return kernels[hi](rows) - kernels[lo](rows)

    orbits = _ORBITS[gadget.kind]
    scale = tol * cfg.energy_unit

    def conditions(d):
        return [split(d, hi, lo) for _, (hi, lo) in orbits]

    for _ in range(max_rounds):
        for members, (hi, lo) in orbits:

            def gap(y):
                trial = dict(dist)
                for name in members:
                    trial[name] = y
                return split(trial, hi, lo)

            y = solve_bracketed(
                gap, 0.25 * cfg.spacing, 6.0 * cfg.spacing, tol=scale
            )
            for name in members:
                dist[name] = y
        if max(abs(c) for c in conditions(dist)) <= scale:
            break
    else:
        raise PipelineError(
            "balance", f"{gadget.kind}: orbit sweep did not converge"
        )

    pos = stacked(dist)
    rows = anchor_rows(dist)
    ref = kernels[0](rows)
    worst = max(abs(energy(rows) - ref) for energy in kernels)
    if worst > 10.0 * scale:
        raise PipelineError(
            "balance",
            f"{gadget.kind}: states split by {worst:.3g} after anchoring",
        )
    anchors = tuple(
        (name, tuple(pos[gadget.n + k]), dist[name]) for k, name in enumerate(names)
    )
    return AnchoredGadget(gadget, w2, anchors, pos)


# ---------------------------------------------------------------------------
# displacement programming


def displacement_shift(positions, one_mask, zero_mask, atom, direction, delta, c6):
    """Change of the value splitting when one atom moves by ``delta``.

    ``one_mask``/``zero_mask`` are the excitation patterns of the two
    logical states (anchors appear in both).  The full pair sum over every
    partner of the moved atom is evaluated — no small-displacement
    expansion.
    """
    pos = np.asarray(positions, dtype=float)
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    moved = pos[atom] + delta * u
    e1a = (one_mask >> atom) & 1
    e0a = (zero_mask >> atom) & 1
    out = 0.0
    for j in range(len(pos)):
        if j == atom:
            continue
        sigma = e1a * ((one_mask >> j) & 1) - e0a * ((zero_mask >> j) & 1)
        if sigma == 0:
            continue
        d_new = float(((moved - pos[j]) ** 2).sum())
        d_old = float(((pos[atom] - pos[j]) ** 2).sum())
        out += sigma * (c6 / d_new**3 - c6 / d_old**3)
    return out


def displace_atoms(
    positions, one_mask, zero_mask, atom, direction, target, config, *, reach=0.45
):
    """Move one atom so the value splitting changes by exactly ``target``.

    Root-solves the full pair sum for the displacement along ``direction``
    within ``[-reach, reach]`` spacings and returns ``(new_positions,
    delta)``.  The moved atom must stay outside every other atom's blockade
    disk.
    """
    pos = np.asarray(positions, dtype=float).copy()
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    s = config.spacing
    delta = solve_bracketed(
        lambda d: displacement_shift(
            pos, one_mask, zero_mask, atom, u, d, config.c6
        ),
        -reach * s,
        reach * s,
        target=target,
        tol=1e-12 * config.detuning,
    )
    pos[atom] = pos[atom] + delta * u
    d = np.sqrt(((np.delete(pos, atom, axis=0) - pos[atom]) ** 2).sum(axis=1))
    if float(d.min()) <= config.blockade_radius:
        raise GeometryError(
            f"displacing atom {atom} by {delta:.3f} enters a blockade disk"
        )
    return pos, delta
