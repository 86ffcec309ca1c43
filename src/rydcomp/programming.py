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
   root-solved against the exact interaction sum over the whole chain.
   One functional per chain (``service_functional``) prices every anchor,
   its own and the other chains', and plain Gauss–Seidel sweeps re-solve
   the chains at full step until no anchor moves;
4. ``build_global_layout`` runs the full pipeline and returns atom
   positions plus one uniform detuning per atom.

Every anchor distance is one root solve (``solve_bracketed``) on one
``physics.probe_sum``: a bracket scan over 128 samples, bisection and a
secant polish.  The scan scores its samples left to right, 32 at a time,
through the sum's batch form and stops at the first chunk that holds a
crossing.  Bisection scores the midpoints on its path toward a secant guess
in one more batch.  A batched value is the scalar functional's bit for bit,
so every root is the one the scalar functional alone gives, and only the
secant guesses, midpoints off the predicted path and the polish call it.

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
from .physics import distances, energies, mask_of, occupancy, pair_matrix, probe_sum

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


_SCAN_SAMPLES = 128  # samples of every bracket scan
_SCAN_CHUNK = _SCAN_SAMPLES // 4  # samples scored per batch, left to right
_SECANT_STEPS = 8  # most fn calls spent guessing the root before bisection
_ANCHOR_LO, _ANCHOR_HI = 0.5, 5.0  # first anchor search window, in spacings
_CORRIDOR_LIMIT = 60.0  # farthest an anchor may travel along its ray, in spacings
_BALANCE_TOL = 1e-12  # port-anchor polish tolerance, over the pair energy
_BALANCE_ROUNDS = 60  # orbit sweeps the port-anchor polish may take


def _predicted_path(g, scan, target, a, fa, b, fb):
    """``g``'s values at the bisection midpoints toward a guessed root.

    A secant run of at most ``_SECANT_STEPS`` calls of ``g`` from the
    bracket ends, kept inside ``[a, b]``, guesses the root; the bisection
    path toward that guess is predicted with the loop's own midpoint and
    stop rule and scored in one batch.  Returns ``{midpoint: g(midpoint)}``.
    """
    x0, f0, x1, f1 = a, fa, b, fb
    guess = b
    calls = 0
    while f1 != f0 and f1 != 0.0:
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not a <= x2 <= b:  # also stops a NaN step
            break
        guess = x2
        # a step below the bisection's stop width: x2 is closer still
        if calls == _SECANT_STEPS or abs(x2 - x1) < 1e-14 * max(1.0, abs(x2)):
            break
        x0, f0, x1, f1 = x1, f1, x2, g(x2)
        calls += 1
    path = []
    for _ in range(100):  # the loop's own midpoints and stop rule
        if b - a < 1e-14 * max(1.0, abs(a)):
            break
        path.append(0.5 * (a + b))
        if guess < path[-1]:
            b = path[-1]
        else:
            a = path[-1]
    if not path:
        return {}
    return dict(zip(path, (scan(np.array(path)) - target).tolist()))


def solve_bracketed(fn, lo, hi, *, target=0.0, tol=1e-12, scan=None):
    """Solve ``fn(y) == target`` on [lo, hi] without derivatives.

    A uniform scan finds a sign change, bisection shrinks it, and a secant
    polish drives the residual below ``tol`` (same units as ``fn``).  Raises
    :class:`NoRootInRange` when the scan sees no crossing or the polish
    cannot reach the tolerance.

    The scan scores its ``_SCAN_SAMPLES`` samples left to right in four
    chunks and stops after the first chunk that holds its first stop: a
    sample that is a root, or the first of two samples that change sign.

    ``scan(ys)`` scores many samples at once: it returns ``fn`` at the float
    array ``ys``, bit for bit (a batch form such as ``probe_sum``'s).  The
    scan's chunks then go through ``scan``, and so does bisection: a short
    secant run on ``fn`` guesses the root, and the bisection path toward
    the guess is predicted and scored in one batch.  A midpoint off that
    path calls ``fn``.  Every value the solver reads is therefore ``fn``'s,
    and the root is bit for bit the one ``fn`` alone gives.  Without
    ``scan`` every sample and midpoint calls ``fn``.
    """
    if not lo < hi:
        raise ValidationError(f"need lo < hi, got [{lo}, {hi}]")

    def g(y):
        return fn(y) - target

    def score(ys):
        if scan is None:
            return np.array([fn(y) for y in ys.tolist()])
        return scan(ys)

    grid = np.linspace(lo, hi, _SCAN_SAMPLES)
    ys = grid.tolist()
    miss = np.empty(_SCAN_SAMPLES)  # fn - target at the samples scored so far
    for end in range(_SCAN_CHUNK, _SCAN_SAMPLES + 1, _SCAN_CHUNK):
        start = end - _SCAN_CHUNK
        miss[start:end] = score(grid[start:end]) - target
        # the first sample that is a root or opens a sign change; the last
        # one scored can only stop as a root
        sign = np.sign(miss[:end])
        stop = sign == 0
        stop[:-1] |= sign[:-1] * sign[1:] < 0
        if stop.any():
            k = int(np.argmax(stop))
            bracket = (k, k) if sign[k] == 0 else (k, k + 1)
            break
    else:
        raise NoRootInRange(
            f"no sign change against target {target:.6g} in [{lo:.6g}, {hi:.6g}]"
        )
    a, b = (ys[k] for k in bracket)
    fa, fb = (float(miss[k]) for k in bracket)
    if fa == 0.0:
        b, fb = a, fa
    known = {}
    if scan is not None and a < b:
        known = _predicted_path(g, scan, target, a, fa, b, fb)
    for _ in range(100):
        if b - a < 1e-14 * max(1.0, abs(a)):
            break
        mid = 0.5 * (a + b)
        fm = known.get(mid)
        if fm is None:
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
    raise NoRootInRange(f"residual {abs(f1):.3g} stuck above tolerance {tol:.3g}")


# ---------------------------------------------------------------------------
# step 1: exact tail compensation


def _tail_pairs(instance):
    """Pair energies of every non-edge pair; edges and diagonal are zero."""
    v = pair_matrix(instance.positions, instance.config.c6)
    for i, j in instance.graph.edges:
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


def _assign_module_pairs(instance, v):
    """Owner module of every compensable non-edge pair, all pairs at once.

    A module owns a pair when both occupancies are functions of its logical
    state: its own internal pairs, pairs into any chain hanging off it, and
    pairs between two chains that both hang off it (the lowest-index module
    they share).  An atom fused into several modules or chains counts for
    the last one.  Pairs inside a single chain element belong to the copy
    pass and are skipped here; pairs with no qualifying owner (atoms of
    unrelated plaquettes) stay uncompensated and are part of the documented
    error budget.  Returns ``{module: (a, b)}``: index arrays of its pairs
    in row-major (``a < b``) order.
    """
    if not instance.modules:
        return {}
    n = instance.n_atoms
    # index -1 (no module, no chain) reads the last row or column: all False
    module_of = np.full(n, -1)
    for kdx in instance.modules:
        module_of[list(instance.elements[kdx].nodes)] = kdx
    chain_of = np.full(n, -1)
    touch = np.zeros((len(instance.chains) + 1, len(instance.elements) + 1), dtype=bool)
    for c, ch in enumerate(instance.chains.values()):
        chain_of[list(ch.atoms)] = c
        ports = module_of[list(ch.ports)]
        touch[c, ports[ports >= 0]] = True
    both = touch[:, None, :] & touch[None, :, :]
    common = np.where(both.any(axis=2), both.argmax(axis=2), -1)  # lowest shared
    ma, mb = module_of[:, None], module_of[None, :]
    ca, cb = chain_of[:, None], chain_of[None, :]
    owner = np.select(
        [(ma >= 0) & (mb >= 0), ma >= 0, mb >= 0],
        [
            np.where(ma == mb, ma, -1),
            np.where(touch[cb, ma], ma, -1),
            np.where(touch[ca, mb], mb, -1),
        ],
        common[ca, cb],
    )
    for kdx in instance.copies:  # same chain element: the copy pass owns it
        nodes = list(instance.elements[kdx].nodes)
        owner[np.ix_(nodes, nodes)] = -1
    rows, cols = np.nonzero(np.triu(v != 0, 1) & (owner >= 0))  # row-major
    owner = owner[rows, cols]
    return {kdx: (rows[owner == kdx], cols[owner == kdx]) for kdx in instance.modules}


def _module_occupancies(instance, kdx):
    """Occupation of the module and all its chains, one row per state."""
    e = instance.elements[kdx]
    module_atoms = set(e.nodes)
    hooked = [
        ch
        for ch in instance.chains.values()
        if any(p in module_atoms for p in ch.ports)
    ]
    out = np.zeros((len(e.gadget.logical_states), instance.n_atoms), dtype=bool)
    for row, st in zip(out, e.gadget.logical_states):
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
        row[[a for a, bit in occ.items() if bit]] = True
    return out


def tail_compensate(instance: MWISInstance) -> np.ndarray:
    """Bare weights plus the exact interaction-tail corrections.

    Chain elements spread their internal tail difference over their ports;
    every module absorbs the tails of its whole neighbourhood — its own
    atoms, the chains hanging off it and the pairs between those chains —
    on its per-state compensation slots.  Each non-edge pair is counted at
    most once, so for a layout whose pairs all have an owner the corrected
    weights tie the logical manifold exactly.  A state's tail is summed
    left to right over the module's pairs in row-major order, skipping the
    pairs it does not fully occupy.
    """
    cfg = instance.config
    v = _tail_pairs(instance)
    w1 = instance.weights.astype(float).copy()
    for kdx in instance.copies:
        e = instance.elements[kdx]
        for atom, c in _copy_correction(
            v, e.nodes, e.gadget.logical_states, e.gadget.ports, cfg.detuning
        ).items():
            w1[atom] += c
    for kdx, (a, b) in _assign_module_pairs(instance, v).items():
        e = instance.elements[kdx]
        pair_v = v[a, b]
        occ = _module_occupancies(instance, kdx)
        tails = [sum(pair_v[on[a] & on[b]].tolist()) for on in occ]
        for idx, slot_locals in e.gadget.comp_slots.items():
            dep = (tails[idx] - tails[0]) / (len(slot_locals) * cfg.detuning)
            for loc in slot_locals:
                w1[e.nodes[loc]] += dep
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


def _sweep_slots(gadget, nodes, bare, w1, w2):
    """Move slot deposits onto the ports, preserving state degeneracy."""
    deps = np.zeros(3)
    for idx in (1, 2, 3):
        for loc in gadget.comp_slots.get(idx, ()):
            a = nodes[loc]
            d = w1[a] - bare[a]
            deps[idx - 1] += d
            w2[a] -= d
    moved = _TRANSFER @ deps  # the half-difference sweep onto the ports
    for idx, shares in _PORT_SHARES[gadget.kind].items():
        for port, frac in shares:
            w2[nodes[gadget.ports[port]]] += moved[idx - 1] * frac


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


def place_anchor(prof, base, direction, target, config, *, cap=_CORRIDOR_LIMIT):
    """Anchor position on the ray ``base + y*direction`` with ``prof == target``.

    Distances are in units of the lattice spacing; the search window starts
    at ``[_ANCHOR_LO, _ANCHOR_HI]`` and grows (up to ``cap`` spacings) when
    the target is too weak for the first bracket.  Returns ``(position,
    distance)``; the residual is at most 1e-12 of the detuning.  ``prof`` is
    a :func:`physics.probe_sum`, as :func:`service_functional` returns it:
    its ``batch`` form scores the bracket scan and the bisection path of
    each window with ``prof``'s own values.
    """
    base = np.asarray(base, dtype=float)
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    s = config.spacing
    tol = 1e-12 * config.detuning
    if cap <= _ANCHOR_LO:
        raise NoRootInRange(f"no room on this ray: cap {cap:.2f} <= {_ANCHOR_LO:.2f}")
    top = min(_ANCHOR_HI, cap)

    def scan(ts):
        return prof.batch(base + ts[:, None] * u)  # the scalar's base + t * u

    while True:
        try:
            y = solve_bracketed(
                lambda t: prof(base + t * u),
                _ANCHOR_LO * s,
                top * s,
                target=target,
                tol=tol,
                scan=scan,
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
    mine = set(ch.atoms)
    others = [a for a in range(instance.n_atoms) if a not in mine]
    if not others:
        return math.inf
    return float(distances([q], instance.positions[others]).min())


def _corridor_cap(instance, ch, base, direction):
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
    ts = np.linspace(0.05, _CORRIDOR_LIMIT, 1200) * s
    pts = np.asarray(base, dtype=float)[None, :] + ts[:, None] * u[None, :]
    standoff = instance.config.blockade_radius + 0.2 * s
    bad = np.zeros(len(ts), dtype=bool)
    if foreign:
        near = distances(pts, instance.positions[foreign]).min(axis=1)
        bad |= near < np.maximum(ts, standoff)
    if near_own:
        bad |= distances(pts, instance.positions[near_own]).min(axis=1) < standoff
    if not bad.any():
        return _CORRIDOR_LIMIT
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
    instance, service, ch, name, need, end_share, cfg, caps, previous=()
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

    ``caps`` memoises :func:`_corridor_cap` by (chain, base atom, ray
    direction): the geometry it reads stays fixed while the caller iterates.
    """

    def cap_of(atom, direction):
        key = (name, atom, tuple(direction.tolist()))
        if key not in caps:
            caps[key] = _corridor_cap(instance, ch, instance.positions[atom], direction)
        return caps[key]

    dlt = cfg.detuning
    out = []
    residual = need
    ends = {atom for atom, _ in ch.open_ends}
    for atom, axis in ch.open_ends:
        if abs(end_share) < _SLIVER * dlt:
            break
        base = instance.positions[atom]
        ray = np.asarray(axis, dtype=float)
        cap = cap_of(atom, ray)
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
                cap = cap_of(atom, sgn * normal)
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
    """No root inside any corridor: drop the requirement up to 0.05·detuning.

    A requirement of at most 0.05 of the detuning is dropped without a
    word and the chain goes unserved by that much; a larger one raises
    :class:`GeometryError`.  The dropped residual is not bounded by the
    layout's gap: ROADMAP item 11 measured 0.040 left unserved on
    ``K_{2,4}`` (seed 2, couplings ±0.1), above that layout's gap of 0.039.
    """
    if abs(need) > 0.05 * cfg.detuning:
        raise GeometryError(
            f"no accessible anchor site for {name}: the requirement "
            f"{need:.4g} has no root inside any corridor"
        )
    return ()


def service_functional(instance: MWISInstance, name):
    """Net value-splitting one probe anchor at ``q`` delivers to this chain.

    The direct channel is the signed chain sum: ``+C6/r^6`` to each atom
    excited with value 1, ``-C6/r^6`` to each excited with value 0.  The
    indirect channel is the probe's state-dependent potential on module
    interiors, which homogenisation sweeps onto the module ports and which
    therefore feeds back into this chain's own requirement.  Folding both
    into one functional lets the placement solve for the splitting the
    chain actually receives: near module junctions the two channels can
    cancel almost exactly, and a solver aiming only the direct channel
    chases that cancellation forever.  Both channels are weighted sums of
    C6/r^6 over fixed atoms, so the functional is one coefficient vector,
    and it prices any anchor at ``q`` alike: this chain's own anchors in
    the root solve and the other chains' anchors in :func:`plan_anchors`.

    The functional is :func:`physics.probe_sum` over that vector, whose
    ``batch`` form scores many probe rows at once.
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
        occ = occupancy(e.gadget.logical_states, e.gadget.n).astype(float)
        jumps = (gain @ _TRANSFER) @ (occ[1:4] - occ[0])
        free = [a not in chain_atoms for a in e.nodes]
        coeff[np.array(e.nodes)[free]] += jumps[free]
    return probe_sum(instance.positions, coeff, cfg.c6)


# Requirements below this fraction of the detuning get no anchor, and the
# self-consistency sweep gives up after this many rounds.
_ANCHOR_TOL = 1e-9
_MAX_ROUNDS = 200


def plan_anchors(instance: MWISInstance, w2: np.ndarray):
    """One anchor set per variable, solved to mutual self-consistency.

    Chains are re-solved one at a time against the exact service sums with
    every other chain's newest anchors folded in (a Gauss-Seidel sweep):
    the other chains' anchors come off the requirement through this
    chain's :func:`service_functional`, which holds both the direct chain
    sum and the module-interior sweep, while this chain's own anchors are
    handled inside the root solve, never through the outer loop.  Chains
    whose requirement stays below ``_ANCHOR_TOL`` (relative to the
    detuning) get no anchor.

    Each chain takes its new requirement at full step, with no damping:
    the other chains' anchors sit several spacings off and their spill
    falls like 1/r^6, so the sweep contracts on its own.  Measured, it
    settles in 3, 4, 4, 5, 6 and 6 sweeps on ``K_2``, ``K_{2,2}`` up to
    ``K_{2,6}``, and in at most 7 on 60 seeded random-coupling instances
    of ``K_2`` to ``K_{2,4}`` (couplings up to one detuning).  A sweep that
    moves no anchor by more than 1e-10 spacings ends the loop.  Raises
    :class:`GeometryError` when a site lands inside the blockade disk of
    any computational atom or two sites come closer than two spacings,
    and :class:`PipelineError` when the placement does not settle within
    ``_MAX_ROUNDS`` sweeps.
    """
    cfg = instance.config
    dlt = cfg.detuning
    names = [v.name for v in instance.program.variables]
    services = {name: service_functional(instance, name) for name in names}
    anchors = {name: () for name in names}
    caps = {}
    for _ in range(_MAX_ROUNDS):
        settled = True
        for name in names:
            qs = [
                a.position
                for other in names
                if other != name
                for a in anchors[other]
            ]
            ch = instance.chains[name]
            need = required_splitting(instance, w2, name)
            need -= sum(services[name](q) for q in qs)
            if abs(need) <= _ANCHOR_TOL * dlt:
                solved = ()
            else:
                field = dlt * instance.program.variable(name).field
                share = (need - field) / len(ch.open_ends) if ch.open_ends else 0.0
                solved = _solve_chain_anchors(
                    instance, services[name], ch, name, need, share, cfg, caps,
                    anchors[name],
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
            "anchor", f"anchor placement did not settle in {_MAX_ROUNDS} rounds"
        )
    flat = tuple(a for name in names for a in anchors[name])
    _check_sites(instance, flat)
    return flat


def _check_sites(instance, anchors):
    rb = instance.config.blockade_radius
    s = instance.config.spacing
    pos = np.array([a.position for a in anchors], dtype=float).reshape(-1, 2)
    near = distances(pos, instance.positions).min(axis=1)
    inside = np.flatnonzero(near <= rb)
    if len(inside):
        k = inside[0]
        raise GeometryError(
            f"anchor for {anchors[k].variable} is not accessible: nearest "
            f"computational atom at {near[k]:.3f} is inside the blockade disk"
        )
    close = np.argwhere(np.triu(distances(pos, pos) < 2.0 * s, 1))  # i < j, row-major
    if len(close):
        i, j = close[0]
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
    first, then anchors) driven by ``instance.config.detuning`` everywhere.
    """

    instance: MWISInstance
    w1: np.ndarray
    w2: np.ndarray
    anchors: tuple
    positions: np.ndarray
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
    return ProgrammedLayout(instance, w1, w2, tuple(anchors), pos, logical)


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


def balance_open_ports(gadget: Gadget, config):
    """Anchor every port of a free-standing gadget and polish to degeneracy.

    The gadget is wrapped as a one-element instance and compensated and
    homogenised by the same ``tail_compensate`` and ``homogenize`` as a full
    instance.  Each port then gets an always-excited atom on its outward
    axis.  Distances start from the single-atom inversion of the homogenised
    port weight and are then polished orbit by orbit (a Gauss–Seidel sweep
    over the symmetry orbits) on the exact energy differences of the full
    gadget-plus-anchor system, to ``_BALANCE_TOL`` in units of the
    nearest-neighbour pair energy.  The anchors are excited in every
    logical state, so an orbit's split is the bare gadget's split (whole-
    state energies) plus one :func:`physics.probe_sum` of the anchors over
    the two states' occupation difference, and the root solve sets that sum
    against the bare split.  Every anchor site comes from one ``anchor_rows``
    over an array of port distances: a root solve's scalar call is its batch
    on one row, so the two agree bit for bit.  A last check scores the full
    masks on the stacked layout.  Only this polish is specific to
    free-standing gadgets.
    """
    cfg = config
    dlt = cfg.detuning
    lone = lone_instance(gadget, cfg)
    w2 = homogenize(lone, tail_compensate(lone))
    names = list(gadget.ports)
    nodes = [gadget.ports[name] for name in names]
    miss = (1.0 - w2[nodes]) * dlt
    if (miss <= 0.0).any():
        k = int(np.argmax(miss <= 0.0))
        raise ValidationError(
            f"port {names[k]} wants weight {w2[nodes[k]]:.3f} >= 1; nothing to anchor"
        )
    dist = (cfg.c6 / miss) ** (1.0 / 6.0)
    bases = gadget.positions[nodes]
    axes = np.array([gadget.port_axes[name] for name in names], dtype=float)
    norms = np.linalg.norm(axes, axis=1, keepdims=True)

    def anchor_rows(d):
        """Anchor sites, ``(..., ports, 2)``, at the port distances ``d``."""
        return bases + d[..., None] * axes / norms

    states = gadget.logical_states
    bare = energies(gadget.positions, dlt, states, cfg.c6).tolist()
    occ = occupancy(states, gadget.n).astype(float)
    orbits = [
        (np.isin(names, members), probe_sum(gadget.positions, occ[hi] - occ[lo], cfg.c6),
         bare[lo] - bare[hi])
        for members, (hi, lo) in _ORBITS[gadget.kind]
    ]
    scale = _BALANCE_TOL * cfg.energy_unit
    for _ in range(_BALANCE_ROUNDS):
        for moving, pull, split in orbits:
            dist[moving] = solve_bracketed(
                lambda y: pull(anchor_rows(np.where(moving, y, dist))),
                0.25 * cfg.spacing, 6.0 * cfg.spacing, target=split, tol=scale,
                scan=lambda ys: pull.batch(anchor_rows(np.where(moving, ys[:, None], dist))),
            )
        rows = anchor_rows(dist)
        if all(abs(pull(rows) - split) <= scale for _, pull, split in orbits):
            break
    else:
        raise PipelineError(
            "balance", f"{gadget.kind}: orbit sweep did not converge"
        )

    pos = np.vstack([gadget.positions, anchor_rows(dist)])
    anchors = tuple(zip(names, map(tuple, pos[gadget.n :]), dist.tolist()))
    anchored = AnchoredGadget(gadget, w2, anchors, pos)
    es = energies(pos, dlt, anchored.full_masks(), cfg.c6)
    worst = float(np.abs(es - es[0]).max())
    if worst > 10.0 * scale:
        raise PipelineError(
            "balance",
            f"{gadget.kind}: states split by {worst:.3g} after anchoring",
        )
    return anchored

