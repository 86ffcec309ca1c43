"""Unit-disk graphs and exact maximum-weight independent sets.

The graphs here are gadgets and gadget assemblies, and the solver must be
exact *including degenerate maximisers*: the logical subspace of a gadget is
the full set of maximisers, so near-ties within an absolute tolerance are
collected, never broken arbitrarily.  The solver branches along a
bandwidth-reducing sweep of the graph, so on the long, narrow layouts that
assembly builds its number of subproblems grows linearly with their length:
the kite grid of ``K_{2,6}`` (185 atoms, 128 maximisers) solves in 0.04 to
0.07 s on one core of a 2-vCPU Xeon host.

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

    def degree(self, i: int) -> int:
        return bin(self.neighbor_masks[i]).count("1")

    def independent(self, mask: int) -> bool:
        return not any(self.neighbor_masks[i] & mask for i in _bits(mask))


def ud_graph(positions, radius) -> UDGraph:
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    if radius <= 0:
        raise ValidationError("unit-disk radius must be positive")
    pos = pos.reshape(n, 2)
    i, j = np.triu_indices(n, 1)  # row-major: the (i < j) pair order
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


def enumerate_independent_sets(g: UDGraph):
    """Yield every independent set of ``g`` exactly once (as bitmasks)."""

    nb = g.neighbor_masks

    def rec(i, cur, blocked):
        if i == g.n:
            yield cur
            return
        yield from rec(i + 1, cur, blocked)
        if not (blocked >> i) & 1:
            yield from rec(i + 1, cur | (1 << i), blocked | nb[i])

    yield from rec(0, 0, 0)


@dataclass(frozen=True)
class MWISSolution:
    value: float
    masks: tuple  # every maximiser within tolerance, sorted
    subproblems: int = 0  # residual vertex sets the solver memoised


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

    Branch and bound along a graph sweep.  The vertices are relabelled once
    into a Cuthill–McKee order (:func:`_sweep_order`) and the solver always
    branches on the lowest remaining vertex of that order.  Once the left
    part of a layout is decided, the residual vertex set then differs only
    on a narrow frontier, so the memo on residual sets acts as a dynamic
    program whose size grows linearly along the layout: on the kite grids
    ``K_{2,2}`` to ``K_{2,6}`` (45 to 185 atoms) the memo holds 73 to 702
    entries, under four per atom.  Each branch is bounded by the sum of
    positive residual weights, and independent connected components are
    solved separately and recombined.  ``subproblems`` reports the memo size.
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
    nb = [sum(1 << label[u] for u in _bits(g.neighbor_masks[old])) for old in order]
    w = w[order].tolist()
    memo = {}

    def components(mask):
        comps = []
        left = mask
        while left:
            seed = left & -left
            comp = seed
            frontier = seed
            while frontier:
                grow = 0
                m = frontier
                while m:
                    i = (m & -m).bit_length() - 1
                    grow |= nb[i] & mask
                    m &= m - 1
                frontier = grow & ~comp
                comp |= grow & mask
            comps.append(comp)
            left &= ~comp
        return comps

    def solve(mask):
        if mask == 0:
            return 0.0, ((0.0, 0),)
        hit = memo.get(mask)
        if hit is not None:
            return hit
        comps = components(mask)
        if len(comps) > 1:
            parts = [solve(c) for c in comps]
            best = sum(p[0] for p in parts)
            sols = [(0.0, 0)]
            suffix = [0.0] * (len(parts) + 1)
            for i in range(len(parts) - 1, -1, -1):
                suffix[i] = suffix[i + 1] + parts[i][0]
            for i, (pv, pairs) in enumerate(parts):
                nxt = []
                for acc_v, acc_m in sols:
                    for sv, sm in pairs:
                        v = acc_v + sv
                        if v + suffix[i + 1] >= best - tol:
                            nxt.append((v, acc_m | sm))
                sols = nxt
            out = (best, tuple((v, m) for v, m in sols if v >= best - tol))
            memo[mask] = out
            return out
        # single component: branch on its first vertex in the sweep
        low = mask & -mask
        v = low.bit_length() - 1
        take_mask = mask & ~(nb[v] | low)
        tb, tsols = solve(take_mask)
        tb += w[v]
        tsols = tuple((sv + w[v], sm | low) for sv, sm in tsols)
        skip_mask = mask ^ low
        # bound: positive residual weight of the skip branch
        ub = 0.0
        for i in _bits(skip_mask):
            ub += w[i]
        if ub < tb - tol:
            out = (tb, tsols)
        else:
            sb, ssols = solve(skip_mask)
            best = max(tb, sb)
            pairs = [p for p in tsols if p[0] >= best - tol]
            pairs += [p for p in ssols if p[0] >= best - tol]
            out = (best, tuple(pairs))
        memo[mask] = out
        return out

    best, pairs = solve((1 << g.n) - 1)
    found = {m for v, m in pairs if v >= best - tol}
    masks = tuple(sorted(sum(1 << order[i] for i in _bits(m)) for m in found))
    return MWISSolution(float(best), masks, len(memo))


def step_energy(g: UDGraph, detunings, coupling, config: int) -> float:
    """Energy under the step-potential model: -sum detunings + coupling/edge.

    The independent-set correspondence needs 0 < detuning_i < coupling for
    every site; violations are reported as a warning (the energy itself is
    still well defined).
    """
    det = np.broadcast_to(np.asarray(detunings, dtype=float), (g.n,))
    if g.n and not (0 < det.min() and det.max() < coupling):
        warnings.warn(
            "step-potential mapping needs 0 < detuning < coupling on every "
            f"site (got range [{det.min()}, {det.max()}], coupling {coupling})",
            stacklevel=2,
        )
    e = 0.0
    for i in range(g.n):
        if (config >> i) & 1:
            e -= float(det[i])
    for i, j in g.edges:
        if (config >> i) & 1 and (config >> j) & 1:
            e += coupling
    return e
