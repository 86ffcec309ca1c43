"""Diagonal Rydberg-array energetics: van der Waals pair sums and exact spectra.

Atoms are treated as classical occupation patterns of the diagonal Hamiltonian

    E(n) = -sum_i detuning_i * n_i + sum_{i<j} C6 / r_ij^6 * n_i * n_j

with a global, resonant drive (so the drive amplitude never enters the
energies; it is recorded on the config purely for layout documents).
Occupation patterns are plain integer bitmasks with atom ``i`` on bit ``i``.
Whole patterns are scored over ``pair_matrix`` (``energies``, the spectra).
Point-to-site distances come from ``distances`` and the 0/1 rows of masks
from ``occupancy``, here and everywhere else in the package.
Every anchor root solve runs on ``probe_sum``, the signed pair sum that probe
atoms feel from fixed sites.  Its one kernel scores many placements at once,
and a single placement is that kernel on one row, so a batched value is the
scalar call's value bit for bit.

Spectra are exact: no interaction tails are ever truncated.  Every layout,
from one atom up, goes through one spatial-block branch-and-bound whose
bound is admissible (it drops only non-negative cross terms), so every
configuration inside the requested window is found.  Its blocks are
consecutive runs of a Cuthill–McKee sweep of the layout's nearest-neighbour
graph, the order ``mwis`` branches along, so they stay compact on chains and
on kite grids alike.  Its block tables are also cut by a single-flip rule: a
block configuration goes when flipping one of its atoms lowers every
completion of it by more than the window.  Such a state lies above the
ground energy plus the window, and the ground state itself never loses
energy to a flip, so the rule is exact.  A block configuration holding a
pair whose energy alone trips the rule is never generated.  The window's
energies are rescored state by state in atom order, so they do not depend
on how the atoms were cut into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetError, GeometryError, ValidationError
from .mwis import _sweep_order

_COINCIDENT = 1e-12
_BLOCK_SIZE = 10  # atoms per block of the branch-and-bound's first tables
_NEAR = 1.5  # sweep-graph edges join pairs closer than this times the closest pair


@dataclass(frozen=True)
class PhysicsConfig:
    """Drive and geometry scales for a layout.

    ``interaction_ratio`` is the nearest-neighbour pair energy in units of the
    detuning.  It fixes C6 = ratio * detuning * spacing**6 and the blockade
    radius ratio**(1/6) * spacing, which must sit strictly between one and two
    lattice spacings for all unit-disk constructions in this package.
    """

    interaction_ratio: float
    spacing: float = 1.0
    detuning: float = 1.0
    rabi: float = 0.0

    def __post_init__(self):
        if not (1.0 < self.interaction_ratio < 64.0):
            raise ValidationError(
                "interaction_ratio must lie in (1, 64) so that "
                f"spacing < blockade radius < 2*spacing, got {self.interaction_ratio}"
            )
        if self.spacing <= 0 or self.detuning <= 0:
            raise ValidationError("spacing and detuning must be positive")

    @property
    def c6(self) -> float:
        return self.interaction_ratio * self.detuning * self.spacing**6

    @property
    def energy_unit(self) -> float:
        """Nearest-neighbour pair energy, the natural reporting scale."""
        return self.interaction_ratio * self.detuning

    @property
    def blockade_radius(self) -> float:
        return self.interaction_ratio ** (1.0 / 6.0) * self.spacing


def pair_matrix(positions, c6):
    """Full symmetric matrix of pair energies, zero diagonal.

    Raises GeometryError if any two atoms coincide.
    """
    pos = _planar(positions)
    n = len(pos)
    dist = distances(pos, pos)
    off = ~np.eye(n, dtype=bool)
    if n > 1 and dist[off].min() < _COINCIDENT:
        raise GeometryError("coincident atoms in layout")
    v = np.zeros((n, n))
    v[off] = c6 / dist[off] ** 6
    return v


def distances(points, sites):
    """Euclidean distance from every point to every site, ``(points, sites)``."""
    p, s = _planar(points), _planar(sites)
    return np.sqrt(((p[:, None] - s[None]) ** 2).sum(-1))


def _planar(positions):
    """Positions as float ``(x, y)`` rows; an empty list is zero rows."""
    pos = np.asarray(positions, dtype=float)
    return pos.reshape(0, 2) if pos.size == 0 else pos


def mask_of(nodes) -> int:
    """Bitmask with the given atom indices set."""
    m = 0
    for i in nodes:
        m |= 1 << int(i)
    return m


def occupancy(masks, n):
    """0/1 ``uint8`` rows of ``masks``, bit ``a`` in column ``a < n``.

    Bits at or above ``n`` are dropped.
    """
    full, width = (1 << n) - 1, (n + 7) // 8
    rows = [(int(m) & full).to_bytes(width, "little") for m in masks]
    packed = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def bitstring(mask: int, n: int) -> str:
    """Render a mask as '0101...' with atom 0 leftmost.

    Bit ``n`` is set as a sentinel so ``format`` keeps leading zeros, also
    for ``n == 0``; the reversal drops it.
    """
    return format(mask & ((1 << n) - 1) | 1 << n, "b")[:0:-1]


def probe_sum(sites, coeff, c6):
    """``f(q)``: the pair sum ``sum coeff_s * c6 / r**6`` of probes at ``q``.

    ``q`` is one probe ``(2,)`` or several ``(k, 2)``.  ``f.batch(qs)``
    scores ``qs`` of shape ``(Y, 2)`` or ``(Y, k, 2)``, one value per row:
    numpy's pairwise sum of ``wts * c6 / d2**3`` over the row's (probe,
    site) terms, probe-major, for every site with a nonzero coefficient.
    ``f(q)`` is ``f.batch`` on the one row ``q``, and each row is summed
    alone, so the two agree bit for bit.  The energy split of two states
    that both excite the probes moves only by such a sum over the
    difference of their occupations, so it serves every anchor root solve.
    Raises GeometryError when a probe sits on a site it sums over.
    """
    idx = np.flatnonzero(coeff)
    pts = np.asarray(sites, dtype=float)[idx]
    wc = np.asarray(coeff, dtype=float)[idx] * c6

    def batch(qs):
        q3 = np.asarray(qs, dtype=float).reshape(len(qs), -1, 2)
        d2 = ((pts - q3[..., None, :]) ** 2).sum(-1)
        if (d2 < _COINCIDENT**2).any():
            raise GeometryError("probe atom on a site of its pair sum")
        return (wc / d2**3).reshape(len(qs), -1).sum(axis=1)

    def f(q):
        return float(batch(np.asarray(q, dtype=float)[None])[0])

    f.batch = batch
    return f


def energies(positions, detunings, masks, c6):
    """Diagonal energies of whole occupation patterns of one layout.

    ``-sum detuning`` over each mask's excited atoms plus ``c6 / r**6`` per
    excited pair, scored over the full :func:`pair_matrix` as the spectrum
    scores its window, so it raises GeometryError when two atoms coincide.
    """
    pos = _planar(positions)
    n = len(pos)
    det = np.broadcast_to(np.asarray(detunings, dtype=float), (n,))
    return _energies(occupancy(masks, n), det, pair_matrix(pos, c6))


@dataclass(frozen=True)
class SpectrumEntry:
    energy: float
    config: int
    logical: bool = False


@dataclass
class SpectrumResult:
    """Sorted window of a spectrum.

    ``peak_table`` counts the most rows any block table of the
    branch-and-bound held after pruning.
    """

    entries: list
    truncated: bool
    window: float
    n_atoms: int
    peak_table: int = 0

    @property
    def ground_energy(self) -> float:
        return self.entries[0].energy


def spectrum(
    positions,
    detunings,
    c6,
    window,
    *,
    cap=200_000,
    hint_configs=(),
    logical_masks=(),
    max_frontier=2_000_000,
) -> SpectrumResult:
    """All configurations with energy in [E0, E0 + window], sorted.

    Sorting is by (energy, mask), so output is fully deterministic.  Every
    layout goes through the block branch-and-bound; one of at most
    ``_BLOCK_SIZE`` atoms is a single block, whose table holds every
    configuration the single-flip rule keeps.  The cutoff starts from the
    lowest real state known: the empty pattern, the state the chain
    messages decode to, and ``hint_configs`` (known low-lying masks, e.g.
    the intended logical states).  The decoded state lies within a few
    thousandths of a detuning of the ground state on chains and on the
    anchored kite grids up to ``K_{2,5}``, but from ``K_{2,6}`` on it lies
    0.2 to 0.3 detunings above it (0.218, 0.186 and 0.262 on ``K_{2,6}``,
    ``K_{2,8}`` and ``K_{2,10}``).  On those grids the hints are what keeps
    the tables small; they never change the result.  ``max_frontier``
    bounds the rows any joined table may keep; a join that keeps more
    raises EnumerationBudgetError.  A layout of no atoms has the empty
    pattern as its whole spectrum.
    """
    pos = _planar(positions)
    n = len(pos)
    if not window >= 0:  # NaN fails this too
        raise ValidationError("window must be non-negative")
    det = np.broadcast_to(np.asarray(detunings, dtype=float), (n,)).astype(float)
    pairs, peak = _block_enumerate(pos, det, c6, window, hint_configs, max_frontier)
    pairs.sort(key=lambda t: (t[0], t[1]))
    truncated = cap is not None and len(pairs) > cap
    if truncated:
        pairs = pairs[:cap]
    marks = set(int(m) for m in logical_masks)
    entries = [SpectrumEntry(e, m, m in marks) for e, m in pairs]
    return SpectrumResult(entries, truncated, window, n, peak)


def _sweep_blocks(v):
    """Split the atoms into consecutive runs of a graph sweep of the layout.

    The graph joins the atoms closer than ``_NEAR`` times the closest pair,
    read off the pair matrix ``v`` (pair energies fall like 1/r^6), and
    each atom to its nearest neighbour, so that an outlying anchor enters
    the sweep next to the atom it serves, not after everything else.
    ``mwis._sweep_order`` orders the graph by a Cuthill–McKee sweep, and
    runs of at most ``_BLOCK_SIZE`` atoms along it form the block path: a
    chain is cut into segments and a kite grid into pieces of the sweep's
    front, so each block couples strongly only to its neighbours in the
    sequence, with the couplings across larger separations decaying like
    1/r^6.  That locality is what makes the chain messages below tight.
    """
    near = v > v.max() / _NEAR**6
    near[np.arange(len(v)), v.argmax(axis=1)] = True
    order = _sweep_order(_row_masks(near | near.T))
    return [
        sorted(order[s : s + _BLOCK_SIZE]) for s in range(0, len(order), _BLOCK_SIZE)
    ]


def _row_masks(rows):
    """Bitmask of each 0/1 row, column ``i`` on bit ``i``."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _energies(occ, det, v):
    """Diagonal energies of occupancy rows whose columns are the atoms of ``v``.

    Plain ``np.einsum`` loops over a C-ordered copy, no BLAS: each row is
    summed the same way whatever batch or memory layout it comes in, so an
    energy does not depend on the table that carried its state (a matrix
    product's does).
    """
    occ = np.ascontiguousarray(occ, dtype=float)
    fields = np.einsum("ij,jk->ik", occ, v)
    return -np.einsum("ij,j->i", occ, det) + 0.5 * np.einsum("ij,ij->i", fields, occ)


def _config_table(blk, det, v, slack):
    """(atoms, occupancy matrix, internal energy) of a block's configs, hard pairs cut.

    A hard pair's energy alone exceeds either atom's detuning by more than
    ``slack``, so ``_flip_prune`` with that ``slack`` drops every config
    holding one: an excited atom's in-block field is a float sum of
    non-negative pair energies, never below any of its terms, and rounding
    is monotone.  Rows are built atom by atom in block order, each row free
    of the new atom's hard partners gaining a copy with it, so they stay in
    ascending mask order and, once pruned, equal the pruned exhaustive table.
    """
    atoms = np.asarray(blk)
    vbb = v[atoms[:, None], atoms]
    d = det[atoms]
    hard = vbb - d > slack  # hard[j, i]: v[j, i] alone tips atom i's flip rule
    hard |= hard.T
    masks = [0]
    for k, partners in enumerate((hard @ (1 << np.arange(len(atoms)))).tolist()):
        masks += [m | 1 << k for m in masks if not m & partners]
    # masks of at most _BLOCK_SIZE bits: an integer shift beats ``occupancy``
    occ = ((np.array(masks)[:, None] >> np.arange(len(atoms))) & 1).astype(float)
    return atoms, occ, _energies(occ, d, vbb)


def _flip_prune(table, det, v, slack):
    """Drop the configs of a block table that one atom flip undercuts by ``slack``.

    Pair energies are repulsive, so an excited atom ``i`` whose in-block
    field exceeds its detuning by more than ``slack`` costs every completion
    at least that much: removing it lowers the energy by more.  An empty atom
    ``j`` whose detuning exceeds its in-block field plus its coupling to
    every atom outside the block likewise lowers every completion when
    added, even with all outside atoms excited.  A config with either atom
    only completes to states more than ``slack`` above some other state.
    """
    atoms, occ, e = table
    rows = v[atoms]
    vbb = rows[:, atoms]
    d = det[atoms]
    outside = rows.sum(axis=1) - vbb.sum(axis=1)
    keep = np.ones(len(e), dtype=bool)
    step = max(1, (1 << 22) // len(atoms))
    for s in range(0, len(e), step):
        o = occ[s : s + step]
        field = o @ vbb
        gain = np.where(o > 0.5, field - d, d - field - outside)
        keep[s : s + step] = (gain <= slack).all(axis=1)
    return atoms, occ[keep], e[keep]


def _message(costs, tsrc, tdst, v):
    """Per destination config: min over source configs of cost + interaction.

    ``costs`` carries whatever the source block already accounts for (its
    own energy plus messages from further away); the cross interaction
    between the two blocks is exact.  Sources are visited cheapest first:
    the interaction is repulsive, so once every remaining source costs
    more than the worst bound found so far, none of them can improve any
    destination and the scan stops early.  A message that fits in one
    source chunk and one destination chunk skips the sort and is one
    product and one ``min``: the same sums, minimised over the same set.
    """
    blks, occs, _ = tsrc
    blkd, occd, _ = tdst
    vsd = v[blks[:, None], blkd]
    if len(costs) <= 512 and len(costs) * len(occd) <= 1 << 22:
        # the add goes in place: a second temporary this size costs more than the product
        low = (occs @ vsd) @ occd.T
        low += costs[:, None]
        return low.min(axis=0, initial=np.inf)  # all inf from no sources, as below
    order = np.argsort(costs, kind="stable")
    out = np.full(len(occd), np.inf)
    for s in range(0, len(order), 512):
        idx = order[s : s + 512]
        if costs[idx[0]] >= out.max():
            break
        fields = occs[idx] @ vsd
        cs = costs[idx][:, None]
        step = max(1, (1 << 22) // len(idx))
        for t in range(0, len(occd), step):
            low = fields @ occd[t : t + step].T
            low += cs  # in place, as above: the same sums, no second temporary
            np.minimum(out[t : t + step], low.min(axis=0), out=out[t : t + step])
    return out


def _chain_bounds(tables, v):
    """Incoming min-sum messages along the block path, both directions.

    ``fin[i][c]`` bounds the energy of blocks 0..i-1 plus their coupling
    into block i sitting in config c; ``bin_[i][c]`` is the mirror image
    for blocks i+1 and beyond.  Adjacent-block interactions are exact and
    everything longer-range is dropped — dropped terms are repulsive, so
    ``fin + e + bin_`` is a true lower bound for any global state that
    restricts to config c on block i.
    """
    k = len(tables)
    fin = [np.zeros(len(tables[0][2]))]
    for i in range(1, k):
        costs = tables[i - 1][2] + fin[i - 1]
        fin.append(_message(costs, tables[i - 1], tables[i], v))
    bin_ = [None] * k
    bin_[-1] = np.zeros(len(tables[-1][2]))
    for i in range(k - 2, -1, -1):
        costs = tables[i + 1][2] + bin_[i + 1]
        bin_[i] = _message(costs, tables[i + 1], tables[i], v)
    return fin, bin_


def _path_prune(tables, v, cutoff, bounds):
    """Drop block configs that no global state within the cutoff can use.

    Pruning one block's table can raise every other block's messages, so
    the message/prune cycle repeats until nothing changes (a few rounds in
    practice).  No state with energy <= cutoff is ever lost: configs are
    only removed when a lower bound on any state through them exceeds the
    cutoff.  ``bounds`` are the chain bounds of the given tables, or None.
    Returns the tables and, when the last round removed nothing, their
    chain bounds (None otherwise), so callers need not send them again.
    """
    for _ in range(8):
        fin, bin_ = bounds or _chain_bounds(tables, v)
        keeps = [
            np.nonzero(f + e + b <= cutoff)[0]
            for (_, _, e), f, b in zip(tables, fin, bin_)
        ]
        if all(len(k) == len(t[2]) for k, t in zip(keeps, tables)):
            return tables, (fin, bin_)
        tables = [(atoms, occ[k], e[k]) for (atoms, occ, e), k in zip(tables, keeps)]
        bounds = None
        if any(len(t[2]) == 0 for t in tables):
            break
    return tables, None


def _join_pass(tables, v, cutoff, max_frontier, bounds):
    """Merge adjacent block pairs into wider blocks with exact tables.

    Each merge multiplies out the two config tables with their exact cross
    interaction and keeps a combination only when the chain messages from
    both sides (``bounds``, sent here when None) cannot rule it out.  A
    trailing odd table passes through unchanged.  No table may be empty.
    """
    fin, bin_ = bounds or _chain_bounds(tables, v)
    out = []
    for i in range(0, len(tables) - 1, 2):
        (aa, occa, ea), (ab, occb, eb) = tables[i], tables[i + 1]
        fields = occa @ v[aa[:, None], ab]
        occs, es, kept = [], [], 0
        step = max(1, (1 << 22) // len(eb))
        for s in range(0, len(ea), step):
            e2 = ea[s : s + step, None] + fields[s : s + step] @ occb.T
            e2 += eb[None, :]
            bound = e2 + fin[i][s : s + step, None] + bin_[i + 1][None, :]
            ia, ib = np.nonzero(bound <= cutoff)
            occs.append(np.concatenate([occa[s + ia], occb[ib]], axis=1))
            es.append(e2[ia, ib])
            kept += len(ia)
            if kept > max_frontier:
                raise EnumerationBudgetError(
                    f"spectrum block table exceeded {max_frontier} configurations"
                )
        out.append((np.concatenate([aa, ab]), np.concatenate(occs), np.concatenate(es)))
    return out + tables[len(out) * 2 :]


def _decode(tables, fin, v):
    """Occupancy, in atom order, of the configuration the forward messages lead to.

    The Viterbi backtrack: the last block takes the config that minimises
    its energy plus its incoming message, and each earlier block the config
    whose message into the one chosen after it was the minimum.  Messages
    keep only adjacent couplings, so the state is real but not always the
    ground state; its exact energy is a valid incumbent either way.
    """
    x = np.zeros(len(v))
    atoms, occ, e = tables[-1]
    row = x[atoms] = occ[int(np.argmin(e + fin[-1]))]
    for (src, socc, se), f in zip(tables[-2::-1], fin[-2::-1]):
        costs = se + f + socc @ (v[src[:, None], atoms] @ row)
        atoms, row = src, socc[int(np.argmin(costs))]
        x[atoms] = row
    return x


def _block_enumerate(pos, det, c6, window, hints, max_frontier):
    """(energy, mask) pairs of the window, and the peak block table size."""
    n = len(pos)
    if n == 0:
        return [(0.0, 0)], 0  # the empty pattern is the whole spectrum
    v = pair_matrix(pos, c6)
    slack = window + 1e-9
    # Prune-and-merge cascade: each fresh table holds only the configs
    # without a hard pair (see ``_config_table``), the single-flip rule
    # (see ``_flip_prune``) cuts it further on its own, message passing
    # shrinks the tables further, merging doubles the block width, and
    # wider blocks make both tighter still (more of each atom's field is
    # inside its block, and the dropped non-adjacent couplings move further
    # apart and die off like 1/r^6).  Each join pass halves the number of
    # tables, so the cascade ends with a single exact table.
    tables = [
        _flip_prune(_config_table(b, det, v, slack), det, v, slack)
        for b in _sweep_blocks(v)
    ]
    peak = max(len(t[2]) for t in tables)
    bounds = _chain_bounds(tables, v)
    # The cutoff is the lowest energy of a real state known, plus the window:
    # the empty pattern, the hints, and the state the chain messages decode
    # to.  The decoded state is close to the ground state on chains, but on
    # kite grids from K_{2,6} on it lies 0.2-0.3 detunings above it, so
    # there the hints set the cutoff and keep the tables small.
    rows = _decode(tables, bounds[0], v)[None]
    if len(hints):  # most calls pass none and skip the unpack and the stack
        rows = np.vstack([rows, occupancy(hints, n)])
    cutoff = min(0.0, float(_energies(rows, det, v).min())) + slack
    tables, bounds = _path_prune(tables, v, cutoff, bounds)
    while len(tables) > 1 and all(len(t[2]) for t in tables):
        tables = _join_pass(tables, v, cutoff, max_frontier, bounds)
        tables = [_flip_prune(t, det, v, slack) for t in tables]
        peak = max(peak, *(len(t[2]) for t in tables))
        tables, bounds = _path_prune(tables, v, cutoff, None)
    if not all(len(t[2]) for t in tables):
        return [], peak
    # The table's energies were summed block by block, so their last bits
    # depend on the partition.  Rescore the states near the bottom row by
    # row in atom order and cut the window on those energies; the margin
    # covers the rounding between the two sums.
    ((atoms, occ, e),) = tables
    near = (occ[e <= e.min() + window + 1e-9] > 0.5)[:, np.argsort(atoms)]
    es = _energies(near, det, v)
    keep = es <= es.min() + window + 1e-12
    return list(zip(es[keep].tolist(), _row_masks(near[keep]))), peak
