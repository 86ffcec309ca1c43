"""Diagonal Rydberg-array energetics: van der Waals pair sums and exact spectra.

Atoms are treated as classical occupation patterns of the diagonal Hamiltonian

    E(n) = -sum_i detuning_i * n_i + sum_{i<j} C6 / r_ij^6 * n_i * n_j

with a global, resonant drive (so the drive amplitude never enters the
energies; it is recorded on the config purely for layout documents).
Occupation patterns are plain integer bitmasks with atom ``i`` on bit ``i``.
``diagonal_energy`` is the reference pair sum; ``moving_energy`` is its
kernel for root solving, which fixes one pattern and recomputes only the
pairs of the atoms that move, bitwise equal to ``diagonal_energy``.

Spectra are exact: no interaction tails are ever truncated.  Up to 20 atoms a
vectorised full enumeration is used; larger layouts go through a spatial-block
branch-and-bound whose bound is admissible (it drops only non-negative cross
terms), so every configuration inside the requested window is found.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import add

import numpy as np

from .errors import EnumerationBudgetError, GeometryError, ValidationError

_COINCIDENT = 1e-12


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


def vdw(r, c6):
    """Pair energy C6 / r**6 (elementwise over ``r``)."""
    return c6 / np.asarray(r, dtype=float) ** 6


def pair_matrix(positions, c6):
    """Full symmetric matrix of pair energies, zero diagonal.

    Raises GeometryError if any two atoms coincide.
    """
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    off = ~np.eye(n, dtype=bool)
    if n > 1 and dist[off].min() < _COINCIDENT:
        raise GeometryError("coincident atoms in layout")
    v = np.zeros((n, n))
    v[off] = c6 / dist[off] ** 6
    return v


def mask_of(nodes) -> int:
    """Bitmask with the given atom indices set."""
    m = 0
    for i in nodes:
        m |= 1 << int(i)
    return m


def nodes_of(mask: int, n: int):
    return [i for i in range(n) if (mask >> i) & 1]


def bitstring(mask: int, n: int) -> str:
    """Render a mask as '0101...' with atom 0 leftmost."""
    return "".join("1" if (mask >> i) & 1 else "0" for i in range(n))


def mask_from_bitstring(s: str) -> int:
    return sum(1 << i for i, ch in enumerate(s) if ch == "1")


def diagonal_energy(positions, detunings, config: int, c6=None, *, pair_energy=None):
    """Energy of one occupation pattern.

    Exactly one of ``c6`` (van der Waals) or ``pair_energy`` (a precomputed
    symmetric matrix, e.g. a step potential) selects the pair model.  Raises
    GeometryError when two *excited* atoms coincide, since the vdW energy is
    then undefined.
    """
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    det = np.broadcast_to(np.asarray(detunings, dtype=float), (n,))
    idx = [i for i in range(n) if (config >> i) & 1]
    e = -float(det[idx].sum()) if idx else 0.0
    if pair_energy is not None:
        pe = np.asarray(pair_energy, dtype=float)
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                e += float(pe[idx[a], idx[b]])
        return e
    if c6 is None:
        raise ValidationError("supply either c6 or pair_energy")
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            d2 = float(((pos[idx[a]] - pos[idx[b]]) ** 2).sum())
            if d2 < _COINCIDENT**2:
                raise GeometryError(
                    f"excited atoms {idx[a]} and {idx[b]} coincide"
                )
            e += c6 / d2**3
    return e


def moving_energy(positions, detunings, config: int, c6, moving=()):
    """``diagonal_energy`` of one pattern as a function of where some atoms sit.

    Returns ``f(rows)``: the energy of ``config`` when atom ``moving[k]`` sits
    at ``rows[k]`` and every other atom stays at ``positions`` (the rows given
    there for the moving atoms are ignored).  The ``-sum detuning`` head and
    the fixed-fixed pair terms are computed once, in ``diagonal_energy``'s
    ``(a < b)`` order over the excited atoms; a call recomputes only the pairs
    that touch an excited moving atom and then adds the terms one by one in
    that order, so the result is bitwise equal to ``diagonal_energy``.  Raises
    GeometryError, as that function does, when two excited atoms coincide.
    Positions are planar ``(x, y)`` rows.
    """
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    det = np.broadcast_to(np.asarray(detunings, dtype=float), (n,))
    idx = [i for i in range(n) if (config >> i) & 1]
    head = -float(det[idx].sum()) if idx else 0.0
    row_of = {i: k for k, i in enumerate(moving)}
    pts = pos.tolist()
    terms, slots = [], []
    for i, j in combinations(idx, 2):
        if i in row_of or j in row_of:
            slots.append((len(terms), i, j, row_of.get(i), row_of.get(j)))
            terms.append(0.0)
            continue
        d2 = float(((pos[i] - pos[j]) ** 2).sum())
        if d2 < _COINCIDENT**2:
            raise GeometryError(f"excited atoms {i} and {j} coincide")
        terms.append(c6 / d2**3)

    def energy(rows):
        for t, i, j, ri, rj in slots:
            px, py = pts[i] if ri is None else rows[ri]
            qx, qy = pts[j] if rj is None else rows[rj]
            dx = px - qx
            dy = py - qy
            d2 = dx * dx + dy * dy  # what numpy's two-term sum gives
            if d2 < _COINCIDENT**2:
                raise GeometryError(f"excited atoms {i} and {j} coincide")
            terms[t] = c6 / d2**3
        return reduce(add, terms, head)  # left to right, as diagonal_energy adds

    return energy


@dataclass(frozen=True)
class SpectrumEntry:
    energy: float
    config: int
    logical: bool = False


@dataclass
class SpectrumResult:
    entries: list
    truncated: bool
    window: float
    n_atoms: int

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
    block_size=10,
) -> SpectrumResult:
    """All configurations with energy in [E0, E0 + window], sorted.

    Sorting is by (energy, mask), so output is fully deterministic.  For more
    than 20 atoms the block branch-and-bound is used and ``hint_configs``
    (known low-lying masks, e.g. the intended logical states) matter a great
    deal for speed; they never affect correctness.
    """
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    if window < 0:
        raise ValidationError("window must be non-negative")
    det = np.broadcast_to(np.asarray(detunings, dtype=float), (n,)).astype(float)
    if n <= 20:
        energies = _dense_energies(pos, det, c6)
        e0 = float(energies.min())
        keep = np.nonzero(energies <= e0 + window + 1e-12)[0]
        pairs = [(float(energies[m]), int(m)) for m in keep]
    else:
        pairs = _block_enumerate(
            pos, det, c6, window, hint_configs, max_frontier, block_size
        )
    pairs.sort(key=lambda t: (t[0], t[1]))
    truncated = cap is not None and len(pairs) > cap
    if truncated:
        pairs = pairs[:cap]
    marks = set(int(m) for m in logical_masks)
    entries = [SpectrumEntry(e, m, m in marks) for e, m in pairs]
    return SpectrumResult(entries, truncated, window, n)


def rescale(energies, ground, unit):
    """Shift by the ground energy and express in units of ``unit``."""
    return (np.asarray(energies, dtype=float) - ground) / unit


def _dense_energies(pos, det, c6):
    n = len(pos)
    v = pair_matrix(pos, c6)
    total = 1 << n
    out = np.empty(total)
    cols = np.arange(n, dtype=np.uint32)
    step = 1 << min(n, 16)
    for start in range(0, total, step):
        masks = np.arange(start, min(start + step, total), dtype=np.uint32)
        occ = ((masks[:, None] >> cols) & np.uint32(1)).astype(float)
        out[start : start + len(masks)] = -(occ @ det) + 0.5 * np.einsum(
            "ij,ij->i", occ @ v, occ
        )
    return out


def _lex_blocks(pos, block_size):
    """Split the atoms into consecutive runs of a left-to-right sweep.

    Atoms are ordered by (x, y, index) and chopped into runs of at most
    ``block_size``, so the blocks form a path across the layout: each block
    couples strongly only to its neighbours in the sequence, with the
    couplings across larger separations decaying like 1/r^6.  That locality
    is what makes the chain messages below tight.
    """
    order = sorted(range(len(pos)), key=lambda i: (pos[i, 0], pos[i, 1], i))
    return [sorted(order[s : s + block_size]) for s in range(0, len(order), block_size)]


def _config_table(blk, det, v):
    """Exhaustive (atoms, occupancy matrix, internal energy) for one block."""
    b = len(blk)
    occ = ((np.arange(1 << b)[:, None] >> np.arange(b)) & 1).astype(float)
    vbb = v[np.ix_(blk, blk)]
    e = -(occ @ det[blk]) + 0.5 * np.einsum("ij,ij->i", occ @ vbb, occ)
    return blk, occ, e


def _message(costs, tsrc, tdst, v):
    """Per destination config: min over source configs of cost + interaction.

    ``costs`` carries whatever the source block already accounts for (its
    own energy plus messages from further away); the cross interaction
    between the two blocks is exact.  Sources are visited cheapest first:
    the interaction is repulsive, so once every remaining source costs
    more than the worst bound found so far, none of them can improve any
    destination and the scan stops early.
    """
    blks, occs, _ = tsrc
    blkd, occd, _ = tdst
    vsd = v[np.ix_(blks, blkd)]
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
            low = (cs + fields @ occd[t : t + step].T).min(axis=0)
            np.minimum(out[t : t + step], low, out=out[t : t + step])
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


def _path_prune(tables, v, cutoff):
    """Drop block configs that no global state within the cutoff can use.

    Pruning one block's table can raise every other block's messages, so
    the message/prune cycle repeats until nothing changes (a few rounds in
    practice).  No state with energy <= cutoff is ever lost: configs are
    only removed when a lower bound on any state through them exceeds the
    cutoff.
    """
    for _ in range(8):
        fin, bin_ = _chain_bounds(tables, v)
        out, changed = [], False
        for (atoms, occ, e), f, b in zip(tables, fin, bin_):
            keep = np.nonzero(f + e + b <= cutoff)[0]
            if len(keep) < len(e):
                changed = True
            out.append((atoms, occ[keep], e[keep]))
        tables = out
        if not changed or any(len(t[2]) == 0 for t in tables):
            break
    return tables


def _join_pass(tables, v, cutoff, max_frontier, cap=1 << 26):
    """Merge adjacent block pairs into wider blocks with exact tables.

    Each merge multiplies out the two config tables with their exact cross
    interaction and keeps a combination only when the chain messages from
    both sides cannot rule it out.  Pairs whose product would exceed
    ``cap`` entries are left for the frontier sweep instead.
    """
    if len(tables) < 2:
        return tables, False
    fin, bin_ = _chain_bounds(tables, v)
    out, joined, i = [], False, 0
    while i < len(tables):
        if i + 1 < len(tables):
            (aa, occa, ea), (ab, occb, eb) = tables[i], tables[i + 1]
            if len(ea) * len(eb) <= cap:
                fields = occa @ v[np.ix_(aa, ab)]
                occs, es, kept = [], [], 0
                step = max(1, (1 << 22) // max(1, len(eb)))
                for s in range(0, len(ea), step):
                    e2 = ea[s : s + step, None] + fields[s : s + step] @ occb.T
                    e2 += eb[None, :]
                    bound = e2 + fin[i][s : s + step, None] + bin_[i + 1][None, :]
                    ia, ib = np.nonzero(bound <= cutoff)
                    if len(ia) == 0:
                        continue
                    occs.append(
                        np.concatenate([occa[s + ia], occb[ib]], axis=1)
                    )
                    es.append(e2[ia, ib])
                    kept += len(ia)
                    if kept > max_frontier:
                        raise EnumerationBudgetError(
                            f"spectrum block table exceeded {max_frontier}"
                            " configurations"
                        )
                if occs:
                    occ = np.concatenate(occs, axis=0)
                    e2 = np.concatenate(es)
                else:
                    occ = np.zeros((0, len(aa) + len(ab)))
                    e2 = np.zeros(0)
                out.append((aa + ab, occ, e2))
                joined = True
                i += 2
                continue
        out.append(tables[i])
        i += 1
    return out, joined


def _block_enumerate(pos, det, c6, window, hints, max_frontier, block_size):
    v = pair_matrix(pos, c6)
    # The empty pattern is always a valid configuration, and a greedy fill
    # (repeatedly exciting whichever atom lowers the energy most) gives a
    # cheap but usually tight incumbent; hints can only improve on it.
    incumbent = 0.0
    occupancy = np.zeros(len(pos))
    cur = 0.0
    while True:
        delta = -det + v @ occupancy
        delta[occupancy > 0.5] = np.inf
        i = int(np.argmin(delta))
        if delta[i] >= 0:
            break
        occupancy[i] = 1.0
        cur += float(delta[i])
    incumbent = min(incumbent, cur)
    for h in hints:
        incumbent = min(incumbent, diagonal_energy(pos, det, int(h), c6))
    cutoff = incumbent + window + 1e-9
    # Prune-and-merge cascade: message passing shrinks the per-block config
    # tables, merging doubles the block width, and wider blocks make the
    # messages tighter still (the dropped non-adjacent couplings move
    # further apart and die off like 1/r^6).  For layouts that thin out
    # fast this ends with a single exact table; otherwise the frontier
    # sweep below finishes the job.
    tables = [_config_table(b, det, v) for b in _lex_blocks(pos, block_size)]
    tables = _path_prune(tables, v, cutoff)
    while len(tables) > 1 and all(len(t[2]) for t in tables):
        tables, joined = _join_pass(tables, v, cutoff, max_frontier)
        if not joined:
            break
        tables = _path_prune(tables, v, cutoff)
    if not all(len(t[2]) for t in tables):
        return []
    _, bin_ = _chain_bounds(tables, v)
    atoms0, occ0, e0s = tables[0]
    keep0 = np.nonzero(e0s + bin_[0] <= cutoff)[0]
    focc = (occ0[keep0] > 0.5).astype(np.uint8)
    fe = e0s[keep0]
    done = list(atoms0)
    for k in range(1, len(tables)):
        blk, occ, e = tables[k]
        vcross = v[np.ix_(done, blk)]
        occ8 = (occ > 0.5).astype(np.uint8)
        out_occ, out_e, grown = [], [], 0
        fchunk = max(64, (1 << 22) // max(1, len(e)))
        for start in range(0, len(fe), fchunk):
            fo = focc[start : start + fchunk].astype(float)
            fen = fe[start : start + fchunk]
            # exact energy of partial + new block (all couplings to every
            # already-placed atom), plus the completion message: drops only
            # the partial's coupling to blocks beyond k+1
            etot = fen[:, None] + (fo @ vcross) @ occ.T + e[None, :]
            fi, ci = np.nonzero(etot + bin_[k][None, :] <= cutoff)
            if len(fi) == 0:
                continue
            out_e.append(etot[fi, ci])
            out_occ.append(np.concatenate([focc[start + fi], occ8[ci]], axis=1))
            grown += len(fi)
            if grown > max_frontier:
                raise EnumerationBudgetError(
                    f"spectrum frontier exceeded {max_frontier}"
                    " partial configurations"
                )
        if not out_e:
            return []
        fe = np.concatenate(out_e)
        focc = np.vstack(out_occ)
        done = done + blk
    e0 = float(fe.min())
    keep = np.nonzero(fe <= e0 + window + 1e-12)[0]
    pairs = []
    for row in keep:
        mask = 0
        occ_row = focc[row]
        for col, atom in enumerate(done):
            if occ_row[col] > 0.5:
                mask |= 1 << atom
        pairs.append((float(fe[row]), mask))
    return pairs
