"""Slow, obviously correct references that the tests check the package against."""

import warnings

import numpy as np

from rydcomp.errors import GeometryError
from rydcomp.physics import _COINCIDENT
from rydcomp.programming import _PORT_SHARES, _TRANSFER, required_splitting


def enumerate_independent_sets(g):
    """Yield every independent set of the unit-disk graph ``g`` exactly once."""

    nb = g.neighbor_masks

    def rec(i, cur, blocked):
        if i == g.n:
            yield cur
            return
        yield from rec(i + 1, cur, blocked)
        if not (blocked >> i) & 1:
            yield from rec(i + 1, cur | (1 << i), blocked | nb[i])

    yield from rec(0, 0, 0)


def port_bits(gadget, state_index: int) -> tuple:
    """Excitation of each port, in port order, in one logical state of ``gadget``."""
    mask = gadget.logical_states[state_index]
    return tuple((mask >> i) & 1 for i in gadget.ports.values())


def step_energy(g, detunings, coupling, config: int) -> float:
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


def diagonal_energy(positions, detunings, config: int, c6):
    """Energy of one occupation pattern under van der Waals pairs ``c6 / r**6``.

    The reference pair sum: ``-sum detunings`` over the excited atoms, then
    each excited pair ``a < b`` added left to right, one term at a time,
    independent of ``physics.pair_matrix`` and ``physics.probe_sum``.
    Raises GeometryError when two *excited* atoms coincide, since the
    energy is then undefined.
    """
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    det = np.broadcast_to(np.asarray(detunings, dtype=float), (n,))
    idx = [i for i in range(n) if (config >> i) & 1]
    e = -float(det[idx].sum()) if idx else 0.0
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            d2 = float(((pos[idx[a]] - pos[idx[b]]) ** 2).sum())
            if d2 < _COINCIDENT**2:
                raise GeometryError(
                    f"excited atoms {idx[a]} and {idx[b]} coincide"
                )
            e += c6 / d2**3
    return e


def matrix_energy(pair_energy, detunings, config: int) -> float:
    """Energy of one pattern under a precomputed symmetric pair matrix.

    ``-sum detunings`` over the excited atoms plus ``pair_energy[a, b]`` for
    every excited pair ``a < b``: the van der Waals sum of
    :func:`diagonal_energy` with the pair model swapped, e.g. for a step
    potential.
    """
    pe = np.asarray(pair_energy, dtype=float)
    det = np.broadcast_to(np.asarray(detunings, dtype=float), (len(pe),))
    idx = [i for i in range(len(pe)) if (config >> i) & 1]
    e = -float(det[idx].sum()) if idx else 0.0
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            e += float(pe[idx[a], idx[b]])
    return e


def exhaustive_table(blk, det, v):
    """(atoms, occupancy, internal energy) of all ``2**len(blk)`` configs of a block.

    Rows in ascending mask order, atom ``blk[k]`` on bit ``k``; the energy
    is ``-occ . det + occ . V . occ / 2`` over the block's own pairs.
    """
    b = len(blk)
    occ = ((np.arange(1 << b)[:, None] >> np.arange(b)) & 1).astype(float)
    vbb = v[np.ix_(blk, blk)]
    e = -(occ @ det[blk]) + 0.5 * np.einsum("ij,ij->i", occ @ vbb, occ)
    return np.asarray(blk), occ, e


def chain_sum(instance, name, q) -> float:
    """Signed pair sum of a probe atom at ``q`` over one chain.

    ``+C6/r^6`` to each chain atom excited with value 1 (phase 0) and
    ``-C6/r^6`` to each one excited with value 0: what the probe adds to the
    value-1 states minus what it adds to the value-0 states, term by term.
    """
    ch = instance.chains[name]
    c6 = instance.config.c6
    out = 0.0
    for a, ph in zip(ch.atoms, ch.phases):
        d2 = float(((instance.positions[a] - np.asarray(q, dtype=float)) ** 2).sum())
        out += (1.0 if ph == 0 else -1.0) * c6 / d2**3
    return out


def module_anchor_shift(instance, anchor_positions):
    """Port-weight shift that absorbs anchor potentials on module interiors.

    Anchors act on every atom, not only on their own chain.  On the atoms of
    a module that belong to no chain their potential is state-dependent; it
    is swept onto the module ports exactly like a slot deposit, with the
    half-difference map ``programming._TRANSFER``.
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
        moved = _TRANSFER @ (deps / cfg.detuning)
        for idx, shares in _PORT_SHARES[e.gadget.kind].items():
            for port, frac in shares:
                shift[e.nodes[e.gadget.ports[port]]] += moved[idx - 1] * frac
    return shift


def anchored_requirement(instance, w2, name, anchor_positions) -> float:
    """What one chain still needs once other chains' anchors sit at the given sites.

    The two channels priced separately: the module-interior potentials shift
    the homogenised port weights (``module_anchor_shift``) and so the
    chain's required splitting, and each anchor's direct pull on the chain
    (``chain_sum``) comes off the result.
    """
    shifted = w2 + module_anchor_shift(instance, anchor_positions)
    need = required_splitting(instance, shifted, name)
    return need - sum(chain_sum(instance, name, q) for q in anchor_positions)
