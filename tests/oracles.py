"""Slow, obviously correct references that the tests check the package against."""

import warnings

import numpy as np


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


def matrix_energy(pair_energy, detunings, config: int) -> float:
    """Energy of one pattern under a precomputed symmetric pair matrix.

    ``-sum detunings`` over the excited atoms plus ``pair_energy[a, b]`` for
    every excited pair ``a < b``: the van der Waals sum of
    ``physics.diagonal_energy`` with the pair model swapped, e.g. for a step
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
