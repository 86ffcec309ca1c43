"""The benchmark's three workloads: inputs, the timed calls, reference checks.

Each workload is a fixed cycle of inputs.  One op takes one input through
the package's public functions in the order the ``rydcomp`` CLI calls them,
with every call into a module wrapped in a span named after that module.
The checks that follow an op use references that do not come from the code
under test: counts fixed by the construction, an energy recomputed here
from the positions, a decode written here, and a unit-disk test made here.

Why each workload exists is written down in ``NOTES.md`` next to this file.
"""

import itertools
import json
import os
from types import SimpleNamespace

import numpy as np

from rydcomp import assembly, gadgets, parity, physics, problems, programming, reports
from rydcomp.physics import PhysicsConfig

WINDOW = 0.02  # enumeration window in pair energies, the CLI default
CAP = 200_000  # spectrum cap, the CLI default
BAND_TOL = 1e-9  # ground-band and logical-band tolerance in pair energies, as `verify`
ASSEMBLY_RATIO = 4.0  # the CLI's ratio for whole assemblies
LINK_LENGTH = 5
COUPLING_SCALE = 0.3  # couplings uniform in +-0.3 detuning, as `endtoend`

# logical states each catalogue gadget must carry: two per copy gadget, four
# per module gadget
GADGET_STATES = {"link": 2, "fork": 2, "kite": 4, "three_body": 4, "f3": 4}


# ---------------------------------------------------------------------------
# references


def reference_energy(positions, detunings, mask, c6):
    """Diagonal energy of one occupation pattern, summed here from scratch."""
    pos = np.asarray(positions, dtype=float)
    det = np.broadcast_to(np.asarray(detunings, dtype=float), (len(pos),))
    idx = [i for i in range(len(pos)) if (mask >> i) & 1]
    p = pos[idx]
    r2 = ((p[:, None, :] - p[None, :, :]) ** 2).sum(-1)
    upper = np.triu_indices(len(idx), 1)
    return float(-det[idx].sum() + (c6 / r2[upper] ** 3).sum())


def spectrum_problems(result, positions, detunings, c6, masks, window, unit):
    """Faults of one windowed spectrum against the intended logical masks.

    Passing means: entries are distinct, sorted, inside the window and not
    truncated; the ground configuration is logical; every logical mask is
    inside the window at the energy recomputed here.
    """
    entries = result.entries
    if not entries:
        return ["spectrum is empty"]
    out = []
    tol = BAND_TOL * unit
    energies = [e.energy for e in entries]
    if any(b < a for a, b in zip(energies, energies[1:])):
        out.append("entries are not sorted by energy")
    if energies[-1] > energies[0] + window + tol:
        out.append("an entry lies above the window")
    if len({e.config for e in entries}) != len(entries):
        out.append("a configuration is listed twice")
    if result.truncated:
        out.append("spectrum was truncated")
    found = {e.config: e.energy for e in entries}
    if entries[0].config not in set(masks):
        out.append(f"ground configuration {entries[0].config:#x} is not logical")
    for m in masks:
        if m not in found:
            out.append(f"logical mask {m:#x} is missing from the window")
        elif abs(found[m] - reference_energy(positions, detunings, m, c6)) > tol:
            out.append(f"logical mask {m:#x} has a wrong energy")
    return out


def unit_disk_adjacency(positions, radius):
    pos = np.asarray(positions, dtype=float)
    dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(-1))
    adj = dist < radius
    np.fill_diagonal(adj, False)
    return adj


def decode_assignment(program, values):
    """Problem bits of one parity pattern, with the first bit cleared for K_{n,m}.

    Raises ValueError when a non-auxiliary parity variable does not equal
    the XOR of the bits it carries.
    """
    problem = program.problem
    val = {v.name: b ^ int(v.complemented) for v, b in zip(program.variables, values)}
    if problem.family == "complete":
        x = [val[("s", i)] for i in range(problem.n)]
    else:
        n = problem.n
        y = [val[("p", 0, j)] for j in range(problem.m)]
        x = [0] + [val[("p", i, 0)] ^ y[0] for i in range(1, n)] + y
    for v in program.variables:
        if v.name[0] == "aux":
            continue
        carried = 0
        for k in v.support:
            carried ^= x[k]
        if carried != val[v.name]:
            raise ValueError(f"variable {v.name} does not carry the XOR of {v.support}")
    return tuple(x)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A cycle of inputs; ``inputs`` yields them in whole passes, forever."""

    name = ""

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.cycle = self._build()
        # the seed picks where the cycle starts; the warm-up always runs the
        # first input of the unrotated cycle, so set-up does not depend on it
        self.warmup_item = self.cycle[0]
        shift = seed % len(self.cycle)
        self.cycle = self.cycle[shift:] + self.cycle[:shift]

    def _build(self):
        raise NotImplementedError

    def inputs(self):
        return itertools.cycle(self.cycle)

    def prepare(self, item):
        """Per-op input generation, done outside the timed op."""
        return item

    def run(self, item, span):
        raise NotImplementedError

    def check(self, item, output):
        raise NotImplementedError


class GadgetVerify(Workload):
    """``rydcomp verify <gadget>`` on the catalogue, one gadget per op."""

    name = "gadget-verify"
    SPECS = (
        ("kite", None, 1.5),
        ("f3", None, 3.0),
        ("fork", None, 3.0),
        ("three_body", None, 3.0),
        ("link", 5, 3.0),
        ("link", 21, 3.0),
        ("link", 31, 3.0),
    )

    def _build(self):
        return [
            SimpleNamespace(label=f"{kind}:{length}" if length else kind, kind=kind,
                            length=length, config=PhysicsConfig(interaction_ratio=ratio))
            for kind, length, ratio in self.SPECS
        ]

    def run(self, item, span):
        cfg = item.config
        with span("gadgets.make"):
            gadget = gadgets.make_gadget(item.kind, config=cfg, length=item.length)
        with span("programming.balance") as c:
            anchored = programming.balance_open_ports(gadget, cfg)
            c["anchors"] = len(anchored.anchors)
        masks = anchored.full_masks()
        with span("physics.spectrum") as c:
            result = physics.spectrum(
                anchored.positions, cfg.detuning, cfg.c6,
                window=WINDOW * cfg.energy_unit, cap=CAP, logical_masks=masks,
            )
            c["atoms"] = result.n_atoms
            c["states"] = len(result.entries)
        with span("reports.report"):
            doc = reports.gadget_document(anchored, cfg)
            report = reports.verification_report(
                result, masks, anchored.anchor_mask, cfg,
                hashes={"gadget": reports.fingerprint(doc)},
            )
            band = report["logical_band"]
            report["verified"] = bool(
                report["ground_all_logical"]
                and report["anchors_excited"]
                and band is not None
                and band["count"] == len(masks)
                and band["spread"] <= BAND_TOL * cfg.energy_unit
            )
            reports.write_json(os.path.join(self.out_dir, "report.json"), report)
            reports.write_spectrum_csv(os.path.join(self.out_dir, "spectrum.csv"), result, cfg)
        return anchored, masks, result

    def check(self, item, output):
        """The `verified` rule of `verify`, recomputed from the spectrum."""
        anchored, masks, result = output
        cfg = item.config
        unit = cfg.energy_unit
        tol = BAND_TOL * unit
        out = []
        if len(set(masks)) != GADGET_STATES[item.kind]:
            out.append(f"{len(set(masks))} logical states, want {GADGET_STATES[item.kind]}")
        if not result.entries:
            return out + ["spectrum is empty"]
        found = {e.config: e.energy for e in result.entries}
        e0 = result.entries[0].energy
        amask = anchored.anchor_mask
        if amask != (1 << len(anchored.positions)) - (1 << anchored.gadget.n):
            out.append("anchor mask does not cover the anchor atoms")
        for e in result.entries:
            if e.energy > e0 + tol:
                break
            if e.config not in masks:
                out.append(f"ground band holds non-logical {e.config:#x}")
            if e.config & amask != amask:
                out.append(f"ground state {e.config:#x} leaves an anchor idle")
        band = [found[m] for m in masks if m in found]
        if len(band) != len(masks):
            out.append("logical band is incomplete")
        elif max(band) - min(band) > tol:
            out.append(f"logical band spread {max(band) - min(band):.3g} > {tol:.3g}")
        for m in masks:
            if m in found:
                ref = reference_energy(anchored.positions, cfg.detuning, m, cfg.c6)
                if abs(found[m] - ref) > tol:
                    out.append(f"logical mask {m:#x} has a wrong energy")
        try:
            with open(os.path.join(self.out_dir, "report.json"), encoding="utf-8") as fh:
                written = json.load(fh)
            with open(os.path.join(self.out_dir, "spectrum.csv"), encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
        except (OSError, ValueError) as exc:
            return out + [f"artifacts unreadable: {exc}"]
        if written.get("verified") is not True:
            out.append(f"report.json says verified={written.get('verified')}")
        if rows != len(result.entries):
            out.append(f"spectrum.csv has {rows} rows for {len(result.entries)} states")
        return out


def _family_sizes(label):
    """(n, m) of 'K_n' or 'K_{n,m}' (m = 0 for complete graphs)."""
    inner = label[2:].strip("{}")
    n, _, m = inner.partition(",")
    return int(n), int(m or 0)


class LadderFront(Workload):
    """``build_global_layout`` up to, not including, ``plan_anchors``."""

    name = "ladder-front"
    FAMILIES = ("K_2", "K_{2,2}", "K_{2,3}", "K_{2,4}", "K_{2,5}")

    def _build(self):
        self.config = PhysicsConfig(interaction_ratio=ASSEMBLY_RATIO)
        self.rng = np.random.default_rng(self.seed)
        return [SimpleNamespace(label=f, sizes=_family_sizes(f)) for f in self.FAMILIES]

    def prepare(self, item):
        """Fresh couplings for this op, drawn as `endtoend` draws them."""
        n, m = item.sizes
        scale = COUPLING_SCALE * self.config.detuning
        if m == 0:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            linear = [[i, float(self.rng.uniform(-scale, scale))] for i in range(n)]
        else:
            pairs = [(i, n + j) for i in range(n) for j in range(m)]
            linear = []
        quadratic = [[i, j, float(self.rng.uniform(-scale, scale))] for i, j in pairs]
        data = {"family": item.label, "linear": linear, "quadratic": quadratic}
        return SimpleNamespace(label=item.label, sizes=item.sizes, data=data)

    def run(self, item, span):
        with span("problems.parse"):
            problem = problems.parse_problem(item.data)
        with span("parity.compile"):
            program = parity.decompose_all(parity.compile_parity(problem))
        with span("assembly.assemble") as c:
            instance = assembly.assemble_layout(program, self.config, link_length=LINK_LENGTH)
            c["atoms"] = instance.n_atoms
        with span("assembly.certify") as c:
            logical = assembly.logical_subspace(instance)
            c["logical_states"] = len(logical)
        with span("programming.tail"):
            w1 = programming.tail_compensate(instance)
        with span("programming.homogenize"):
            w2 = programming.homogenize(instance, w1)
        return program, instance, logical, w1, w2

    def check(self, item, output):
        """2^n states for K_n, 2^(n+m-1) for K_{n,m}; each a distinct assignment."""
        program, instance, logical, w1, w2 = output
        n, m = item.sizes
        want = 2 ** n if m == 0 else 2 ** (n + m - 1)
        out = []
        if len(logical) != want:
            out.append(f"{len(logical)} logical states, want {want}")
        adj = unit_disk_adjacency(instance.positions, self.config.blockade_radius)
        weights = []
        assignments = set()
        for state in logical:
            atoms = [a for a in range(instance.n_atoms) if (state.mask >> a) & 1]
            if adj[np.ix_(atoms, atoms)].any():
                out.append(f"state {state.mask:#x} is not an independent set")
            weights.append(float(instance.weights[atoms].sum()))
            for v, value in zip(program.variables, state.values):
                chain = instance.chains[v.name]
                read = {((state.mask >> a) & 1) ^ ph for a, ph in zip(chain.atoms, chain.phases)}
                if read != {value}:
                    out.append(f"chain of {v.name} does not read {value} in {state.mask:#x}")
            try:
                assignments.add(decode_assignment(program, state.values))
            except ValueError as exc:
                out.append(str(exc))
        if len(assignments) != len(logical):
            out.append(f"{len(logical)} states decode to {len(assignments)} assignments")
        if weights and max(weights) - min(weights) > 1e-9:
            out.append("logical states differ in bare weight")
        for name, w in (("w1", w1), ("w2", w2)):
            if w.shape != (instance.n_atoms,) or not np.isfinite(w).all():
                out.append(f"{name} is not a finite weight per atom")
        return out


class SpectrumBlock(Workload):
    """The ``physics.spectrum`` call of `verify`, above the 20-atom dense limit."""

    name = "spectrum-block"

    def _build(self):
        # a 1-D chain: the anchored link as the gadget route enumerates it,
        # uniform detuning and no hints
        link_cfg = PhysicsConfig(interaction_ratio=3.0)
        link = programming.balance_open_ports(
            gadgets.make_gadget("link", config=link_cfg, length=37), link_cfg
        )
        chain = SimpleNamespace(label="link:37", positions=link.positions,
                                detunings=np.full(len(link.positions), link_cfg.detuning),
                                c6=link_cfg.c6, unit=link_cfg.energy_unit,
                                masks=link.full_masks(), hints=())
        # a 2-D kite grid: the homogenised K_{2,2} instance, per-atom
        # detunings w2 * detuning, certified logical masks as hints
        cfg = PhysicsConfig(interaction_ratio=ASSEMBLY_RATIO)
        program = parity.decompose_all(parity.compile_parity(
            problems.parse_problem({"family": "K_{2,2}"})))
        instance = assembly.assemble_layout(program, cfg, link_length=LINK_LENGTH)
        masks = tuple(s.mask for s in assembly.logical_subspace(instance))
        w2 = programming.homogenize(instance, programming.tail_compensate(instance))
        grid = SimpleNamespace(label="K_{2,2}", positions=instance.positions,
                               detunings=w2 * cfg.detuning, c6=cfg.c6, unit=cfg.energy_unit,
                               masks=masks, hints=masks)
        # three chains per grid keep the median on the chain and the tail on
        # the grid, an order of magnitude apart
        return [chain, chain, chain, grid]

    def run(self, item, span):
        with span("physics.spectrum") as c:
            result = physics.spectrum(
                item.positions, item.detunings, item.c6,
                window=WINDOW * item.unit, cap=CAP,
                hint_configs=item.hints, logical_masks=item.masks,
            )
            c["atoms"] = result.n_atoms
            c["states"] = len(result.entries)
        return result

    def check(self, item, output):
        return spectrum_problems(output, item.positions, item.detunings, item.c6,
                                 item.masks, WINDOW * item.unit, item.unit)


WORKLOADS = {w.name: w for w in (GadgetVerify, LadderFront, SpectrumBlock)}
