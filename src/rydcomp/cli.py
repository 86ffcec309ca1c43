"""Command-line front end: compile layouts, verify spectra, sweep, decode.

Four subcommands cover the pipeline end to end:

``compile``
    problem file -> anchored layout document (JSON) + human-readable summary.
``verify``
    problem file *or* catalogue gadget name -> window enumeration of the full
    layout, spectrum CSV and a verification report (logical band, gap,
    anchors-excited and decode-consistency checks).
``sweep``
    move one programming handle (anchor height ``dy`` or atom displacement
    ``dx``) across a range and emit the exact response curve next to its
    first- and second-order models, as CSV.
``endtoend``
    repeated randomized instances: compile, enumerate exact ground states,
    decode, compare with the brute-force optimum; mismatches are reported in
    the result file, never raised.

Exit codes: 0 success, 2 invalid input, 3 pipeline failure (geometry, root
finding, enumeration budget), 4 verification failed.  All file outputs go to
``--out`` (default: ``$RYDCOMP_OUT`` or the working directory) and are
byte-stable for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import reports
from .errors import GeometryError, ProblemFormatError, RydcompError, ValidationError
from .gadgets import KINDS, make_gadget
from .parity import compile_parity, decode, decompose_all
from .physics import PhysicsConfig, diagonal_energy, mask_of, moving_energy, spectrum
from .problems import brute_force_optimum, evaluate, load_problem, parse_problem
from .programming import balance_open_ports, build_global_layout, displacement_shift, solve_bracketed

OUT_ENV = "RYDCOMP_OUT"

# figure-caption defaults: link-level work runs at ratio 3, the kite at 1.5,
# whole assemblies at 4
_GADGET_RATIO = {"kite": 1.5}
_DEFAULT_GADGET_RATIO = 3.0
_ASSEMBLY_RATIO = 4.0
_SWEEP_RANGES = {"dy": (-0.2, 0.5), "dx": (-0.2, 0.2)}


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation (flags merged with defaults)."""

    subcommand: str
    problem: str | None
    ratio: float | None
    link_length: int
    window: float  # fraction of the nearest-neighbour pair energy
    cap: int
    out: str
    seed: int
    param: str | None
    sweep_range: tuple | None
    steps: int
    trials: int


# ---------------------------------------------------------------------------
# link testbed for the sweep subcommand


@dataclass(frozen=True)
class LinkTestbed:
    """A link with fixed end anchors and one solved programming anchor.

    The end anchors sit at a deliberately unbalanced distance so the two
    logical states start split; the perpendicular anchor above the central
    atom is root-solved on the exact full-layout splitting, which therefore
    crosses zero at ``height``.  Sweeping the anchor height around that root
    reproduces the exact programming curve.
    """

    config: PhysicsConfig
    positions: np.ndarray  # chain atoms, two end anchors, programming anchor
    center_on: int  # full configuration with the central atom excited
    center_off: int  # full configuration with the central atom idle
    center_index: int
    anchor_index: int
    height: float


def build_link_testbed(config: PhysicsConfig, length: int = 5, *, end_distance: float = 1.45) -> LinkTestbed:
    if length < 5 or length % 2 == 0:
        raise ValidationError(f"sweep testbed needs an odd link length >= 5, got {length}")
    gadget = make_gadget("link", config=config, length=length)
    pos = gadget.positions
    d = config.spacing
    center = (length - 1) // 2
    ends = np.array(
        [pos[0] - (end_distance * d, 0.0), pos[-1] + (end_distance * d, 0.0)]
    )
    base = np.vstack([pos, ends])
    anchor_bits = mask_of(range(length, length + 3))
    on_states = [m for m in gadget.logical_states if (m >> center) & 1]
    center_on = on_states[0] | anchor_bits
    center_off = next(
        m for m in gadget.logical_states if not (m >> center) & 1
    ) | anchor_bits
    det = config.detuning
    x = float(pos[center, 0])
    top = np.vstack([base, [x, 0.5 * d]])
    e_on, e_off = (
        moving_energy(top, det, m, config.c6, (length + 2,))
        for m in (center_on, center_off)
    )

    def split(y):
        return e_on([(x, y)]) - e_off([(x, y)])

    height = solve_bracketed(split, 0.5 * d, 5.0 * d, tol=1e-13 * det)
    positions = np.vstack([base, [x, height]])
    return LinkTestbed(
        config, positions, center_on, center_off, center, length + 2, height
    )


def _guard_overlap(positions, spacing, label):
    pos = np.asarray(positions, dtype=float)
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    dist[np.diag_indices(len(pos))] = np.inf
    if dist.min() < 0.05 * spacing:
        raise GeometryError(f"sweep value {label} brings two atoms on top of each other")


def sweep_anchor_height(testbed: LinkTestbed, deltas, *, window_fraction: float):
    """Rows of the ``dy`` sweep: exact splitting next to its two models.

    The first-order model keeps only the anchor-to-central-atom pair; the
    second-order model adds the two chain neighbours.  Raw curves are
    emitted — consumers difference them against the row at the root.
    """
    cfg = testbed.config
    c6, d, unit = cfg.c6, cfg.spacing, cfg.energy_unit
    rows = []
    for k, delta in enumerate(deltas):
        y = testbed.height + delta
        pos = testbed.positions.copy()
        pos[testbed.anchor_index, 1] = y
        _guard_overlap(pos, d, f"dy={delta!r}")
        e_on = diagonal_energy(pos, cfg.detuning, testbed.center_on, c6)
        e_off = diagonal_energy(pos, cfg.detuning, testbed.center_off, c6)
        first = c6 / y**6
        second = first - 2.0 * c6 / (d * d + y * y) ** 3
        found = spectrum(pos, cfg.detuning, c6, window=window_fraction * unit)
        rows.append(
            (k, delta, y, e_on, e_off, e_on - e_off, first, second, len(found.entries))
        )
    return rows


HEIGHT_SWEEP_HEADER = (
    "index",
    "delta",
    "height",
    "energy_center_on",
    "energy_center_off",
    "split_exact",
    "split_first_order",
    "split_second_order",
    "states_in_window",
)


def sweep_displacement(config: PhysicsConfig, deltas, *, length: int = 5):
    """Rows of the ``dx`` sweep on a balanced link.

    One of the two atoms flanking the centre moves by ``delta`` towards its
    partner (their spacing is two lattice constants); the exact full-pair-sum
    change of the value splitting is emitted next to the leading
    closer-pair power-law term, whose steepness makes the response asymmetric
    in the sign of ``delta``.
    """
    if length < 5 or length % 2 == 0:
        raise ValidationError(f"displacement sweep needs an odd link length >= 5, got {length}")
    anchored = balance_open_ports(make_gadget("link", config=config, length=length), config)
    pos = anchored.positions
    center = (length - 1) // 2
    moved = center - 1
    masks = anchored.full_masks()
    moved_on = next(m for m in masks if (m >> moved) & 1)
    moved_off = next(m for m in masks if not (m >> moved) & 1)
    c6, d = config.c6, config.spacing
    gap = 2.0 * d
    rows = []
    for k, delta in enumerate(deltas):
        shifted = pos.copy()
        shifted[moved, 0] += delta
        _guard_overlap(shifted, d, f"dx={delta!r}")
        exact = displacement_shift(pos, moved_on, moved_off, moved, (1.0, 0.0), delta, c6)
        leading = c6 / (gap - delta) ** 6 - c6 / gap**6
        rows.append((k, delta, exact, leading))
    return rows


DISPLACEMENT_SWEEP_HEADER = ("index", "delta", "shift_exact", "shift_power_law")


# ---------------------------------------------------------------------------
# subcommands


def _physics(rc: RunConfig, default_ratio: float) -> PhysicsConfig:
    return PhysicsConfig(interaction_ratio=rc.ratio if rc.ratio is not None else default_ratio)


def _compiled_layout(rc: RunConfig, config: PhysicsConfig):
    problem = load_problem(rc.problem)
    program = decompose_all(compile_parity(problem))
    layout = build_global_layout(program, config, link_length=rc.link_length)
    return problem, program, layout


def _say(*parts) -> None:
    print(*parts)


def cmd_compile(rc: RunConfig) -> int:
    config = _physics(rc, _ASSEMBLY_RATIO)
    problem, _, layout = _compiled_layout(rc, config)
    doc = reports.layout_document(layout, link_length=rc.link_length)
    path = os.path.join(rc.out, "layout.json")
    reports.write_json(path, doc)
    lines = [
        f"problem: {problem.label} ({problem.n_vars} variables)",
        f"interaction ratio: {config.interaction_ratio}",
        f"atoms: {layout.n_comp} computational + {layout.n_anchors} anchors",
        f"logical states: {len(layout.logical)} (certified against the parity program)",
        f"layout: {path}",
    ]
    with open(os.path.join(rc.out, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        _say(line)
    return 0


def _parse_gadget_spec(text: str):
    """``link:7`` -> ("link", 7); bare kinds get their default size."""
    kind, _, tail = text.partition(":")
    kind = kind.strip().lower()
    if kind not in KINDS:
        raise ValidationError(
            f"{text!r} is neither a readable problem file nor a catalogue gadget {KINDS}"
        )
    if tail:
        if kind != "link":
            raise ValidationError(f"{kind} does not take a size")
        try:
            length = int(tail)
        except ValueError:
            raise ValidationError(f"bad link length {tail!r}") from None
        if length < 3 or length % 2 == 0:
            raise ValidationError(f"link length must be odd and at least 3, got {length}")
        return kind, length
    return kind, 5 if kind == "link" else None


def _verify_gadget(rc: RunConfig, kind: str, length) -> int:
    config = _physics(rc, _GADGET_RATIO.get(kind, _DEFAULT_GADGET_RATIO))
    gadget = make_gadget(kind, config=config, length=length)
    anchored = balance_open_ports(gadget, config)
    masks = anchored.full_masks()
    unit = config.energy_unit
    result = spectrum(
        anchored.positions,
        config.detuning,
        config.c6,
        window=rc.window * unit,
        cap=rc.cap,
        logical_masks=masks,
    )
    report = reports.verification_report(
        result,
        masks,
        anchored.anchor_mask,
        config,
        hashes={"gadget": reports.fingerprint(reports.gadget_document(anchored, config))},
    )
    band = report["logical_band"]
    complete = band is not None and band["count"] == len(masks)
    tight = complete and band["spread"] <= 1e-9 * unit
    verified = bool(
        report["ground_all_logical"] and report["anchors_excited"] and tight
    )
    report["verified"] = verified
    reports.write_json(os.path.join(rc.out, "report.json"), report)
    reports.write_spectrum_csv(os.path.join(rc.out, "spectrum.csv"), result, config)
    _say(f"gadget: {gadget.kind} ({gadget.n} atoms + {len(anchored.anchors)} anchors)")
    _say(f"states in window: {len(result.entries)}")
    if band is not None:
        _say(f"logical band: {band['count']}/{len(masks)} states, spread {band['spread']:.3e}")
    _say(f"ground states logical: {report['ground_all_logical']}")
    _say(f"anchors excited: {report['anchors_excited']}")
    _say("verified" if verified else "VERIFICATION FAILED")
    return 0 if verified else 4


def _decode_ground(entries, layout, program, problem, optimum):
    """Per-entry decode records, and whether every entry is logical and optimal."""
    state_by_config = {s.mask | layout.anchor_mask: s for s in layout.logical}
    records = []
    ok = True
    for entry in entries:
        state = state_by_config.get(entry.config)
        if state is None:
            records.append({"config": int(entry.config), "energy": entry.energy, "logical": False})
            ok = False
            continue
        bits = decode(program, state.values)
        value = evaluate(problem, bits)
        records.append(
            {
                "config": int(entry.config),
                "energy": entry.energy,
                "logical": True,
                "assignment": list(bits),
                "value": value,
            }
        )
        if value > optimum + 1e-9:
            ok = False
    return records, ok


def _verify_problem(rc: RunConfig) -> int:
    config = _physics(rc, _ASSEMBLY_RATIO)
    problem, program, layout = _compiled_layout(rc, config)
    masks = layout.full_masks()
    unit = config.energy_unit
    result = spectrum(
        layout.positions,
        layout.detunings,
        config.c6,
        window=rc.window * unit,
        cap=rc.cap,
        hint_configs=masks,
        logical_masks=masks,
    )
    doc = reports.layout_document(layout, link_length=rc.link_length)
    report = reports.verification_report(
        result, masks, layout.anchor_mask, config, hashes=doc["hashes"]
    )
    optimum, _ = brute_force_optimum(problem)
    ground = [e for e in result.entries if e.energy <= result.ground_energy + 1e-9 * unit]
    _, decode_ok = _decode_ground(ground, layout, program, problem, optimum)
    report["decode_consistent"] = decode_ok
    report["optimum"] = optimum
    verified = bool(
        report["ground_all_logical"] and report["anchors_excited"] and decode_ok
    )
    report["verified"] = verified
    reports.write_json(os.path.join(rc.out, "report.json"), report)
    reports.write_spectrum_csv(os.path.join(rc.out, "spectrum.csv"), result, config)
    band = report["logical_band"]
    _say(f"problem: {problem.label} ({layout.n_comp}+{layout.n_anchors} atoms)")
    _say(f"states in window: {len(result.entries)}")
    if band is not None:
        _say(f"logical band: {band['count']}/{len(masks)} states, spread {band['spread']:.3e}")
    if "gap_to_bulk" in report:
        _say(f"gap to first bulk state: {report['gap_to_bulk']:.3e}")
    _say(f"ground states logical: {report['ground_all_logical']}")
    _say(f"anchors excited: {report['anchors_excited']}")
    _say(f"decode consistent: {decode_ok}")
    _say("verified" if verified else "VERIFICATION FAILED")
    return 0 if verified else 4


def cmd_verify(rc: RunConfig) -> int:
    if os.path.exists(rc.problem):
        return _verify_problem(rc)
    return _verify_gadget(rc, *_parse_gadget_spec(rc.problem))


def _deltas(rc: RunConfig):
    lo, hi = rc.sweep_range
    if lo > hi:
        raise ValidationError(f"empty sweep range {lo}:{hi}")
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, rc.steps)


def cmd_sweep(rc: RunConfig) -> int:
    config = _physics(rc, _DEFAULT_GADGET_RATIO)
    deltas = _deltas(rc)
    if rc.param == "dy":
        testbed = build_link_testbed(config, rc.link_length)
        rows = sweep_anchor_height(testbed, deltas, window_fraction=rc.window)
        header = HEIGHT_SWEEP_HEADER
        path = os.path.join(rc.out, "sweep_dy.csv")
        _say(f"anchor equilibrium height: {testbed.height!r}")
    else:
        rows = sweep_displacement(config, deltas, length=rc.link_length)
        header = DISPLACEMENT_SWEEP_HEADER
        path = os.path.join(rc.out, "sweep_dx.csv")
    reports.write_csv(path, header, rows)
    _say(f"{len(rows)} rows: {path}")
    return 0


def _random_instance(problem, rng, scale: float):
    """Same family and shape, fresh coefficients uniform in [-scale, scale]."""
    if problem.family == "complete":
        pairs = [(i, j) for i in range(problem.n) for j in range(i + 1, problem.n)]
        linear = [[i, float(rng.uniform(-scale, scale))] for i in range(problem.n)]
    else:
        pairs = [
            (i, problem.n + j) for i in range(problem.n) for j in range(problem.m)
        ]
        linear = []
    quadratic = [[i, j, float(rng.uniform(-scale, scale))] for i, j in pairs]
    return parse_problem(
        {"family": problem.label, "linear": linear, "quadratic": quadratic}
    )


def cmd_endtoend(rc: RunConfig) -> int:
    config = _physics(rc, _ASSEMBLY_RATIO)
    template = load_problem(rc.problem)
    rng = np.random.default_rng(rc.seed)
    unit = config.energy_unit
    results = []
    matches = 0
    for t in range(rc.trials):
        problem = _random_instance(template, rng, 0.3 * config.detuning)
        program = decompose_all(compile_parity(problem))
        layout = build_global_layout(program, config, link_length=rc.link_length)
        masks = layout.full_masks()
        found = spectrum(
            layout.positions,
            layout.detunings,
            config.c6,
            window=1e-9 * unit,
            cap=rc.cap,
            hint_configs=masks,
            logical_masks=masks,
        )
        optimum, _ = brute_force_optimum(problem)
        ground, ok = _decode_ground(found.entries, layout, program, problem, optimum)
        matches += ok
        results.append(
            {
                "trial": t,
                "problem": problem.to_dict(),
                "optimum": optimum,
                "ground_energy": found.ground_energy,
                "n_ground": len(ground),
                "ground": ground,
                "match": ok,
            }
        )
        _say(f"trial {t}: {len(ground)} ground states, optimum {optimum!r}, "
             + ("match" if ok else "MISMATCH"))
    report = {
        "kind": "endtoend",
        "problem": template.to_dict(),
        "seed": rc.seed,
        "trials": rc.trials,
        "matches": matches,
        "match_rate": matches / rc.trials,
        "results": results,
    }
    reports.write_json(os.path.join(rc.out, "endtoend.json"), report)
    _say(f"match rate: {matches}/{rc.trials}")
    return 0 if matches == rc.trials else 4


_COMMANDS = {
    "compile": cmd_compile,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "endtoend": cmd_endtoend,
}


# ---------------------------------------------------------------------------
# argument handling


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydcomp",
        description="Compile binary optimization problems onto globally driven "
        "Rydberg atom layouts and verify them by exact enumeration.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, problem=None, window=True):
        if problem is not None:
            p.add_argument("--problem", required=True, help=problem)
        p.add_argument("--ratio", type=float, default=None,
                       help="nearest-neighbour pair energy over the detuning")
        p.add_argument("--link-length", type=int, default=5,
                       help="atoms per copy link (odd)")
        if window:
            p.add_argument("--window", type=float, default=0.02,
                           help="enumeration window as a fraction of the pair energy")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_ENV} or .)")

    p = sub.add_parser("compile", help="problem file -> layout document")
    common(p, problem="problem file (JSON)", window=False)

    p = sub.add_parser("verify", help="enumerate a layout and check its logical band")
    common(p, problem="problem file, or a catalogue gadget such as 'link:5' or 'kite'")

    p = sub.add_parser("sweep", help="response curve of one programming handle")
    common(p)
    p.add_argument("--param", choices=("dy", "dx"), required=True,
                   help="dy: anchor height, dx: atom displacement")
    p.add_argument("--range", default=None, metavar="LO:HI",
                   help="sweep interval in lattice spacings")
    p.add_argument("--steps", type=int, default=15)

    p = sub.add_parser("endtoend", help="randomized compile/enumerate/decode trials")
    common(p, problem="problem file used as the instance template", window=False)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _parse_range(text: str):
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValidationError(f"range must look like LO:HI, got {text!r}")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise ValidationError(f"range must look like LO:HI, got {text!r}") from None


def _run_config(args) -> RunConfig:
    out = args.out if args.out is not None else os.environ.get(OUT_ENV, ".")
    window = getattr(args, "window", 0.02)
    if window < 0:
        raise ValidationError("window must be non-negative")
    steps = getattr(args, "steps", 1)
    if steps < 1:
        raise ValidationError("steps must be at least 1")
    trials = getattr(args, "trials", 1)
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    link_length = args.link_length
    if link_length < 3 or link_length % 2 == 0:
        raise ValidationError(f"link length must be odd and at least 3, got {link_length}")
    param = getattr(args, "param", None)
    raw_range = getattr(args, "range", None)
    sweep_range = None
    if param is not None:
        sweep_range = _parse_range(raw_range) if raw_range else _SWEEP_RANGES[param]
    return RunConfig(
        subcommand=args.subcommand,
        problem=getattr(args, "problem", None),
        ratio=args.ratio,
        link_length=link_length,
        window=window,
        cap=200_000,
        out=out,
        seed=getattr(args, "seed", 0),
        param=param,
        sweep_range=sweep_range,
        steps=steps,
        trials=trials,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself: 0 for --help, 2 on usage
        return int(exc.code or 0)
    try:
        rc = _run_config(args)
        os.makedirs(rc.out, exist_ok=True)
        return _COMMANDS[rc.subcommand](rc)
    except (ProblemFormatError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RydcompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
