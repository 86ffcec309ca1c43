"""Command-line front end: compile layouts, verify spectra, sweep, decode.

Four subcommands cover the pipeline end to end:

``compile``
    problem file -> anchored layout document (JSON) + human-readable summary.
``verify``
    problem file *or* catalogue gadget name -> window enumeration of the full
    layout, spectrum CSV and a verification report (logical band, gap,
    anchors-excited and decode-consistency checks).
``sweep``
    move the one programming handle, the anchor height ``dy``, over absolute,
    positive heights above the middle atom of a coupling-free ``K_{1,1}``
    chain and emit the planner's service functional there next to its
    first- and second-order models, as CSV.
``endtoend``
    repeated randomized instances, each run through ``verify``'s problem
    check at its default window without writing its files: compile,
    enumerate, decode the ground states and compare them with the
    brute-force optimum.  Each trial records its ground states, whether
    they decode to the optimum (``match``), ``verify``'s verdict and the gap
    to the first bulk state; mismatches are reported in the result file,
    never raised.

Exit codes: 0 success, 2 invalid input, 3 pipeline failure (geometry, root
finding, enumeration budget), 4 verification failed.  All file outputs go to
``--out`` (default: ``$RYDCOMP_OUT`` or the working directory) and are
byte-stable for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import reports
from .assembly import assemble_layout
from .errors import ProblemFormatError, RydcompError, ValidationError
from .gadgets import KINDS, make_gadget
from .parity import compile_parity, decode, decompose_all
from .physics import PhysicsConfig, spectrum
from .problems import brute_force_optimum, evaluate, load_problem, parse_problem
from .programming import (
    _chain_normal, balance_open_ports, build_global_layout, service_functional
)

OUT_ENV = "RYDCOMP_OUT"

# figure-caption defaults: link-level work runs at ratio 3, the kite at 1.5,
# whole assemblies at 4
_GADGET_RATIO = {"kite": 1.5}
_DEFAULT_GADGET_RATIO = 3.0
_ASSEMBLY_RATIO = 4.0
_SWEEP_RANGE = (0.6, 3.0)  # anchor heights above the chain, in lattice spacings


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
    sweep_range: tuple
    steps: int
    trials: int


# ---------------------------------------------------------------------------
# the sweep subcommand's curve


def sweep_service(config: PhysicsConfig, length: int, heights):
    """Rows of the ``dy`` sweep: the planner's service curve next to its models.

    On the coupling-free ``K_{1,1}`` chain of ``length`` atoms, the probe
    anchor stands at each height (in spacings) on the chain normal through
    the middle atom, and :func:`programming.service_functional` gives the
    splitting it delivers: the curve ``plan_anchors`` root-solves for every
    anchor.  The first-order model keeps only the middle atom's pair, the
    second-order model adds its two neighbours, both signed by the middle
    atom's chain phase.
    """
    problem = parse_problem({"family": "K_{1,1}"})
    instance = assemble_layout(decompose_all(compile_parity(problem)), config, link_length=length)
    (name, ch), = instance.chains.items()
    mid = (length - 1) // 2
    ys = np.asarray(heights, dtype=float) * config.spacing
    probes = instance.positions[ch.atoms[mid]] + ys[:, None] * _chain_normal(instance, ch, mid)
    service = service_functional(instance, name).batch(probes)
    sign = 1.0 if ch.phases[mid] == 0 else -1.0
    c6, d = config.c6, config.spacing
    first = sign * c6 / ys**6
    second = first - sign * 2.0 * c6 / (d * d + ys * ys) ** 3
    return list(zip(range(len(ys)), heights, service, first, second))


HEIGHT_SWEEP_HEADER = ("index", "height", "service", "split_first_order", "split_second_order")


# ---------------------------------------------------------------------------
# subcommands


def _physics(rc: RunConfig, default_ratio: float) -> PhysicsConfig:
    return PhysicsConfig(interaction_ratio=rc.ratio if rc.ratio is not None else default_ratio)


def _compile(problem, rc: RunConfig, config: PhysicsConfig):
    program = decompose_all(compile_parity(problem))
    return program, build_global_layout(program, config, link_length=rc.link_length)


def _say(*parts) -> None:
    print(*parts)


def cmd_compile(rc: RunConfig) -> int:
    config = _physics(rc, _ASSEMBLY_RATIO)
    problem = load_problem(rc.problem)
    _, layout = _compile(problem, rc, config)
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


def _check_link_length(length: int) -> int:
    if length < 3 or length % 2 == 0:
        raise ValidationError(f"link length must be odd and at least 3, got {length}")
    return length


def _parse_gadget_spec(text: str):
    """``link:7`` -> ("link", 7); bare kinds get their default size.

    None when the text before any ``:`` names no catalogue kind.
    """
    kind, colon, tail = text.partition(":")
    kind = kind.strip().lower()
    if kind not in KINDS:
        return None
    if colon:
        if kind != "link":
            raise ValidationError(f"{kind} does not take a size")
        try:
            length = int(tail)
        except ValueError:
            raise ValidationError(f"bad link length {tail!r}") from None
        return kind, _check_link_length(length)
    return kind, 5 if kind == "link" else None


def _check_layout(rc, config, positions, masks, anchor_mask, check):
    """Enumerate a layout at ``rc.window`` and judge it: ``(result, report)``.

    A layout verifies when its ground states are logical with every anchor
    excited, the window lists the whole logical band untruncated and below
    every bulk state (a window too small for the band, or a spectrum cut at
    ``cap``, leaves states unseen), and the route's own ``check(result,
    report)`` holds; ``check`` may add its findings to the report.  The
    verdict is the report's ``verified``.
    """
    result = spectrum(
        positions,
        config.detuning,
        config.c6,
        window=rc.window * config.energy_unit,
        cap=rc.cap,
        hint_configs=masks,
        logical_masks=masks,
    )
    report = reports.verification_report(result, masks, anchor_mask, config)
    route_ok = check(result, report)
    band = report["logical_band"]
    report["verified"] = bool(
        report["ground_all_logical"]
        and report["anchors_excited"]
        and band is not None
        and band["count"] == len(masks)
        and not result.truncated
        and ("gap_to_bulk" not in report or report["gap_to_bulk"] > 0)
        and route_ok
    )
    return result, report


def _check_problem(rc, config, problem):
    """Compile, anchor and check one problem; decode its ground states.

    The route's check decodes every ground entry of the window against the
    brute-force optimum: ``decode_consistent`` holds when each is logical
    and optimal.  Returns the layout, the spectrum, the report and one
    record per ground entry.
    """
    program, layout = _compile(problem, rc, config)
    state_by_config = {s.mask | layout.anchor_mask: s for s in layout.logical}
    ground = []

    def decodes(result, report):
        optimum, _ = brute_force_optimum(problem)
        ok = True
        for entry in result.entries[: report["ground_degeneracy"]]:  # sorted by energy
            record = {"config": int(entry.config), "energy": entry.energy, "logical": False}
            state = state_by_config.get(entry.config)
            if state is None:
                ok = False
            else:
                bits = decode(program, state.values)
                value = evaluate(problem, bits)
                record.update(logical=True, assignment=list(bits), value=value)
                ok = ok and value <= optimum + 1e-9
            ground.append(record)
        report["decode_consistent"] = ok
        report["optimum"] = optimum
        return ok

    result, report = _check_layout(
        rc, config, layout.positions, layout.full_masks(), layout.anchor_mask, decodes
    )
    return layout, result, report, ground


def _write_verdict(rc, config, title, result, report) -> int:
    """Write ``verify``'s report and spectrum, print the verdict, give the exit code."""
    reports.write_json(os.path.join(rc.out, "report.json"), report)
    reports.write_spectrum_csv(os.path.join(rc.out, "spectrum.csv"), result, config)
    band = report["logical_band"]
    _say(title)
    _say(f"states in window: {len(result.entries)}")
    _say(f"largest block table: {result.peak_table} rows")
    if band is not None:
        spread = f"spread {band['spread']:.3e} (energy units)"
        _say(f"logical band: {band['count']}/{band['expected']} states, {spread}")
    if "gap_to_bulk" in report:
        _say(f"gap to first bulk state: {report['gap_to_bulk']:.3e} (energy units)")
    _say(f"ground states logical: {report['ground_all_logical']}")
    _say(f"anchors excited: {report['anchors_excited']}")
    if "decode_consistent" in report:
        _say(f"decode consistent: {report['decode_consistent']}")
    _say("verified" if report["verified"] else "VERIFICATION FAILED")
    return 0 if report["verified"] else 4


def _verify_gadget(rc: RunConfig, kind: str, length) -> int:
    config = _physics(rc, _GADGET_RATIO.get(kind, _DEFAULT_GADGET_RATIO))
    gadget = make_gadget(kind, config=config, length=length)
    anchored = balance_open_ports(gadget, config)

    def tight(result, report):
        band = report["logical_band"]
        return band is not None and band["spread"] <= 1e-9 * config.energy_unit

    result, report = _check_layout(
        rc, config, anchored.positions, anchored.full_masks(), anchored.anchor_mask, tight
    )
    report["hashes"] = {"gadget": reports.fingerprint(reports.gadget_document(anchored, config))}
    title = f"gadget: {gadget.kind} ({gadget.n} atoms + {len(anchored.anchors)} anchors)"
    return _write_verdict(rc, config, title, result, report)


def _verify_problem(rc: RunConfig) -> int:
    config = _physics(rc, _ASSEMBLY_RATIO)
    problem = load_problem(rc.problem)
    layout, result, report, _ = _check_problem(rc, config, problem)
    report["hashes"] = reports.layout_document(layout, link_length=rc.link_length)["hashes"]
    title = f"problem: {problem.label} ({layout.n_comp}+{layout.n_anchors} atoms)"
    return _write_verdict(rc, config, title, result, report)


def cmd_verify(rc: RunConfig) -> int:
    # a catalogue name wins over a same-named entry of the working directory
    spec = _parse_gadget_spec(rc.problem)
    if spec is not None:
        return _verify_gadget(rc, *spec)
    if os.path.exists(rc.problem):
        return _verify_problem(rc)
    raise ValidationError(
        f"{rc.problem!r} is neither a readable problem file nor a catalogue gadget {KINDS}"
    )


def _heights(rc: RunConfig):
    lo, hi = rc.sweep_range
    if lo <= 0:
        raise ValidationError(f"sweep heights must be positive, got {lo!r}:{hi!r}")
    if lo > hi:
        raise ValidationError(f"empty sweep range {lo}:{hi}")
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, rc.steps)


def cmd_sweep(rc: RunConfig) -> int:
    config = _physics(rc, _DEFAULT_GADGET_RATIO)
    rows = sweep_service(config, rc.link_length, _heights(rc))
    path = os.path.join(rc.out, "sweep_dy.csv")
    reports.write_csv(path, HEIGHT_SWEEP_HEADER, rows)
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
    results = []
    matches = 0
    for t in range(rc.trials):
        problem = _random_instance(template, rng, 0.3 * config.detuning)
        _, result, check, ground = _check_problem(rc, config, problem)
        ok = check["decode_consistent"]
        matches += ok
        results.append(
            {
                "trial": t,
                "problem": problem.to_dict(),
                "optimum": check["optimum"],
                "ground_energy": result.ground_energy,
                "n_ground": len(ground),
                "ground": ground,
                "match": ok,
                "verified": check["verified"],
                "gap_to_bulk": check.get("gap_to_bulk"),
            }
        )
        _say(f"trial {t}: {len(ground)} ground states, optimum {check['optimum']!r}, "
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
    common(p, problem="problem file, or a catalogue gadget such as 'link:5' or "
           "'kite'; a problem file named like a gadget is passed as './kite'")

    p = sub.add_parser("sweep", help="response curve of one programming handle")
    common(p, window=False)
    p.add_argument("--param", choices=("dy",), required=True,
                   help="the handle to sweep; dy, the anchor height, is the only one")
    p.add_argument("--range", default=None, metavar="LO:HI",
                   help="anchor heights above the chain, absolute and positive, in "
                   "lattice spacings (default 0.6:3.0)")
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
        bounds = float(lo), float(hi)
    except ValueError:
        raise ValidationError(f"range must look like LO:HI, got {text!r}") from None
    if not all(map(math.isfinite, bounds)):
        raise ValidationError(f"range bounds must be finite, got {text!r}")
    return bounds


def _run_config(args) -> RunConfig:
    out = args.out if args.out is not None else os.environ.get(OUT_ENV, ".")
    window = getattr(args, "window", 0.02)
    if not 0 <= window < math.inf:
        raise ValidationError(f"window must be finite and non-negative, got {window!r}")
    steps = getattr(args, "steps", 1)
    if steps < 1:
        raise ValidationError("steps must be at least 1")
    trials = getattr(args, "trials", 1)
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    link_length = _check_link_length(args.link_length)
    raw_range = getattr(args, "range", None)
    return RunConfig(
        subcommand=args.subcommand,
        problem=getattr(args, "problem", None),
        ratio=args.ratio,
        link_length=link_length,
        window=window,
        cap=200_000,
        out=out,
        seed=getattr(args, "seed", 0),
        sweep_range=_parse_range(raw_range) if raw_range else _SWEEP_RANGE,
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
    except (ProblemFormatError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RydcompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
