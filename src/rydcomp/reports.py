"""Machine-readable run artifacts: layout documents, reports, stable CSVs.

Everything here is deterministic serialization.  The same objects always
produce the same bytes — floats are rendered with ``repr`` (shortest
round-trip form), numpy leaves are written as the plain Python values they
hold, JSON keys are sorted, and CSV rows use a fixed field order with LF
line endings — so artifact files diff cleanly across runs and tests can
assert byte stability.

Documents carry provenance: SHA-256 fingerprints of the problem, the atom
coordinates and the three weight vectors (bare, tail-compensated,
homogenised), computed over the canonical JSON form.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np

from .parity import decode
from .physics import bitstring

# ---------------------------------------------------------------------------
# canonical serialization


def plain(obj):
    """Recursively convert numpy arrays/scalars to plain Python values."""
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        return [plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _numpy_leaf(obj):
    """``json``'s hook for what it cannot encode: numpy leaves and arrays.

    ``np.float64`` subclasses ``float`` and never reaches the hook; json
    renders it with ``float.__repr__``, as it would ``plain``'s float.
    """
    out = plain(obj)
    if out is obj:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return out


def canonical_json(doc) -> str:
    """Compact JSON with sorted keys — the hashing/normal form."""
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_numpy_leaf
    )


def fingerprint(doc) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``doc``."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=_numpy_leaf))
        fh.write("\n")


def fmt(value) -> str:
    """One CSV cell: shortest round-trip decimal for floats, 0/1 for bools."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Byte-stable CSV: fixed header, ``fmt`` cells, LF line terminator."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


# ---------------------------------------------------------------------------
# layout documents


def _physics_section(config) -> dict:
    return {
        "interaction_ratio": config.interaction_ratio,
        "spacing": config.spacing,
        "detuning": config.detuning,
        "rabi": config.rabi,
        "c6": config.c6,
        "blockade_radius": config.blockade_radius,
        "energy_unit": config.energy_unit,
    }


def _atom_table(positions, owners, anchors):
    """A document's atom rows and the fingerprint of their positions.

    Computational atoms come first, one per row of ``positions`` with its
    owning gadget from ``owners``; then one row per ``(position, fields)``
    of ``anchors``, with the anchor's own ``fields`` after the shared ones.
    """
    atoms = [
        {"id": i, "x": x, "y": y, "kind": "computational", "gadget": g}
        for i, ((x, y), g) in enumerate(zip(positions.tolist(), owners))
    ]
    for position, fields in anchors:
        x, y = (float(c) for c in position)
        atoms.append(
            {"id": len(atoms), "x": x, "y": y, "kind": "anchor", "gadget": None, **fields}
        )
    return atoms, fingerprint([[a["x"], a["y"]] for a in atoms])


def layout_document(layout, *, link_length) -> dict:
    """Full description of a programmed layout, ready for ``write_json``.

    Contains the atom table (computational atoms first, then anchors, each
    with its owning gadget or served variable), the physics scales, the
    decode map (one entry per logical state, with the problem assignment it
    reads back as), the three weight vectors and provenance fingerprints.
    """
    inst = layout.instance
    program = inst.program
    owner = {}
    for k, element in enumerate(inst.elements):
        for g in element.nodes:
            owner.setdefault(g, k)

    atoms, positions = _atom_table(
        inst.positions,
        [owner[i] for i in range(layout.n_comp)],
        [
            (
                anchor.position,
                {
                    "serves": list(anchor.variable),
                    "style": anchor.style,
                    "base_atom": anchor.base_atom,
                    "target": float(anchor.target),
                },
            )
            for anchor in layout.anchors
        ],
    )

    states = [
        {
            "config": int(s.mask),
            "values": list(s.values),
            "assignment": list(decode(program, s.values)),
        }
        for s in layout.logical
    ]
    weights = {
        "bare": [float(w) for w in inst.weights],
        "compensated": [float(w) for w in layout.w1],
        "homogenized": [float(w) for w in layout.w2],
    }
    gadget_table = [
        {"id": k, "kind": e.kind, "nodes": list(e.nodes)}
        for k, e in enumerate(inst.elements)
    ]
    doc = {
        "kind": "layout",
        "problem": program.problem.to_dict(),
        "physics": _physics_section(inst.config),
        "link_length": link_length,
        "n_computational": layout.n_comp,
        "n_anchors": layout.n_anchors,
        "atoms": atoms,
        "gadgets": gadget_table,
        "variables": [
            {
                "name": list(v.name),
                "support": list(v.support),
                "field": float(v.field),
                "complemented": bool(v.complemented),
            }
            for v in program.variables
        ],
        "logical_states": states,
        "weights": weights,
    }
    doc["hashes"] = {
        "problem": fingerprint(doc["problem"]),
        "positions": positions,
        "weights": fingerprint(weights),
        "document": fingerprint(doc),
    }
    return doc


def gadget_document(anchored, config) -> dict:
    """Description of one free-standing anchored gadget."""
    gadget = anchored.gadget
    atoms, positions = _atom_table(
        gadget.positions,
        [0] * gadget.n,
        [
            (position, {"serves": [port], "distance": float(distance)})
            for port, position, distance in anchored.anchors
        ],
    )
    doc = {
        "kind": "gadget",
        "gadget_kind": gadget.kind,
        "physics": _physics_section(config),
        "n_computational": gadget.n,
        "n_anchors": len(anchored.anchors),
        "atoms": atoms,
        "weights": {"homogenized": [float(w) for w in anchored.w2]},
        "logical_states": [
            {"config": int(m)} for m in anchored.full_masks()
        ],
    }
    doc["hashes"] = {
        "positions": positions,
        "document": fingerprint(doc),
    }
    return doc


# ---------------------------------------------------------------------------
# verification reports


def verification_report(result, logical_masks, anchor_mask, config, *, hashes=None):
    """Summarise one window enumeration against the intended logical set.

    ``result`` is a :class:`~rydcomp.physics.SpectrumResult` over the full
    layout, ``logical_masks`` the intended full configurations (anchors
    included) and ``anchor_mask`` the always-excited atoms.  The gap from
    the top logical state to the first bulk state is reported only when the
    window lists both.  Decode consistency is the caller's to assert (it
    needs the problem oracle); fill it in on the returned dict.
    """
    unit = config.energy_unit
    marks = set(int(m) for m in logical_masks)
    band = [e.energy for e in result.entries if e.config in marks]
    bulk = [e.energy for e in result.entries if e.config not in marks]
    e0 = result.ground_energy
    ground = [e for e in result.entries if e.energy <= e0 + 1e-9 * unit]
    report = {
        "kind": "verification",
        "n_atoms": result.n_atoms,
        "window": result.window,
        "truncated": result.truncated,
        "n_states": len(result.entries),
        "energy_unit": unit,
        "ground_energy": e0,
        "ground_degeneracy": len(ground),
        "ground_all_logical": all(e.config in marks for e in ground),
        "anchors_excited": all(
            e.config & anchor_mask == anchor_mask for e in ground
        ),
        "logical_band": None,
    }
    if band:
        lo, hi = min(band), max(band)
        report["logical_band"] = {
            "count": len(band),
            "expected": len(marks),
            "min": lo,
            "max": hi,
            "spread": hi - lo,
            "spread_over_unit": (hi - lo) / unit,
        }
    if band and bulk:
        report["gap_to_bulk"] = min(bulk) - max(band)
    report["hashes"] = dict(hashes or {})
    return report


def write_spectrum_csv(path, result, config) -> None:
    """One row per enumerated configuration, lowest energy first."""
    e0 = result.ground_energy
    unit = config.energy_unit
    rows = (
        (
            k,
            entry.energy,
            (entry.energy - e0) / unit,
            bitstring(entry.config, result.n_atoms),
            entry.logical,
        )
        for k, entry in enumerate(result.entries)
    )
    write_csv(
        path,
        ("index", "energy", "excitation_over_unit", "config", "logical"),
        rows,
    )
