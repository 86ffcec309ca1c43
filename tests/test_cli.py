"""Artifact serialization and the command-line front end.

Everything the CLI writes must be byte-stable for a fixed seed and
configuration, and exit codes must separate bad input (2), pipeline
failures (3) and failed verification (4) from success (0).
"""

import hashlib
import json
import os

import numpy as np
import pytest

from rydcomp import cli, reports
from rydcomp.parity import compile_parity, decompose_all
from rydcomp.physics import PhysicsConfig, SpectrumEntry, SpectrumResult
from rydcomp.problems import parse_problem
from rydcomp.programming import build_global_layout


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return cli.main([*argv, "--out", str(out)]), out


def problem_file(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


K1 = {"family": "K_1"}
K2 = {"family": "K_2", "quadratic": [[0, 1, 0.25]]}


# ---------------------------------------------------------------------------
# serialization primitives


class TestSerialization:
    def test_plain_strips_numpy(self):
        doc = {"a": np.float64(1.5), "b": np.arange(3), "c": (np.True_, 2)}
        assert reports.plain(doc) == {"a": 1.5, "b": [0, 1, 2], "c": [True, 2]}

    NUMPY_DOC = {
        "f64": np.float64(0.1),
        "f32": np.float32(1.0 / 3.0),
        "i64": np.int64(-7),
        "u8": np.uint8(200),
        "flag": np.bool_(False),
        "tiny": np.float64(5e-324),
        "neg0": np.float64(-0.0),
        "rows": np.linspace(0.0, 1.0, 7).reshape(7, 1),
        "mask": np.array([True, False, True]),
        "ints": np.arange(4, dtype=np.int32),
        "nested": [(np.float64(2.0) / 3.0, 1.5), {"z": np.True_, "a": None}],
        "text": "kite",
    }

    def test_json_forms_match_plain_bytes(self, tmp_path):
        doc = self.NUMPY_DOC
        compact = json.dumps(
            reports.plain(doc), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        assert reports.canonical_json(doc) == compact
        path = tmp_path / "doc.json"
        reports.write_json(path, doc)
        indented = json.dumps(reports.plain(doc), sort_keys=True, indent=2, allow_nan=False)
        assert path.read_bytes() == (indented + "\n").encode()

    def test_json_forms_refuse_what_plain_leaves(self, tmp_path):
        for leaf in (object(), np.complex128(1j)):
            with pytest.raises(TypeError, match="not JSON serializable"):
                reports.canonical_json({"x": [leaf]})
            with pytest.raises(TypeError, match="not JSON serializable"):
                reports.write_json(tmp_path / "x.json", {"x": leaf})
        with pytest.raises(ValueError):
            reports.canonical_json({"x": np.float64("nan")})

    def test_canonical_json_sorts_keys(self):
        assert reports.canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_fingerprint_is_sha256_of_canonical_form(self):
        doc = {"x": [1.5, 2], "name": "probe"}
        expected = hashlib.sha256(
            json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert reports.fingerprint(doc) == expected

    def test_fmt_round_trips_floats(self):
        for x in (1.0, -0.1, 1e-17, 2.0 / 3.0, 123456.789):
            assert float(reports.fmt(x)) == x
        assert reports.fmt(np.float64(0.25)) == "0.25"
        assert reports.fmt(True) == "1"
        assert reports.fmt(7) == "7"

    def test_write_csv_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        reports.write_csv(path, ("a", "b"), [(1, 0.5), (2, -1.0 / 3.0)])
        assert path.read_bytes() == b"a,b\n1,0.5\n2,-0.3333333333333333\n"

    def test_write_json_stable(self, tmp_path):
        doc = {"z": [1, 2], "a": {"nested": 0.1}}
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        reports.write_json(p1, doc)
        reports.write_json(p2, json.loads(p1.read_text()))
        assert p1.read_bytes() == p2.read_bytes()


class TestVerificationReport:
    CFG = PhysicsConfig(interaction_ratio=3.0)

    def result(self, energies_and_masks, window=1.0):
        entries = [SpectrumEntry(e, m) for e, m in energies_and_masks]
        return SpectrumResult(entries, False, window, 4)

    def test_gap_only_when_bulk_in_window(self):
        anchor = 0b1000
        logical = (0b1001, 0b1010)
        only_band = self.result([(-2.0, 0b1001), (-2.0, 0b1010)])
        rep = reports.verification_report(only_band, logical, anchor, self.CFG)
        assert "gap_to_bulk" not in rep
        assert rep["logical_band"]["spread"] == 0.0

        with_bulk = self.result([(-2.0, 0b1001), (-2.0, 0b1010), (-1.4, 0b1100)])
        rep = reports.verification_report(with_bulk, logical, anchor, self.CFG)
        assert rep["gap_to_bulk"] == pytest.approx(0.6)
        assert rep["ground_all_logical"] and rep["anchors_excited"]

        # bulk states but no logical one: no band, so no gap above it either
        only_bulk = self.result([(-2.0, 0b1100), (-1.4, 0b0110)])
        rep = reports.verification_report(only_bulk, logical, anchor, self.CFG)
        assert rep["logical_band"] is None
        assert "gap_to_bulk" not in rep

    def test_anchor_and_logical_flags_fail_correctly(self):
        anchor = 0b1000
        logical = (0b1001, 0b1010)
        dark = self.result([(-3.0, 0b0110), (-2.0, 0b1001)])
        rep = reports.verification_report(dark, logical, anchor, self.CFG)
        assert not rep["ground_all_logical"]
        assert not rep["anchors_excited"]
        assert rep["ground_degeneracy"] == 1


# ---------------------------------------------------------------------------
# subcommands, via main()


class TestCompile:
    def test_layout_document(self, tmp_path):
        code, out = run(tmp_path, "compile", "--problem", problem_file(tmp_path, K1))
        assert code == 0
        doc = json.loads((out / "layout.json").read_text())
        assert doc["kind"] == "layout"
        assert doc["n_computational"] == 5 and doc["n_anchors"] == 2
        kinds = [a["kind"] for a in doc["atoms"]]
        assert kinds == ["computational"] * 5 + ["anchor"] * 2
        assert len(doc["logical_states"]) == 2
        assert sorted(s["assignment"] for s in doc["logical_states"]) == [[0], [1]]
        assert set(doc["hashes"]) == {"problem", "positions", "weights", "document"}
        assert (out / "summary.txt").read_text().startswith("problem: K_1")

    def test_document_hash_is_reproducible(self, tmp_path):
        path = problem_file(tmp_path, K2)
        _, out1 = run(tmp_path / "a", "compile", "--problem", path)
        _, out2 = run(tmp_path / "b", "compile", "--problem", path)
        assert (out1 / "layout.json").read_bytes() == (out2 / "layout.json").read_bytes()

    def test_missing_file_is_validation_error(self, tmp_path):
        code, _ = run(tmp_path, "compile", "--problem", str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_file_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run(tmp_path, "compile", "--problem", str(path))
        assert code == 2

    def test_unsupported_family_is_pipeline_error(self, tmp_path):
        # parses and compiles to parity fine; geometric assembly refuses K_3
        code, _ = run(tmp_path, "compile", "--problem", problem_file(tmp_path, {"family": "K_3"}))
        assert code == 3


class TestVerify:
    def test_gadget_route_link(self, tmp_path, capsys):
        code, out = run(tmp_path, "verify", "--problem", "link:3")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verified"]
        assert report["logical_band"]["count"] == 2
        assert report["logical_band"]["spread"] <= 1e-9 * report["energy_unit"]
        assert report["anchors_excited"] and report["ground_all_logical"]
        printed = capsys.readouterr().out
        assert "verified" in printed
        # five atoms (three plus two anchors) make one block of 32 rows,
        # which the single-flip rule cuts to 2; the size is reported on
        # stdout but not in report.json
        assert report["n_atoms"] == 5
        assert "largest block table: 2 rows" in printed.splitlines()
        assert "peak_table" not in report
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "index,energy,excitation_over_unit,config,logical"
        # both logical states lead the spectrum, flagged in the last column
        assert [row.split(",")[-1] for row in lines[1:3]] == ["1", "1"]

    def test_gadget_route_chain_table_size(self, tmp_path, capsys):
        # the benchmark's spectrum workload enumerates this chain; a prune
        # change that moves its largest table shows here first
        code, _ = run(tmp_path, "verify", "--problem", "link:37")
        assert code == 0
        assert "largest block table: 28 rows" in capsys.readouterr().out.splitlines()

    def test_gadget_route_prints_gap(self, tmp_path, capsys):
        # the fork's window holds two bulk states above its band
        code, out = run(tmp_path, "verify", "--problem", "fork")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verified"] and report["gap_to_bulk"] > 0
        printed = capsys.readouterr().out.splitlines()
        assert f"gap to first bulk state: {report['gap_to_bulk']:.3e} (energy units)" in printed
        assert printed[-1] == "verified"

    def test_gadget_route_defaults_kite_ratio(self, tmp_path):
        code, out = run(tmp_path, "verify", "--problem", "kite")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["energy_unit"] == pytest.approx(1.5)
        assert report["verified"] and report["logical_band"]["count"] == 4

    def test_problem_route_decodes(self, tmp_path):
        # the coupling puts one logical state 0.1 detunings up, above the
        # default window; the window must hold the whole band to verify, and
        # the first bulk state in it lies 0.165 above the band
        k2 = {"family": "K_2", "quadratic": [[0, 1, 0.1]]}
        code, out = run(
            tmp_path, "verify", "--problem", problem_file(tmp_path, k2), "--window", "0.1"
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verified"] and report["decode_consistent"]
        assert report["gap_to_bulk"] > 0
        assert report["optimum"] == 0.0

    def test_bulk_state_inside_band_fails(self, tmp_path, capsys):
        # at coupling 0.25 the window holds the whole band, but a bulk state
        # lies 0.09 below its top logical state: the band is not the ground band
        code, out = run(
            tmp_path, "verify", "--problem", problem_file(tmp_path, K2), "--window", "0.1"
        )
        assert code == 4
        assert "VERIFICATION FAILED" in capsys.readouterr().out.splitlines()
        report = json.loads((out / "report.json").read_text())
        assert report["logical_band"]["count"] == 4
        assert report["gap_to_bulk"] < 0
        assert report["ground_all_logical"] and report["decode_consistent"]
        assert not report["verified"]

    def test_incomplete_band_fails(self, tmp_path, capsys):
        # a window narrower than the band lists only 4 of the 8 logical states
        k22 = problem_file(tmp_path, {"family": "K_{2,2}"})
        code, out = run(tmp_path, "verify", "--problem", k22, "--window", "0.00005")
        assert code == 4
        assert "VERIFICATION FAILED" in capsys.readouterr().out.splitlines()
        report = json.loads((out / "report.json").read_text())
        assert report["logical_band"]["count"] == 4
        assert report["ground_all_logical"] and report["decode_consistent"]
        assert not report["verified"]

    def test_truncated_spectrum_fails(self, tmp_path):
        # each cap keeps the whole band but cuts the spectrum short: the
        # fork's window holds its 2 logical states and 2 bulk states, and
        # K_{2,2}'s default window its 8 logical states among 24
        k22 = problem_file(tmp_path, {"family": "K_{2,2}"})
        for route, spec, cap, band in (("gadget", "fork", 3, 2), ("problem", k22, 10, 8)):
            out = tmp_path / route
            rc = cli.RunConfig(
                subcommand="verify",
                problem=spec,
                ratio=None,
                link_length=5,
                window=0.02,
                cap=cap,
                out=str(out),
                seed=0,
                sweep_range=(0.0, 0.0),
                steps=1,
                trials=1,
            )
            out.mkdir()
            assert cli.cmd_verify(rc) == 4, route
            report = json.loads((out / "report.json").read_text())
            assert report["truncated"] and report["logical_band"]["count"] == band
            assert not report["verified"]

    @pytest.mark.parametrize("spec", ["hexagon", "link:4", "link:2", "link:", "kite:"])
    def test_bad_gadget_spec(self, tmp_path, spec):
        code, _ = run(tmp_path, "verify", "--problem", spec)
        assert code == 2

    @pytest.mark.parametrize(
        "spec, message",
        [("link:", "bad link length ''"), ("kite:", "kite does not take a size")],
    )
    def test_empty_gadget_size_is_named(self, tmp_path, capsys, spec, message):
        # a ':' with nothing after it is a size, not the default one
        code, _ = run(tmp_path, "verify", "--problem", spec)
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"

    def test_sized_non_link_gadget_rejected(self, tmp_path):
        code, _ = run(tmp_path, "verify", "--problem", "kite:4")
        assert code == 2

    @pytest.mark.parametrize("spec, code", [("kite", 0), ("fork", 0), ("./fork", 2)])
    def test_catalogue_name_wins_over_working_directory(
        self, tmp_path, monkeypatch, capsys, spec, code
    ):
        # here `kite` names a directory and `fork` a file holding {}; a bare
        # catalogue name still verifies the gadget, and `./fork` reads the file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kite").mkdir()
        (tmp_path / "fork").write_text("{}")
        assert run(tmp_path, "verify", "--problem", spec)[0] == code
        if code:
            assert "problem needs a 'family'" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["nan", "inf", "-0.01"])
    def test_bad_window_is_validation_error(self, tmp_path, capsys, window):
        code, out = run(tmp_path, "verify", "--problem", "link:3", "--window", window)
        assert code == 2
        assert "window must be finite and non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_oracle_returns_verification_exit(self, tmp_path, monkeypatch):
        # an oracle that calls everything suboptimal must flip the decode flag
        monkeypatch.setattr(cli, "brute_force_optimum", lambda p: (-1e9, ()))
        code, out = run(tmp_path, "verify", "--problem", problem_file(tmp_path, K1))
        assert code == 4
        report = json.loads((out / "report.json").read_text())
        assert not report["verified"] and not report["decode_consistent"]


def sweep_rows(out):
    """The data rows of the sweep CSV, as floats."""
    lines = (out / "sweep_dy.csv").read_text().splitlines()
    return [list(map(float, line.split(","))) for line in lines[1:]]


class TestSweep:
    def test_height_sweep_rows(self, tmp_path):
        code, out = run(
            tmp_path, "sweep", "--param", "dy", "--range=0.6:1.8", "--steps", "5"
        )
        assert code == 0
        rows = (out / "sweep_dy.csv").read_text().splitlines()
        assert rows[0] == ",".join(cli.HEIGHT_SWEEP_HEADER)
        heights = [row[1] for row in sweep_rows(out)]
        assert heights == pytest.approx([0.6, 0.9, 1.2, 1.5, 1.8])

    def test_zero_length_range_single_row(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--param", "dy", "--range", "0.1:0.1")
        assert code == 0
        rows = (out / "sweep_dy.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[0] == ",".join(cli.HEIGHT_SWEEP_HEADER)

    def test_byte_stability(self, tmp_path):
        _, out1 = run(tmp_path / "a", "sweep", "--param", "dy", "--range=0.5:2.5", "--steps", "7")
        _, out2 = run(tmp_path / "b", "sweep", "--param", "dy", "--range=0.5:2.5", "--steps", "7")
        assert (out1 / "sweep_dy.csv").read_bytes() == (out2 / "sweep_dy.csv").read_bytes()

    def test_anchor_height_is_the_only_handle(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--param", "dx")
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("bounds", ["0:1", "-1.31:-1.31", "-0.1:0.1"])
    def test_nonpositive_height_is_validation_error(self, tmp_path, capsys, bounds):
        # at height 0 the probe would sit on the middle atom
        code, _ = run(tmp_path, "sweep", "--param", "dy", f"--range={bounds}")
        assert code == 2
        assert "sweep heights must be positive" in capsys.readouterr().err

    def test_bad_range_or_steps(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "--param", "dy", "--range", "0.5")
        assert code == 2
        code, _ = run(tmp_path, "sweep", "--param", "dy", "--range", "0.5:0.1")
        assert code == 2
        code, _ = run(tmp_path, "sweep", "--param", "dy", "--steps", "0")
        assert code == 2
        for bad in ("nan:0.1", "0:inf", "-inf:0"):
            code, _ = run(tmp_path, "sweep", "--param", "dy", f"--range={bad}")
            assert code == 2, bad

    def test_even_link_length_rejected(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "--param", "dy", "--link-length", "4")
        assert code == 2

    @pytest.mark.parametrize("ratio", [1.5, 2.0, 3.0, 4.0, 5.0, 6.0])
    @pytest.mark.parametrize("length", [3, 5, 7, 9, 11])
    def test_every_odd_length_runs(self, tmp_path, length, ratio):
        # close in, the curve's sign is the middle atom's chain phase, and
        # the neighbours' pairs bring the second-order model closer
        code, out = run(
            tmp_path, "sweep", "--param", "dy", "--link-length", str(length),
            "--ratio", str(ratio), "--range=0.6:3.0", "--steps", "9",
        )
        assert code == 0
        rows = sweep_rows(out)
        sign = 1.0 if (length - 1) // 2 % 2 == 0 else -1.0
        assert rows[0][1] == 0.6
        assert np.sign(rows[0][2:]).tolist() == [sign] * 3  # service and both models
        close = [r for r in rows if r[1] <= 1.2 + 1e-9]
        assert len(close) == 3
        for _, _, service, first, second in close:
            assert abs(second - service) < abs(first - service)

    def test_curve_gives_the_planned_anchor_share(self, tmp_path):
        # the raise anchor plan_anchors puts over the middle atom of a
        # coupled K_{1,1} chain delivers its target, read off the sweep
        config = PhysicsConfig(interaction_ratio=4.0)
        program = decompose_all(compile_parity(parse_problem(
            {"family": "K_{1,1}", "quadratic": [[0, 1, 0.1]]}
        )))
        layout = build_global_layout(program, config, link_length=5)
        (anchor,) = [a for a in layout.anchors if a.style == "raise"]
        assert anchor.base_atom == 2
        offset = np.subtract(anchor.position, layout.instance.positions[2])
        height = float(np.hypot(*offset)) / config.spacing
        assert height == pytest.approx(1.578, abs=1e-3)
        code, out = run(
            tmp_path, "sweep", "--param", "dy", "--ratio", "4",
            f"--range={height!r}:{height!r}",
        )
        assert code == 0
        ((_, h, service, _, _),) = sweep_rows(out)
        assert h == height
        assert abs(service - anchor.target) <= 1e-12 * config.detuning


class TestEndToEnd:
    def test_matches_and_is_stable(self, tmp_path):
        path = problem_file(tmp_path, K2)
        code, out1 = run(tmp_path / "a", "endtoend", "--problem", path, "--trials", "2", "--seed", "5")
        assert code == 0
        code, out2 = run(tmp_path / "b", "endtoend", "--problem", path, "--trials", "2", "--seed", "5")
        assert code == 0
        assert (out1 / "endtoend.json").read_bytes() == (out2 / "endtoend.json").read_bytes()
        doc = json.loads((out1 / "endtoend.json").read_text())
        assert doc["match_rate"] == 1.0
        assert len(doc["results"]) == 2
        for trial in doc["results"]:
            assert trial["match"]
            for state in trial["ground"]:
                assert state["logical"]
                assert state["value"] == pytest.approx(trial["optimum"], abs=1e-9)

    def test_trials_agree_with_verify(self, tmp_path):
        # each trial runs verify's problem check: verify on the trial's own
        # problem file gives the same verdict, gap and decode
        path = problem_file(tmp_path, K2)
        code, out = run(tmp_path, "endtoend", "--problem", path, "--trials", "2", "--seed", "5")
        assert code == 0
        doc = json.loads((out / "endtoend.json").read_text())
        for trial in doc["results"]:
            name = f"trial{trial['trial']}"
            trial_path = problem_file(tmp_path, trial["problem"], f"{name}.json")
            _, vout = run(tmp_path / name, "verify", "--problem", trial_path)
            report = json.loads((vout / "report.json").read_text())
            assert trial["verified"] == report["verified"]
            assert trial["gap_to_bulk"] == report.get("gap_to_bulk")
            assert trial["match"] == report["decode_consistent"]
            assert trial["optimum"] == report["optimum"]
            assert trial["n_ground"] == report["ground_degeneracy"]

    def test_different_seed_changes_draws(self, tmp_path):
        path = problem_file(tmp_path, K2)
        _, out1 = run(tmp_path / "a", "endtoend", "--problem", path, "--trials", "1", "--seed", "1")
        _, out2 = run(tmp_path / "b", "endtoend", "--problem", path, "--trials", "1", "--seed", "2")
        d1 = json.loads((out1 / "endtoend.json").read_text())
        d2 = json.loads((out2 / "endtoend.json").read_text())
        assert d1["results"][0]["problem"] != d2["results"][0]["problem"]


class TestPlumbing:
    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0

    def test_unknown_flag_exits_two(self):
        assert cli.main(["verify", "--problem", "link:3", "--wat"]) == 2

    def test_out_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envout"))
        code = cli.main(["sweep", "--param", "dy", "--range", "0.1:0.1"])
        assert code == 0
        assert (tmp_path / "envout" / "sweep_dy.csv").exists()

    def test_bad_ratio_exits_two(self, tmp_path):
        code, _ = run(tmp_path, "verify", "--problem", "link:3", "--ratio", "0.5")
        assert code == 2

    def test_console_entry_point_matches(self):
        from rydcomp.__main__ import main as entry

        assert entry is cli.main
