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
from rydcomp.errors import ValidationError
from rydcomp.physics import PhysicsConfig, SpectrumEntry, SpectrumResult


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
        assert "verified" in capsys.readouterr().out
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "index,energy,excitation_over_unit,config,logical"
        # both logical states lead the spectrum, flagged in the last column
        assert [row.split(",")[-1] for row in lines[1:3]] == ["1", "1"]

    def test_gadget_route_defaults_kite_ratio(self, tmp_path):
        code, out = run(tmp_path, "verify", "--problem", "kite")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["energy_unit"] == pytest.approx(1.5)
        assert report["verified"] and report["logical_band"]["count"] == 4

    def test_problem_route_decodes(self, tmp_path):
        code, out = run(tmp_path, "verify", "--problem", problem_file(tmp_path, K2))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verified"] and report["decode_consistent"]
        assert report["optimum"] == 0.0

    @pytest.mark.parametrize("spec", ["hexagon", "link:4", "link:2"])
    def test_bad_gadget_spec(self, tmp_path, spec):
        code, _ = run(tmp_path, "verify", "--problem", spec)
        assert code == 2

    def test_sized_non_link_gadget_rejected(self, tmp_path):
        code, _ = run(tmp_path, "verify", "--problem", "kite:4")
        assert code == 2

    def test_failed_oracle_returns_verification_exit(self, tmp_path, monkeypatch):
        # an oracle that calls everything suboptimal must flip the decode flag
        monkeypatch.setattr(cli, "brute_force_optimum", lambda p: (-1e9, ()))
        code, out = run(tmp_path, "verify", "--problem", problem_file(tmp_path, K1))
        assert code == 4
        report = json.loads((out / "report.json").read_text())
        assert not report["verified"] and not report["decode_consistent"]


class TestSweep:
    def test_height_sweep_crosses_at_root(self, tmp_path):
        code, out = run(
            tmp_path, "sweep", "--param", "dy", "--range=-0.1:0.1", "--steps", "5"
        )
        assert code == 0
        rows = (out / "sweep_dy.csv").read_text().splitlines()
        assert rows[0] == ",".join(cli.HEIGHT_SWEEP_HEADER)
        assert len(rows) == 6
        mid = rows[3].split(",")
        assert float(mid[1]) == 0.0
        assert abs(float(mid[5])) <= 1e-9 * 3.0  # split_exact at the solved root

    def test_zero_length_range_single_row(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--param", "dx", "--range", "0.1:0.1")
        assert code == 0
        rows = (out / "sweep_dx.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[0] == ",".join(cli.DISPLACEMENT_SWEEP_HEADER)

    def test_byte_stability(self, tmp_path):
        _, out1 = run(tmp_path / "a", "sweep", "--param", "dx", "--range=-0.15:0.15", "--steps", "7")
        _, out2 = run(tmp_path / "b", "sweep", "--param", "dx", "--range=-0.15:0.15", "--steps", "7")
        assert (out1 / "sweep_dx.csv").read_bytes() == (out2 / "sweep_dx.csv").read_bytes()

    def test_displacement_asymmetry_visible(self, tmp_path):
        code, out = run(
            tmp_path, "sweep", "--param", "dx", "--range=-0.2:0.2", "--steps", "9"
        )
        assert code == 0
        rows = [r.split(",") for r in (out / "sweep_dx.csv").read_text().splitlines()[1:]]
        shift = {float(r[1]): float(r[2]) for r in rows}
        assert shift[0.2] > abs(shift[-0.2])

    def test_overlap_range_is_pipeline_error(self, tmp_path):
        # pushing the anchor through the chain makes atoms coincide
        code, _ = run(tmp_path, "sweep", "--param", "dy", "--range=-1.31:-1.31")
        assert code == 3

    def test_bad_range_or_steps(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "--param", "dy", "--range", "0.5")
        assert code == 2
        code, _ = run(tmp_path, "sweep", "--param", "dy", "--range", "0.5:0.1")
        assert code == 2
        code, _ = run(tmp_path, "sweep", "--param", "dy", "--steps", "0")
        assert code == 2

    def test_even_link_length_rejected(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "--param", "dy", "--link-length", "4")
        assert code == 2

    def test_testbed_requires_room_for_center_anchor(self):
        with pytest.raises(ValidationError):
            cli.build_link_testbed(PhysicsConfig(interaction_ratio=3.0), 3)


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
        code = cli.main(["sweep", "--param", "dx", "--range", "0.1:0.1"])
        assert code == 0
        assert (tmp_path / "envout" / "sweep_dx.csv").exists()

    def test_bad_ratio_exits_two(self, tmp_path):
        code, _ = run(tmp_path, "verify", "--problem", "link:3", "--ratio", "0.5")
        assert code == 2

    def test_console_entry_point_matches(self):
        from rydcomp.__main__ import main as entry

        assert entry is cli.main
