import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _support import WB_62, WE_62, constant_eve_mac, example62_input
import wtmac
from wtmac.cli import run
from wtmac.codesim import SAMPLER_VERSION, CodeChain
from wtmac.probkit import WiretapMAC
from wtmac.regions import alpha_bounds_case1


@pytest.fixture
def artifacts(tmp_path):
    mac = WiretapMAC.from_marginals(WB_62, WE_62)
    ch = tmp_path / "channel.json"
    ch.write_text(mac.to_json())
    p = example62_input()
    pp = tmp_path / "p.json"
    pp.write_text(json.dumps(p.to_json_dict()))
    return tmp_path, str(ch), str(pp)


def run_json(tmp_path, argv):
    out = tmp_path / "out.json"
    code = run(["--out", str(out), *argv])
    assert code == 0
    return json.loads(out.read_text())


class TestDispatch:
    def test_info(self, artifacts):
        tmp, ch, pp = artifacts
        obj = run_json(tmp, ["info", "--channel", ch, "--p", pp])
        assert obj["u_independent"] is True
        assert obj["profile"]["iz_v12"] == pytest.approx(0.2147, abs=1e-3)

    def test_classify(self, artifacts):
        tmp, ch, pp = artifacts
        obj = run_json(tmp, ["classify", "--channel", ch, "--p", pp,
                             "--hc", "0.0"])
        assert obj["cases"] == [0]

    def test_region_roundtrip(self, artifacts):
        tmp, ch, pp = artifacts
        obj = run_json(tmp, ["region", "--channel", ch, "--p", pp,
                             "--hc", "0.0"])
        from wtmac.regions import RatePolytope

        poly = RatePolytope.from_json_dict(obj["regions"]["CASE0"])
        assert poly.dim == 3

    def test_conf_region(self, artifacts):
        tmp, ch, pp = artifacts
        obj = run_json(tmp, ["conf-region", "--channel", ch, "--p", pp,
                             "--c1", "0.2", "--c2", "0.2",
                             "--alpha-points", "11"])
        assert obj["regions"]

    def test_example62_matches_table(self, artifacts):
        tmp, _, _ = artifacts
        obj = run_json(tmp, ["example62"])
        assert obj["entropies"]["H(Z)"] == pytest.approx(0.9999, abs=1e-3)
        assert obj["alpha_second_sender"]["alpha1"] == 1.0

    def test_example61(self, artifacts):
        tmp, _, _ = artifacts
        obj = run_json(tmp, ["example61", "--grid", "9"])
        assert obj["coupled_legitimate_rate"] == pytest.approx(0.5, abs=1e-12)
        assert obj["concavity"]["passed"] is True

    def test_verify_lemmas(self, artifacts):
        tmp, _, _ = artifacts
        obj = run_json(tmp, ["verify-lemmas", "--samples", "60",
                             "--instances", "25", "--seed", "7"])
        assert obj["passed"] is True

    def test_simulate_and_leakage(self, tmp_path):
        rng = np.random.default_rng(0)
        mac = constant_eve_mac(rng, t=4)
        ch = tmp_path / "ch.json"
        ch.write_text(mac.to_json())
        p = {"P_U": [0.5, 0.5],
             "P_V1_given_U": [[1, 0], [0, 1]],
             "P_V2_given_U": [[1, 0], [0, 1]],
             "P_X_given_V1": [[1, 0], [0, 1]],
             "P_Y_given_V2": [[1, 0], [0, 1]]}
        pp = tmp_path / "p.json"
        pp.write_text(json.dumps(p))
        obj = run_json(tmp_path, ["simulate", "--channel", str(ch),
                                  "--p", str(pp), "--case", "3",
                                  "--hc", "2.0", "--n", "4",
                                  "--delta", "0.3", "--slack", "0.25"])
        assert obj["leakage_bits"] <= 1e-9
        assert obj["sampler_version"] == SAMPLER_VERSION
        obj = run_json(tmp_path, ["leakage", "--channel", str(ch),
                                  "--p", str(pp), "--case", "3",
                                  "--hc", "2.0", "--n", "4",
                                  "--delta", "0.3", "--slack", "0.25"])
        assert obj["chain_holds"] is True
        assert obj["sampler_version"] == SAMPLER_VERSION

    def test_optimize(self, tmp_path):
        rng = np.random.default_rng(1)
        mac = constant_eve_mac(rng)
        ch = tmp_path / "ch.json"
        ch.write_text(mac.to_json())
        csv_path = tmp_path / "cloud.csv"
        obj = run_json(tmp_path, ["optimize", "--channel", str(ch),
                                  "--mode", "common", "--hc", "0.4",
                                  "--restarts", "6", "--refine-iters", "4",
                                  "--directions", "4", "--seed", "3",
                                  "--csv", str(csv_path)])
        assert obj["seed"] == 3
        assert csv_path.read_text().startswith("R0,R1,R2,case")

    def test_search(self, tmp_path):
        obj = run_json(tmp_path, ["search", "--budget", "50", "--seed", "2",
                                  "--predicate", "needs-time-sharing"])
        assert obj["budget"] == 50

    def test_search_conferencing_certificate(self, tmp_path):
        # seed 3 first hits at channel 34
        obj = run_json(tmp_path, ["search", "--budget", "40", "--seed", "3",
                                  "--predicate", "conferencing-helps"])
        assert obj["found"]
        for hit in obj["found"]:
            cert = hit["certificate"]
            assert cert["max_gap_curvature"] < 0
            assert "max_second_difference" not in cert


class TestContracts:
    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  \"x\": 2,\n")
        code = run(["info", "--channel", str(bad), "--p", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_field_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"x\": 2}")
        code = run(["info", "--channel", str(bad), "--p", str(bad)])
        assert code == 1

    @pytest.mark.parametrize("field, value", [
        ("P_V1_given_U", [[0.5, 0.5]]),  # one row for |U| = 2
        ("P_X_given_V1", [[1, 0, 0], [0, 1, 0]]),  # |X| = 3 on a binary input
    ])
    def test_mismatched_chain_exits_one(self, tmp_path, capsys, field, value):
        mac = WiretapMAC.from_rows(np.full((4, 4), 0.25), 2, 2, 2, 2)
        ch = tmp_path / "ch.json"
        ch.write_text(mac.to_json())
        p = {"P_U": [0.5, 0.5],
             "P_V1_given_U": [[1, 0], [0, 1]],
             "P_V2_given_U": [[1, 0], [0, 1]],
             "P_X_given_V1": [[1, 0], [0, 1]],
             "P_Y_given_V2": [[1, 0], [0, 1]],
             field: value}
        pp = tmp_path / "p.json"
        pp.write_text(json.dumps(p))
        code = run(["info", "--channel", str(ch), "--p", str(pp)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_byte_identical_reruns(self, artifacts):
        tmp, ch, pp = artifacts
        out1 = tmp / "a.json"
        out2 = tmp / "b.json"
        argv = ["verify-lemmas", "--samples", "40", "--instances", "10",
                "--seed", "9"]
        assert run(["--out", str(out1), *argv]) == 0
        assert run(["--out", str(out2), *argv]) == 0
        assert out1.read_text() == out2.read_text()

    def test_artifact_reparses(self, artifacts):
        tmp, ch, pp = artifacts
        obj = run_json(tmp, ["region", "--channel", ch, "--p", pp,
                             "--hc", "0.0"])
        assert json.loads(json.dumps(obj)) == obj


class TestResourceExit:
    def test_budget_exit_two(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        mac = constant_eve_mac(rng)
        ch = tmp_path / "ch.json"
        ch.write_text(mac.to_json())
        p = {"P_U": [0.5, 0.5],
             "P_V1_given_U": [[1, 0], [0, 1]],
             "P_V2_given_U": [[1, 0], [0, 1]],
             "P_X_given_V1": [[1, 0], [0, 1]],
             "P_Y_given_V2": [[1, 0], [0, 1]]}
        pp = tmp_path / "p.json"
        pp.write_text(json.dumps(p))
        code = run(["simulate", "--channel", str(ch), "--p", str(pp),
                    "--case", "3", "--hc", "3.0", "--n", "20",
                    "--delta", "0.45", "--slack", "0.25"])
        assert code == 2
        assert "budget" in capsys.readouterr().err


class TestInvalidArgumentExit:
    def test_conf_region_zero_alpha_points_exits_one(self, artifacts, capsys):
        tmp, ch, pp = artifacts
        code = run(["conf-region", "--channel", ch, "--p", pp,
                    "--c1", "0.2", "--c2", "0.2", "--alpha-points", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert any(line.startswith("error:") for line in err.splitlines())

    def test_mc_without_trials_exits_one(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        mac = constant_eve_mac(rng, t=4)
        ch = tmp_path / "ch.json"
        ch.write_text(mac.to_json())
        p = {"P_U": [0.5, 0.5],
             "P_V1_given_U": [[1, 0], [0, 1]],
             "P_V2_given_U": [[1, 0], [0, 1]],
             "P_X_given_V1": [[1, 0], [0, 1]],
             "P_Y_given_V2": [[1, 0], [0, 1]]}
        pp = tmp_path / "p.json"
        pp.write_text(json.dumps(p))
        code = run(["simulate", "--channel", str(ch), "--p", str(pp),
                    "--case", "3", "--hc", "2.0", "--n", "4",
                    "--delta", "0.3", "--slack", "0.25",
                    "--mc", "--trials", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert any(line.startswith("error:") for line in err.splitlines())

    @pytest.mark.parametrize("command", ["simulate", "leakage"])
    def test_default_alpha_outside_interval_exits_one(self, artifacts, capsys,
                                                      command):
        # the explicit example's Case-1 interval is [0, 0.956]
        tmp, ch, pp = artifacts
        prof = CodeChain.from_factored(example62_input()).profile
        bounds = alpha_bounds_case1(prof)
        code = run([command, "--channel", ch, "--p", pp, "--case", "1",
                    "--hc", "1.0"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"[{bounds.alpha0}, {bounds.alpha1}]" in err
        assert "elementary region" not in err and "Traceback" not in err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_simulate_blocklength_below_one_exits_one(self, artifacts, capsys,
                                                      n):
        tmp, ch, pp = artifacts
        code = run(["simulate", "--channel", ch, "--p", pp, "--case", "3",
                    "--hc", "2.0", "--n", n, "--delta", "0.3",
                    "--slack", "0.25"])
        assert code == 1
        err = capsys.readouterr().err
        assert any(line.startswith("error:") for line in err.splitlines())
        assert "Traceback" not in err


def run_module(*argv):
    """``python -m wtmac.cli`` in a fresh interpreter on the library."""
    env = {**os.environ, "PYTHONPATH": str(Path(wtmac.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "wtmac.cli", *argv], env=env,
                          capture_output=True, text=True)


class TestModuleEntry:
    def test_example62_prints_its_artifact(self):
        done = run_module("example62")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["command"] == "example62"

    def test_missing_channel_file_exits_one(self, tmp_path):
        missing = str(tmp_path / "absent.json")
        done = run_module("info", "--channel", missing, "--p", missing)
        assert done.returncode == 1
        assert done.stdout == ""
        assert "file not found" in done.stderr
