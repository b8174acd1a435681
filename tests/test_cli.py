"""CLI contract: JSON payloads, CSV dumps, exit codes, reproducibility."""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import shlex
import stat
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from zittersim import (
    DYNAMICS, STREAM_LAYOUT, _format, cli, entropy_from_beta_array,
    entropy_from_probabilities_array, kinematics, named_particles, simulate,
)
from zittersim.cli import main

LN2 = math.log(2.0)
_VELOCITY = st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(min_value=-1.0, max_value=1.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


def without_run(payload: dict) -> dict:
    """``payload`` less ``manifest.run``, what varies between runs of one argv."""
    return {**payload, "manifest": {k: v for k, v in payload["manifest"].items() if k != "run"}}


def run_rejected(capsys, *argv):
    """argparse rejects the argv: SystemExit(2), nothing on stdout, and its
    usage line, then its one error line, on stderr; returns the stderr lines."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: ") and "error: " in lines[-1]
    assert not any("error: " in line for line in lines[:-1])
    return lines


class TestCompose:
    def test_half_plus_half(self, capsys):
        payload = run_json(capsys, "compose", "--u", "0.5", "--v", "0.5")
        assert payload["w"] == pytest.approx(0.8, abs=1e-15)
        assert payload["composed"]["distribution"]["p_right"] == pytest.approx(0.9, abs=1e-12)
        # -(3/4) ln(3/4) - (1/4) ln(1/4)
        assert payload["observer"]["entropy"] == pytest.approx(0.5623351446188083, abs=1e-12)
        assert payload["manifest"]["command"] == "compose"

    def test_rest_observer(self, capsys):
        payload = run_json(capsys, "compose", "--u", "0", "--v", "0.25")
        assert payload["w"] == 0.25

    @pytest.mark.parametrize("u,v", [("0.9999999999999999", "-1"), ("-1", "0.9999999999999999")])
    def test_light_speed_beside_a_rounded_opposite(self, capsys, u, v):
        # the near-c input's Pr(L) rounds to 0, so the composed law has no 0/0
        code, out, err = run_cli(capsys, "compose", "--u", u, "--v", v)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["w"] == payload["composed"]["beta"] == -1.0
        assert payload["composed"]["distribution"] == {"p_right": 0.0, "p_left": 1.0}

    def test_antipodal_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "compose", "--u", "1", "--v", "-1")
        assert code == 3
        assert "opposite" in err

    def test_invalid_beta_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compose", "--u", "1.5", "--v", "0")
        assert code == 2
        assert "beta" in err

    def test_unit_flag(self, capsys):
        # no flag picks a unit: each role reports its entropy in nats and in bits
        observer = run_json(capsys, "compose", "--u", "0", "--v", "0")["observer"]
        assert observer["entropy"] == pytest.approx(LN2, abs=1e-15)
        assert observer["entropy_bits"] == 1.0

    @settings(max_examples=100, deadline=None)
    @given(u=_VELOCITY, v=_VELOCITY)
    def test_role_entropies_are_those_of_the_printed_law(self, u, v):
        assume({u, v} != {1.0, -1.0})  # the antipodal light-speed pair exits 3
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["compose", "--u", repr(u), "--v", repr(v)]) == 0
        payload = json.loads(out.getvalue())
        for role in ("observer", "particle", "composed"):
            law = payload[role]["distribution"]
            nats, bits = entropy_from_probabilities_array(law["p_right"], law["p_left"])
            assert payload[role]["entropy"] == nats.item()
            assert payload[role]["entropy_bits"] == bits.item()


def _role(beta, p_right, p_left, entropy, entropy_bits):
    return {"beta": beta, "distribution": {"p_right": p_right, "p_left": p_left},
            "entropy": entropy, "entropy_bits": entropy_bits}


# Golden payloads, without the manifest: an ulp of drift in the probability
# route or in the entropy shows here, where a rounded comparison would pass.
COMPOSE_GOLDEN = {
    "--u 0.5 --v 0.5": {
        "w": 0.8,
        "observer": _role(0.5, 0.75, 0.25, 0.5623351446188083, 0.8112781244591328),
        "particle": _role(0.5, 0.75, 0.25, 0.5623351446188083, 0.8112781244591328),
        "composed": _role(0.8, 0.9, 0.1, 0.3250829733914482, 0.4689955935892812),
    },
    "--u -0.3 --v 0.8": {
        "w": 0.6578947368421053,
        "observer": _role(-0.3, 0.35, 0.65, 0.6474466390346325, 0.934068055375491),
        "particle": _role(0.8, 0.9, 0.09999999999999998, 0.3250829733914482,
                          0.4689955935892811),
        "composed": _role(0.6578947368421053, 0.8289473684210527, 0.17105263157894735,
                          0.4575513743696661, 0.6601070987550468),
    },
    "--u 0.1 --v 0.2": {
        "w": 0.2941176470588236,
        "observer": _role(0.1, 0.55, 0.44999999999999996, 0.6881388137135884,
                          0.9927744539878083),
        "particle": _role(0.2, 0.6, 0.4, 0.6730116670092565, 0.9709505944546686),
        "composed": _role(0.2941176470588236, 0.6470588235294118, 0.3529411764705882,
                          0.649248354870898, 0.9366673818775626),
    },
    "--u 1 --v 0.3": {
        "w": 1.0,
        "observer": _role(1.0, 1.0, 0.0, 0.0, 0.0),
        "particle": _role(0.3, 0.65, 0.35, 0.6474466390346325, 0.934068055375491),
        "composed": _role(1.0, 1.0, 0.0, 0.0, 0.0),
    },
    "--u 0.7 --v 1e-300": {
        "w": 0.7,
        "observer": _role(0.7, 0.85, 0.15000000000000002, 0.4227090878059909,
                          0.6098403047164005),
        "particle": _role(1e-300, 0.5, 0.5, 0.6931471805599453, 1.0),
        "composed": _role(0.7, 0.85, 0.15000000000000002, 0.4227090878059909,
                          0.6098403047164005),
    },
    "--u 0.999999 --v -0.999998": {
        "w": 0.3333335555261161,
        "observer": _role(0.999999, 0.9999994999999999, 5.00000000069889e-07,
                          7.754328745276084e-06, 1.1187131626232544e-05),
        "particle": _role(-0.999998, 9.999999999732445e-07, 0.9999990000000001,
                          1.4815510057538956e-05, 2.1374262888252012e-05),
        "composed": _role(0.3333335555261161, 0.6666667777408444, 0.3333332222591557,
                          0.6365140913040319, 0.9182957229802717),
    },
}


class TestComposeGolden:
    @pytest.mark.parametrize("argv", list(COMPOSE_GOLDEN))
    def test_payload_is_bit_for_bit(self, capsys, argv):
        code, out, err = run_cli(capsys, "compose", *argv.split())
        assert code == 0, err
        payload = json.loads(out)
        payload.pop("manifest")
        expected = COMPOSE_GOLDEN[argv]
        assert payload == expected
        # the JSON text pins key order, the sign of zeros and every digit
        assert json.dumps(payload, indent=2) == json.dumps(expected, indent=2)


class TestSimulate:
    def test_light_speed_mean_is_one(self, capsys):
        payload = run_json(capsys, "simulate", "--beta", "1", "--ticks", "10", "--seed", "1")
        assert payload["mean"] == 1.0
        assert payload["n"] == 10
        assert payload["seed"] == 1

    def test_bad_config_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--beta", "0", "--ticks", "0", "--seed", "1")
        assert code == 2

    def test_path_csv(self, capsys, tmp_path):
        out = tmp_path / "path.csv"
        run_json(
            capsys, "simulate", "--beta", "1", "--ticks", "4", "--seed", "1",
            "--path", str(out),
        )
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tick", "direction", "position"]
        assert len(rows) == 5
        assert [r[1] for r in rows[1:]] == ["+1", "+1", "+1", "+1"]
        assert [float(r[2]) for r in rows[1:]] == [1.0, 2.0, 3.0, 4.0]

    def test_telegraph_dynamics(self, capsys):
        payload = run_json(
            capsys, "simulate", "--beta", "0.5", "--ticks", "200000", "--seed", "11",
            "--dynamics", "telegraph",
        )
        # inflated telegraph sigma at the default flip scale is ~2x binomial
        assert abs(payload["mean"] - 0.5) <= 10.0 * math.sqrt(0.75 / 200000)

    def test_replicates(self, capsys):
        payload = run_json(
            capsys, "simulate", "--beta", "0.3", "--ticks", "1000", "--seed", "5",
            "--replicates", "4",
        )
        assert len(payload["replicates"]) == 4
        assert payload["pooled"]["n"] == 4000
        seeds = {r["seed"] for r in payload["replicates"]}
        assert len(seeds) == 4

    @pytest.mark.parametrize("dynamics", ["iid", "telegraph"])
    def test_json_identical_with_and_without_path(self, capsys, tmp_path, monkeypatch, dynamics):
        # the run goes through main, so the 1000-tick blocks are patched in
        monkeypatch.setattr(simulate, "_path_sum", functools.partial(simulate._path_sum, chunk=1000))
        argv = ("simulate", "--beta", "0.3", "--ticks", "5000", "--seed", "12",
                "--dynamics", dynamics)
        plain = without_run(run_json(capsys, *argv))
        dumped = without_run(run_json(capsys, *argv, "--path", str(tmp_path / "p.csv")))
        plain["manifest"]["parameters"]["path"] = str(tmp_path / "p.csv")
        assert plain == dumped
        with open(tmp_path / "p.csv") as fh:
            last = fh.read().splitlines()[-1].split(",")
        assert int(last[0]) == 4999
        assert float(last[2]) == pytest.approx(plain["mean"] * 5000, abs=1e-9)

    def test_manifest_records_rng_provenance(self, capsys):
        payload = run_json(capsys, "simulate", "--beta", "0", "--ticks", "10", "--seed", "1")
        assert payload["manifest"]["rng"] == {
            "numpy": np.__version__,
            "bit_generator": "PCG64",
            "stream_layout": STREAM_LAYOUT,
        }
        # layout 4: iid ticks and telegraph flips are 16-bit digits of the raw PCG64 stream
        assert payload["manifest"]["rng"]["stream_layout"] == 4
        observed = run_json(capsys, *"observe --u 0.2 --v 0.3 --ticks 10 --seed 1".split())
        assert observed["manifest"]["rng"]["stream_layout"] == 4

    @pytest.mark.parametrize(
        "options, sha256",
        [
            (["--beta", "0.3", "--seed", "3"],
             "28e3ea4ba62e4a5c71f60973aa4b57d7eadbd600e3fa03697a386b13304921a7"),
            (["--beta", "0.4", "--seed", "6", "--dynamics", "telegraph"],
             "62ec1760b79ad36d13c8366520f774c5db52149598183c64df93c0775e911bed"),
        ],
        ids=["iid", "telegraph"],
    )
    def test_path_csv_is_golden(self, capsys, tmp_path, options, sha256):
        # positions in ticks, byte for byte, as stream layout 4 writes them
        out = tmp_path / "p.csv"
        run_json(capsys, "simulate", "--ticks", "1000", *options, "--path", str(out))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_replicates_with_path_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--beta", "0", "--ticks", "10", "--seed", "1",
            "--replicates", "2", "--path", str(tmp_path / "x.csv"),
        )
        assert code == 2


class TestObserve:
    def test_boosted_drift(self, capsys):
        payload = run_json(
            capsys, "observe", "--u", "0.5", "--v", "0.5",
            "--ticks", "1000000", "--seed", "7",
        )
        assert abs(payload["mean"] - 0.8) <= 5.0 * payload["std_error"]
        z = 0.625
        assert abs(payload["acceptance_rate"] - z) <= 5.0 * math.sqrt(z * (1 - z) / 1e6)

    def test_rest_observer(self, capsys):
        payload = run_json(
            capsys, "observe", "--u", "0", "--v", "0.9",
            "--ticks", "200000", "--seed", "8",
        )
        assert abs(payload["mean"] - 0.9) <= 5.0 * payload["std_error"]

    def test_antipodal_exits_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "observe", "--u", "-1", "--v", "1", "--ticks", "100", "--seed", "1"
        )
        assert code == 3


class TestEntropy:
    def test_rest(self, capsys):
        payload = run_json(capsys, "entropy", "--beta", "0")
        assert payload["S_nats"] == pytest.approx(LN2, abs=1e-15)
        assert payload["S_relativistic_nats"] == pytest.approx(LN2, abs=1e-15)
        assert payload["gamma"] == 1.0

    def test_known_factors(self, capsys):
        payload = run_json(capsys, "entropy", "--beta", "0.6")
        assert payload["gamma"] == pytest.approx(1.25, abs=1e-14)
        assert payload["one_plus_z"] == pytest.approx(2.0, abs=1e-14)
        assert payload["S_nats"] == pytest.approx(0.5004024235381879, abs=1e-14)

    def test_light_speed_boundary(self, capsys):
        payload = run_json(capsys, "entropy", "--beta", "1")
        assert payload["S_nats"] == 0.0
        assert payload["gamma"] is None
        assert payload["S_relativistic_nats"] is None

    @pytest.mark.parametrize("beta", ["-0.37", "0.0", "0.6", "1.0", "-1.0"])
    def test_beta_reports_the_grid_row_in_every_unit(self, capsys, tmp_path, beta):
        out = tmp_path / "row.csv"
        code, _, _ = run_cli(capsys, "entropy", "--grid", f"{beta}:{beta}:1", "--csv", str(out))
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        payload = run_json(capsys, "entropy", "--beta", beta)
        assert (payload["S_nats"], payload["S_bits"]) == (float(row[1]), float(row[2]))
        # gamma and 1+z are the row's, or null where the row has nan (|beta| = 1)
        factors = [None if math.isnan(x) else x for x in map(float, row[3:])]
        assert [payload["gamma"], payload["one_plus_z"]] == factors
        assert (None in factors) == (abs(float(beta)) == 1.0)
        assert "S" not in payload and "unit" not in payload
        assert payload["manifest"]["parameters"] == {"beta": float(beta), "grid": None, "csv": None}

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["compose", "--u", "0.5", "--v", "0.5"], ["--unit", "bits"]),
            (["entropy", "--beta", "0.6"], ["--unit", "bits"]),
            (["simulate", "--beta", "0", "--ticks", "10", "--seed", "1"],
             ["--particle", "electron"]),
            (["simulate", "--beta", "0", "--ticks", "10", "--seed", "1"],
             ["--tick-duration", "2.5"]),
        ],
        ids=["compose", "entropy", "simulate-particle", "simulate-tick-duration"],
    )
    def test_unit_option_is_rejected(self, capsys, argv, option):
        # entropies are reported in both units and path positions in ticks,
        # so no command takes a unit option; scales alone converts to SI
        lines = run_rejected(capsys, *argv, *option)
        assert lines[-1].endswith(f"error: unrecognized arguments: {' '.join(option)}")

    def test_superluminal_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "entropy", "--beta", "1.01")
        assert code == 2

    def test_requires_beta_or_grid(self, capsys):
        run_rejected(capsys, "entropy")
        run_rejected(capsys, "entropy", "--beta", "0", "--grid", "0:1:5")

    def test_grid_csv(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stdout, err = run_cli(
            capsys, "entropy", "--grid", "-0.99:0.99:199", "--csv", str(out)
        )
        assert code == 0, err
        # the CSV goes to the file; stdout reports the row count and manifest
        report = json.loads(stdout)
        assert report["rows"] == 199 and report["manifest"]["parameters"]["csv"] == str(out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["beta", "S_nats", "S_bits", "gamma", "one_plus_z"]
        assert len(rows) == 200
        betas = [float(r[0]) for r in rows[1:]]
        assert betas[0] == -0.99 and betas[-1] == 0.99
        s_nats = [float(r[1]) for r in rows[1:]]
        for i in range(199):
            assert s_nats[i] == pytest.approx(s_nats[198 - i], abs=1e-12)

    def test_grid_entropy_columns_are_the_library_pair(self, capsys, tmp_path):
        # across a slice edge, each row's S_nats and S_bits are the (nats, bits)
        # pair of its own beta, bit for bit
        out = tmp_path / "sweep.csv"
        run_json(capsys, "entropy", "--grid", "-1:1:5001", "--csv", str(out))
        columns = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(0, 1, 2), unpack=True)
        nats, bits = entropy_from_beta_array(columns[0])
        assert columns[1].tolist() == nats.tolist() and columns[2].tolist() == bits.tolist()

    def test_grid_to_stdout(self, capsys, tmp_path):
        # stdout carries one JSON document, never the sweep; the sweep is in --csv
        csv_path = tmp_path / "g.csv"
        code, out, _ = run_cli(capsys, "entropy", "--grid", "0:0.5:3", "--csv", str(csv_path))
        assert code == 0
        assert json.loads(out)["rows"] == 3 and "beta,S_nats" not in out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "beta,S_nats,S_bits,gamma,one_plus_z"
        assert len(lines) == 4

    def test_bad_grid_exits_2(self, capsys, tmp_path):
        csv_path = tmp_path / "g.csv"
        for raw in ("0:0.5", "0:0.5:1e3", "a:0.5:3", "0:0.5:0"):
            code, out, err = run_cli(capsys, "entropy", "--grid", raw, "--csv", str(csv_path))
            assert code == 2 and out == ""
            assert err.startswith("error: grid must be start:stop:count")
            assert err.endswith(f"got {raw!r}\n") and err.count("\n") == 1
            assert not csv_path.exists()

    @pytest.mark.parametrize("count", [1, 2, 4095, 4097, 10_000])
    @pytest.mark.parametrize("start,stop", [(-0.99, 0.99), (0.7, -0.2), (0.3, 0.3), (0.0, 1e-320)])
    def test_grid_slices_are_linspace(self, count, start, stop):
        want = np.linspace(start, stop, count)
        for rows in (7, 4096):
            slices = list(cli._grid_slices(start, stop, count, rows=rows))
            assert max(len(s) for s in slices) <= rows
            assert np.concatenate(slices).tobytes() == want.tobytes()

    def test_grid_memory_does_not_grow_with_count(self, monkeypatch):
        # 256-row slices keep the traced formatting short; both grids span
        # many slices, as 2e4 and 2e5 rows do at the default slice size.
        # The sweep goes through main, so the slicer is patched.
        monkeypatch.setattr(cli, "_grid_slices", functools.partial(cli._grid_slices, rows=256))

        def peak(count):
            tracemalloc.start()
            try:
                assert main(["entropy", f"--grid=-0.9:0.9:{count}", "--csv", os.devnull]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2_000), peak(20_000)
        # a whole 2e4-point grid alone would take 144 kB more than 2e3 points
        assert large < small + 50_000

    def test_grid_handles_light_speed_rows(self, capsys, tmp_path):
        out = tmp_path / "edge.csv"
        code, _, _ = run_cli(capsys, "entropy", "--grid", "-1:1:3", "--csv", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        # S is defined at the boundary, gamma and 1+z are not
        assert float(rows[0][1]) == 0.0 and float(rows[2][1]) == 0.0
        assert math.isnan(float(rows[0][3])) and math.isnan(float(rows[2][4]))
        assert float(rows[1][3]) == 1.0

    @pytest.mark.parametrize(
        "grid",
        ["-1:1:3", "0:1e-320:3", "-1e-300:1e-300:7", "-0.99:0.99:4097", "1:1:4097", "0:0:3"],
        ids=["light-speed-nan-and-zero", "subnormal-betas", "scientific", "slice-edge",
             "light-speed-slice-edge", "rest"],
    )
    def test_grid_fields_are_repr(self, capsys, tmp_path, grid):
        out = tmp_path / "sweep.csv"
        run_json(capsys, "entropy", "--grid", grid, "--csv", str(out))
        text = out.read_text()
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert all(field == repr(float(field)) for row in rows for field in row)
        # the whole file is the per-row repr rendering of the same columns
        columns = (c.tolist() for c in cli._entropy_columns(np.linspace(*cli._parse_grid(grid))))
        want = "".join(map("{!r},{!r},{!r},{!r},{!r}\n".format, *columns))
        assert text == "beta,S_nats,S_bits,gamma,one_plus_z\n" + want


class TestScales:
    def test_electron(self, capsys):
        payload = run_json(capsys, "scales", "--particle", "electron")
        assert 1.0e21 <= payload["omega_rad_per_s"] <= 2.0e21
        assert 1.5e-13 <= payload["lambda_m"] <= 2.5e-13
        assert payload["manifest"]["constants"]["speed_of_light_m_per_s"] == 299792458.0

    def test_double_electron_mass_halves_length(self, capsys):
        electron = run_json(capsys, "scales", "--particle", "electron")
        doubled = run_json(capsys, "scales", "--mass-kg", "1.8218767403e-30")
        assert doubled["lambda_m"] == pytest.approx(0.5 * electron["lambda_m"], rel=1e-10)

    def test_negative_mass_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "scales", "--mass-kg", "-1")
        assert code == 2

    def test_unknown_particle_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "scales", "--particle", "graviton")
        assert code == 2

    def test_requires_exactly_one_selector(self, capsys):
        run_rejected(capsys, "scales")
        run_rejected(capsys, "scales", "--particle", "electron", "--mass-kg", "1e-30")


class TestParser:
    def test_particle_names_resolve_through_one_route(self, capsys):
        # scales reads --particle through scale_for_particle
        run_json(capsys, "scales", "--particle", "Electron")
        known = ", ".join(named_particles())
        for name in ("tau", ""):
            code, out, err = run_cli(capsys, "scales", "--particle", name)
            assert (code, out) == (2, "")
            assert err == f"error: unknown particle {name!r}; known: {known}\n"
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        help_text = sub.choices["scales"].format_help()
        assert all(name in help_text for name in named_particles())

    def test_dynamics_choices_are_the_simulator_dynamics(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        dynamics = next(a for a in sub.choices["simulate"]._actions if a.dest == "dynamics")
        assert tuple(dynamics.choices) == simulate.DYNAMICS

    @pytest.mark.parametrize(
        "command", ["compose", "simulate", "observe", "entropy", "scales", "verify"]
    )
    def test_no_json_flag(self, command):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        assert "--json" not in sub.choices[command]._option_string_actions

    @pytest.mark.parametrize("option", ["--flip-asymmetry", "--flip"])
    @pytest.mark.parametrize(
        "flips, error",
        [
            (("-0.0", "0.5"), ""),
            (("-0.1", "0.2"), "error: flip probabilities must lie in [0, 1], got (-0.1, 0.2)\n"),
            (("0.2", "-0.1"), "error: flip probabilities must lie in [0, 1], got (0.2, -0.1)\n"),
            (("-1e-05", "0.5"),
             "error: flip probabilities must lie in [0, 1], got (-1e-05, 0.5)\n"),
        ],
        ids=["minus-zero", "negative-first", "negative-second", "exponent-first"],
    )
    def test_dash_led_flip_asymmetry_keeps_both_values(self, capsys, option, flips, error):
        # both dash-led tokens are values of the two-value option
        argv = ("simulate", "--beta", "1", "--ticks", "10", "--seed", "1", "--dynamics", "telegraph")
        code, out, err = run_cli(capsys, *argv, option, *flips)
        assert (code, err) == ((2, error) if error else (0, ""))
        if not error:
            parsed = json.loads(out)["manifest"]["parameters"]["flip_asymmetry"]
            assert parsed == [float(f) for f in flips]


class TestVerify:
    def test_fast_level_passes(self, capsys):
        payload = run_json(capsys, "verify", "--level", "fast")
        assert payload["passed"] is True
        assert payload["level"] == "fast"
        names = {c["name"] for c in payload["checks"]}
        assert "velocity_addition_equals_probability_route" in names
        assert "entropy_identity_relativistic_form" in names
        for check in payload["checks"]:
            assert check["passed"] is True
            assert check["observed"] <= check["tolerance"]

    def test_report_full_precision(self, capsys):
        payload = run_json(capsys, "verify", "--level", "fast")
        grid_check = next(
            c for c in payload["checks"]
            if c["name"] == "velocity_addition_equals_probability_route"
        )
        assert grid_check["tolerance"] == 1e-12


class TestKeyOrder:
    """Golden JSON key order of each result: the dataclass field order that
    ``asdict`` follows and the manifest that ``main`` appends last."""

    ESTIMATE = ["mean", "std_error", "n", "seed"]
    MANIFEST = {  # each command's manifest keys: constants and rng where it reads them
        "compose": ["command", "parameters", "version", "run"],
        "entropy": ["command", "parameters", "version", "run"],
        "scales": ["command", "parameters", "constants", "version", "run"],
        "simulate": ["command", "parameters", "version", "rng", "run"],
        "observe": ["command", "parameters", "version", "rng", "run"],
        "verify": ["command", "parameters", "constants", "version", "rng", "run"],
    }
    SIMULATE = ["beta", "ticks", "seed", "dynamics", "flip_asymmetry", "path", "replicates"]

    ROLE = ["beta", "distribution", "entropy", "entropy_bits"]

    def assert_manifest(self, payload, parameters):
        manifest = payload["manifest"]
        assert list(manifest) == self.MANIFEST[manifest["command"]]
        assert list(manifest["parameters"]) == parameters
        assert list(manifest["run"]) == ["timestamp"]

    def test_compose(self, capsys):
        payload = run_json(capsys, "compose", "--u", "0.5", "--v", "0.4")
        assert list(payload) == ["w", "observer", "particle", "composed", "manifest"]
        for role in ("observer", "particle", "composed"):
            assert list(payload[role]) == self.ROLE
            assert list(payload[role]["distribution"]) == ["p_right", "p_left"]
        self.assert_manifest(payload, ["u", "v"])

    @pytest.mark.parametrize("beta", ["0.6", "1"])
    def test_entropy_beta(self, capsys, beta):
        payload = run_json(capsys, "entropy", "--beta", beta)
        assert list(payload) == ["beta", "S_nats", "S_bits", "S_relativistic_nats", "gamma",
                                 "one_plus_z", "manifest"]
        self.assert_manifest(payload, ["beta", "grid", "csv"])

    def test_entropy_grid_csv(self, capsys, tmp_path):
        payload = run_json(capsys, "entropy", "--grid", "0:0.5:3", "--csv", str(tmp_path / "g.csv"))
        assert list(payload) == ["rows", "manifest"]
        assert payload["rows"] == 3
        self.assert_manifest(payload, ["beta", "grid", "csv"])

    def test_scales(self, capsys):
        payload = run_json(capsys, "scales", "--mass-kg", "1e-30")
        assert list(payload) == ["particle", "mass_kg", "omega_rad_per_s", "frequency_hz",
                                 "lambda_m", "tick_duration_s", "manifest"]
        self.assert_manifest(payload, ["particle", "mass_kg"])

    def test_simulate(self, capsys):
        payload = run_json(capsys, "simulate", "--beta", "0.2", "--ticks", "100", "--seed", "3")
        assert list(payload) == self.ESTIMATE + ["manifest"]
        self.assert_manifest(payload, self.SIMULATE)

    def test_simulate_replicates(self, capsys):
        argv = ("simulate", "--beta", "0.2", "--ticks", "100", "--seed", "3", "--replicates", "2")
        payload = run_json(capsys, *argv)
        assert list(payload) == ["replicates", "pooled", "manifest"]
        assert [list(r) for r in payload["replicates"]] == [self.ESTIMATE] * 2
        assert list(payload["pooled"]) == self.ESTIMATE
        self.assert_manifest(payload, self.SIMULATE)

    def test_observe(self, capsys):
        payload = run_json(capsys, *"observe --u 0.5 --v 0.4 --ticks 100 --seed 3".split())
        assert list(payload) == self.ESTIMATE + ["acceptance_rate", "ticks_total", "manifest"]
        self.assert_manifest(payload, ["u", "v", "ticks", "seed"])

    def test_verify(self, capsys):
        payload = run_json(capsys, "verify", "--level", "fast")
        assert list(payload) == ["level", "passed", "checks", "manifest"]
        for check in payload["checks"]:
            assert list(check) == ["name", "tolerance", "observed", "passed", "detail"]
        self.assert_manifest(payload, ["level"])


def _replay_argv(manifest: dict) -> list[str]:
    """The argv a manifest records, by README's replay rule: the command, then
    ``--name value`` for each non-null parameter (``_`` as ``-``, lists
    spread, floats as repr)."""
    argv = [manifest["command"]]
    for name, value in manifest["parameters"].items():
        if value is None:
            continue
        values = value if isinstance(value, list) else [value]
        argv += ["--" + name.replace("_", "-"),
                 *(repr(v) if isinstance(v, float) else str(v) for v in values)]
    return argv


class TestReplay:
    """Re-running the argv rebuilt from a run's manifest reproduces the run."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", "--u", "0.5", "--v", "-0.4"],
            ["entropy", "--beta", "-0.6"],
            ["entropy", "--grid", "-0.5:0.5:7", "--csv", "p.csv"],
            ["scales", "--particle", "electron"],
            ["scales", "--mass-kg", "1.8218767403e-30"],
            ["verify", "--level", "fast"],
            ["observe", "--u", "0.5", "--v", "-0.2", "--ticks", "3000", "--seed", "3"],
            ["simulate", "--beta", "0.2", "--ticks", "3000", "--seed", "7"],
            ["simulate", "--beta", "0.2", "--ticks", "3000", "--seed", "7",
             "--dynamics", "telegraph", "--flip-asymmetry", "0.2", "0.3"],
            ["simulate", "--beta", "0.3", "--ticks", "500", "--seed", "5", "--replicates", "3"],
            ["simulate", "--beta", "-0.4", "--ticks", "300", "--seed", "11",
             "--dynamics", "telegraph", "--path", "p.csv"],
            ["simulate", "--beta", "-1e-05", "--ticks", "100", "--seed", "1"],
            ["simulate", "--beta", "1", "--ticks", "100", "--seed", "1",
             "--dynamics", "telegraph", "--flip-asymmetry", "-0.0", "0.5"],
        ],
        ids=[
            "compose-nats", "entropy-beta", "entropy-grid-csv",
            "scales-particle", "scales-mass",
            "verify", "observe", "simulate-iid", "simulate-telegraph-flips",
            "simulate-replicates",
            "simulate-path", "simulate-negative-exponent", "simulate-dash-led-flips",
        ],
    )
    def test_manifest_replays(self, capsys, tmp_path, argv):
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        first = run_json(capsys, *argv)
        path = tmp_path / "p.csv"
        written = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
        second = run_json(capsys, *_replay_argv(first["manifest"]))
        assert without_run(second) == without_run(first)
        assert (path.read_bytes() if path.exists() else None) == written


# -- one command line: its exit code, its JSON or its one error line --------

_SIM = "simulate --beta 0 --ticks 10 --seed 1"
_REPLICATES = "error: replicates must be an integer in [1, inf), got "
_HUGE_TICKS = "error: ticks must be an integer in [1, 9223372036854775808), got "
_GRID_CSV = "error: --grid writes its sweep to --csv PATH; give both or neither\n"
_HUGE_GRID = (
    "error: grid must be start:stop:count with integer count in [1, 9223372036854775808), got '0:1:"
)

# id -> (command line, exit code, start of its one stderr line: "" at exit 0,
# the whole line where it ends in "\n"); a ".csv" argument is under tmp_path.
EXITS = {
    # argparse alone takes a dash-led value for an option and exits 2
    "dash-simulate-beta": ("simulate --beta -1e-05 --ticks 10 --seed 1", 0, ""),
    "dash-compose-u-v": ("compose --u -1e-3 --v -0.2", 0, ""),
    "dash-entropy-grid": ("entropy --grid -1e-3:0.5:3 --csv g.csv", 0, ""),
    "dash-simulate-seed": ("simulate --beta 0 --ticks 10 --seed -1", 2,
                           "error: seed must be an integer in [0, 18446744073709551616), got -1\n"),
    "dash-simulate-beta-inf": ("simulate --beta -inf --ticks 10 --seed 1", 2,
                               "error: beta must lie in [-1, +1], got -inf\n"),
    "replicates-0": (f"{_SIM} --replicates 0", 2, _REPLICATES + "0\n"),
    "replicates--3": (f"{_SIM} --replicates -3", 2, _REPLICATES + "-3\n"),
    # the count is checked before the path is opened
    "replicates-0-path": (f"{_SIM} --replicates 0 --path x.csv", 2, _REPLICATES + "0\n"),
    "replicates--3-path": (f"{_SIM} --replicates -3 --path x.csv", 2, _REPLICATES + "-3\n"),
    "replicates-1-path": (f"{_SIM} --replicates 1 --path x.csv", 0, ""),
    # '' names a file that cannot be opened; it does not mean "no file"
    "path-empty": (f"{_SIM} --path ''", 1,
                   "error: --path '': [Errno 2] No such file or directory: ''\n"),
    "path-empty-replicates": (f"{_SIM} --path '' --replicates 2", 2,
                              "error: --path dumps a single path; drop --replicates\n"),
    "path-unwritable": (f"{_SIM} --path missing/p.csv", 1, "error: --path "),
    "simulate-ticks-2**63": (f"simulate --beta 0 --ticks {2**63} --seed 1", 2, _HUGE_TICKS),
    "simulate-ticks-10**400": (f"simulate --beta 0 --ticks {10**400} --seed 1", 2, _HUGE_TICKS),
    "observe-ticks-2**63": (f"observe --u 0 --v 0 --ticks {2**63} --seed 1", 2, _HUGE_TICKS),
    "observe-ticks-10**400": (f"observe --u 0 --v 0 --ticks {10**400} --seed 1", 2, _HUGE_TICKS),
    # u is one ulp below +1, so no tick is retained, but the pair is not antipodal
    "observe-no-retained-tick": ("observe --u 0.9999999999999999 --v -1 --ticks 1000 --seed 1", 1,
                                 "error: 0 of 1000 ticks retained for u = 0.9999999999999999, "
                                 "v = -1.0; increase ticks to estimate this composition\n"),
    "entropy-csv-without-grid": ("entropy --beta 0.5 --csv e.csv", 2, _GRID_CSV),
    "entropy-grid-without-csv": ("entropy --grid 0:0.5:3", 2, _GRID_CSV),
    "grid-no-count": ("entropy --grid 0:1 --csv g.csv", 2, "error: grid must be start:stop:count"),
    # the count is bounded like --ticks, before the file is opened
    "grid-count-2**63": (f"entropy --grid 0:1:{2**63} --csv g.csv", 2, _HUGE_GRID),
    "grid-count-10**400": (f"entropy --grid 0:1:{10**400} --csv g.csv", 2, _HUGE_GRID),
    "entropy-csv-empty": ("entropy --grid 0:1:2 --csv ''", 1,
                          "error: --csv '': [Errno 2] No such file or directory: ''\n"),
    "entropy-csv-unwritable": ("entropy --grid 0:0.5:3 --csv missing/g.csv", 1, "error: --csv "),
    # omega = 2 m c^2 / hbar would overflow to inf
    "scales-overflowing-mass": ("scales --mass-kg 1e300", 2, "error: mass must be at most "
                                "~1.05e257 kg for a finite omega, got 1e+300\n"),
}


@pytest.mark.parametrize("command, code, error", list(EXITS.values()), ids=list(EXITS))
def test_exits(capsys, tmp_path, command, code, error):
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in shlex.split(command)]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    if code == 0:
        assert err == "" and "manifest" in json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == "" and err.startswith(error) and err.endswith("\n") and err.count("\n") == 1
        assert not [a for a in argv if a.endswith(".csv") and os.path.exists(a)]


@pytest.mark.parametrize("defect", [ValueError, OSError])
def test_a_defect_is_not_bad_input(monkeypatch, defect):
    # only a ZitterError has an exit code; any other error leaves main as a traceback
    def fail(*args):
        raise defect("not an input error")

    monkeypatch.setattr(kinematics, "velocity_addition_array", fail)
    with pytest.raises(defect, match="not an input error"):
        main(["compose", "--u", "0.5", "--v", "0.5"])


def test_broken_pipe_on_an_output_file_is_unwritable(capsys, monkeypatch, tmp_path):
    # only a reader of stdout may leave early; a --path that refuses a write is an error
    def refuse(cfg, stream=None):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(simulate, "simulate_drift", refuse)
    path = str(tmp_path / "p.csv")
    got = run_cli(capsys, *shlex.split(_SIM), "--path", path)
    assert got == (1, "", f"error: --path {path!r}: [Errno 32] Broken pipe\n")


def _fail_on_second_call(monkeypatch, name: str) -> None:
    """Patch ``_format.<name>`` to raise ENOSPC on its second call, after one
    slice of the CSV is written."""
    writer, calls = getattr(_format, name), []

    def write(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return writer(*args)

    monkeypatch.setattr(_format, name, write)


# Each CSV writer, its formatter and an argv of more than one slice.
SLICED = {
    "path": ("--path", "path_csv", "simulate --beta 0.2 --ticks 10000 --seed 1"),
    "grid": ("--csv", "repr_csv", "entropy --grid 0:1:3000"),
}


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
@pytest.mark.parametrize("option, name, command", list(SLICED.values()), ids=list(SLICED))
def test_a_failure_after_the_first_slice_leaves_no_file(
    capsys, monkeypatch, tmp_path, option, name, command, existing
):
    target = tmp_path / "out.csv"
    if existing:
        target.write_bytes(b"an earlier run's rows\n")
    _fail_on_second_call(monkeypatch, name)
    got = run_cli(capsys, *shlex.split(command), option, str(target))
    assert got == (1, "", f"error: {option} {str(target)!r}: [Errno 28] No space left on device\n")
    assert not os.path.lexists(target)


def test_a_device_is_written_and_never_removed(capsys):
    assert run_cli(capsys, *shlex.split("entropy --grid 0:1:5 --csv"), os.devnull)[0] == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_device_fails_and_is_never_removed(capsys):
    code, out, err = run_cli(capsys, *shlex.split(_SIM), "--path", "/dev/full")
    assert (code, out) == (1, "")
    assert err == "error: --path '/dev/full': [Errno 28] No space left on device\n"
    assert stat.S_ISCHR(os.stat("/dev/full").st_mode)


def test_a_failing_symlink_target_keeps_the_link(capsys, monkeypatch, tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"")
    link.symlink_to(target)
    _fail_on_second_call(monkeypatch, "repr_csv")
    code, _, err = run_cli(capsys, *shlex.split(SLICED["grid"][2]), "--csv", str(link))
    assert code == 1 and err.startswith(f"error: --csv {str(link)!r}: [Errno 28]")
    assert link.is_symlink() and link.resolve() == target and target.is_file()


# -- every argv ends in JSON or one error line, never a traceback -------------


def _mostly(valid, invalid):
    """Draws from ``valid``, with one draw in five from ``invalid``."""
    return st.integers(min_value=0, max_value=4).flatmap(lambda i: invalid if i == 4 else valid)


_BETAS = _mostly(
    st.sampled_from(["1", "-1", "0"]) | st.floats(min_value=-1.0, max_value=1.0).map(repr),
    st.sampled_from(["1.5", "-2", "nan", "inf", "1e300", "x", ""]),
)
_POSITIVE = _mostly(
    st.floats(min_value=1e-320, max_value=1e300).map(repr),
    st.sampled_from(["0", "-1", "nan", "inf", "1e306", "x"]),
)
_TICKS = _mostly(
    st.integers(min_value=1, max_value=10_000).map(str),
    st.sampled_from(["0", "-2", "1.5", "1e3", "0x10", "x", str(2**63), str(10**400)]),
)
_SEEDS = _mostly(
    st.integers(min_value=0, max_value=2**64 - 1).map(str),
    st.sampled_from(["-1", str(2**64), str(10**400), "x"]),
)
_GRIDS = _mostly(
    st.tuples(_BETAS, _BETAS, st.integers(min_value=1, max_value=1_000).map(str)).map(":".join),
    st.sampled_from(["0:0.5", "::", "0:1:1e3", "0:1:0", "0:1:-1", f"0:1:{10**400}"]),
)
_OUTPUTS = _mostly(st.just("out.csv"), st.sampled_from(["missing/out.csv", ""]))
_PARTICLES = _mostly(st.sampled_from(["electron", "muon", "proton"]), st.sampled_from(["tau", ""]))

# (required, optional) options of each subcommand and their values.
_OPTIONS = {
    "compose": ({"--u": _BETAS, "--v": _BETAS}, {}),
    "simulate": (
        {"--beta": _BETAS, "--ticks": _TICKS, "--seed": _SEEDS},
        {
            "--dynamics": st.sampled_from(["iid", "telegraph", "x"]),
            "--flip-asymmetry": st.lists(_BETAS, min_size=1, max_size=3),
            "--path": _OUTPUTS,
            "--replicates": st.sampled_from(["-1", "0", "1", "3", "x", str(10**400)]),
        },
    ),
    "observe": ({"--u": _BETAS, "--v": _BETAS, "--ticks": _TICKS, "--seed": _SEEDS}, {}),
    "entropy": (
        {},
        {
            "--beta": _BETAS,
            "--grid": _GRIDS,
            "--csv": _OUTPUTS,
        },
    ),
    "scales": ({}, {"--particle": _PARTICLES, "--mass-kg": _POSITIVE}),
    "verify": ({}, {"--level": st.sampled_from(["fast", "x"])}),
}


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    required, optional = _OPTIONS[command]
    flags = list(required)
    if optional:
        flags += draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=3))
    if flags and draw(st.integers(min_value=0, max_value=9)) == 0:
        flags.remove(draw(st.sampled_from(flags)))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        value = draw({**required, **optional}[flag])
        argv += [flag, *value] if isinstance(value, list) else [flag, value]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        argv.append(draw(st.sampled_from(["--json", "--bogus", "extra"])))
    return argv


class TestNoTraceback:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_argv())
    def test_json_or_one_error_line(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [os.path.join(tmp, a) if a.endswith(".csv") else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the argv
                    code = exc.code
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == ""
            assert "manifest" in json.loads(out, parse_constant=_reject_constant)
        else:
            assert code in (1, 2, 3)
            error_lines = [line for line in err.splitlines() if "error:" in line]
            assert error_lines == err.splitlines()[-1:], err
            assert "Traceback" not in err


def _reject_constant(name: str) -> None:
    raise AssertionError(f"{name} is not valid JSON")
