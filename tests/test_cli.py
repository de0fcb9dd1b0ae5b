import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bdris
from bdris import experiments
from bdris.cli import EXIT_CONFIG, EXIT_IDENT, main
from bdris.config import (
    ConfigError,
    SolverOptions,
    SystemConfig,
    load_config,
    parse_config_file,
)
from bdris.experiments import run_trial
from bdris.fixtures import decode_array, encode_array
from bdris.receivers import RECEIVERS

REFERENCE_ARGS = ["--set", "ris_elements=16", "--set", "blocks=32",
              "--set", "groups=2", "--set", "frames=2"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigParsing:
    def test_file_with_comments_and_sections(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# scenario\n"
            "tx_antennas = 2\n"
            "rx_antennas = 4\n"
            "ris_elements = 8   # surface size\n"
            "groups = 2\n"
            "blocks = 16\n"
            "slots = 4\n"
            "frames = 2\n"
            "snr_db = 0, 10, 20\n"
            "modulation_order = 4\n"
            "solver.delta = 1e-8\n"
            "solver.max_iters = 123\n"
        )
        cfg = load_config(path)
        assert cfg.ris_elements == 8
        assert cfg.snr_db == (0.0, 10.0, 20.0)
        assert cfg.solver.delta == 1e-8
        assert cfg.solver.max_iters == 123

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("blocks = 4\nblocks = 8\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_overrides_after_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("blocks = 4\n")
        cfg = load_config(path, ["blocks=32", "solver.structure_projection=false"])
        assert cfg.blocks == 32
        assert cfg.solver.structure_projection is False

    def test_mapping_roundtrip(self):
        cfg = SystemConfig(blocks=12, snr_db=(1.0, 2.0))
        again = SystemConfig.from_mapping(cfg.to_mapping())
        assert again == cfg

    @pytest.mark.parametrize("kwargs", [
        dict(ris_elements=6, groups=4),
        dict(slots=1, tx_antennas=2),
        dict(modulation_order=3),
        dict(channel_model="awgn"),
        dict(blocks=0),
        dict(solver=dict(delta=float("nan"))),
        dict(solver=dict(delta=float("inf"))),
        dict(solver=dict(delta=-1e-6)),
        dict(solver=dict(pinv_tol=float("nan"))),
        dict(solver=dict(pinv_tol=-1e-12)),
        dict(solver=dict(pinv_tol=1.0)),
        dict(snr_db=(0.0, float("nan"))),
        dict(snr_db=(float("-inf"),)),
        dict(snr_db=(4000.0,)),  # 10**(snr/10) overflows
        dict(snr_db=(-4000.0,)),  # and here underflows to 0
    ])
    def test_validation_failures(self, kwargs):
        with pytest.raises(ConfigError):
            # an invalid SolverOptions raises when it is built, so build it here
            if "solver" in kwargs:
                kwargs = {**kwargs, "solver": SolverOptions(**kwargs["solver"])}
            SystemConfig(**kwargs)

    def test_solver_must_be_solver_options(self):
        with pytest.raises(ConfigError, match="SolverOptions"):
            SystemConfig(solver={"max_iters": 10})

    def test_infinite_snr_means_noiseless(self):
        assert SystemConfig(snr_db=(10, float("inf"))).snr_db == (10, float("inf"))

    def test_snr_list_is_stored_as_a_float_tuple(self):
        cfg = SystemConfig(snr_db=[0, 10.0])
        assert cfg.snr_db == (0.0, 10.0)
        assert type(cfg.snr_db) is tuple
        assert all(type(v) is float for v in cfg.snr_db)
        assert hash(cfg) == hash(SystemConfig(snr_db=(0.0, 10.0)))
        assert SystemConfig.from_mapping(cfg.to_mapping()) == cfg

    @pytest.mark.parametrize("kwargs", [
        dict(tx_antennas=2.0),
        dict(blocks=16.5),
        dict(frames="2"),
        dict(snr_db=10.0),
        dict(snr_db=("ten",)),
        dict(snr_db=()),  # a library run_sweep would run no trial
    ])
    def test_non_integral_dimensions_and_bad_snrs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SystemConfig(**kwargs)

    def test_integer_dimensions_are_stored_as_int(self):
        cfg = SystemConfig(tx_antennas=np.int64(2), blocks=np.int32(16))
        assert type(cfg.tx_antennas) is int and type(cfg.blocks) is int
        assert cfg == SystemConfig(blocks=16)

    def test_numpy_integer_seed_draws_the_same_trial(self):
        # equal configs are one key of the scenario cache, so they must draw
        # the same scenario whichever of them runs first
        a = SystemConfig(seed=5, snr_db=(10.0,))
        b = SystemConfig(seed=np.int64(5), snr_db=(10.0,))
        assert type(b.seed) is int and b == a and repr(b) == repr(a)
        results = []
        for order in ((a, b), (b, a)):
            experiments._noised_scenario.cache_clear()
            results += [run_trial(cfg, "tucker", 10.0).astuple()[:-1] for cfg in order]
        experiments._noised_scenario.cache_clear()
        assert len(set(results)) == 1

    @pytest.mark.parametrize("build", [
        lambda: SystemConfig(seed=5.0),
        lambda: SystemConfig(modulation_order=4.0),
        lambda: SystemConfig(paths=3.0),
        lambda: SolverOptions(max_iters=2.5),
        lambda: SolverOptions(init_seed=0.0),
    ], ids=["seed", "modulation_order", "paths", "max_iters", "init_seed"])
    def test_float_counts_and_seeds_rejected(self, build):
        with pytest.raises(ConfigError, match="must be an integer"):
            build()

    @pytest.mark.parametrize("key", ["seed", "blocks", "solver.max_iters"])
    def test_typed_float_in_a_mapping_is_rejected_not_truncated(self, key):
        # a fixture's config section arrives typed from JSON
        with pytest.raises(ConfigError, match="must be an integer"):
            SystemConfig.from_mapping({key: 32.7})

    @pytest.mark.parametrize("build, message", [
        (lambda: SolverOptions(delta="1e-6"), "solver.delta must be a real number"),
        (lambda: SolverOptions(pinv_tol="0.1"), "solver.pinv_tol must be a real"),
        (lambda: SolverOptions(structure_projection="false"),
         "solver.structure_projection must be a bool"),
        (lambda: SolverOptions(delta=True), "solver.delta must be a real number"),
        (lambda: SystemConfig(seed=True), "seed must be an integer"),
        (lambda: SystemConfig.from_mapping({"solver.delta": True}),
         "solver.delta must be a real number"),
        # float(True) is 1.0, so a bool entry would load as a 1 dB grid
        (lambda: SystemConfig(snr_db=[True]), "snr_db must be a sequence of numbers"),
        (lambda: SystemConfig.from_mapping(json.loads('{"snr_db": [0, true]}')),
         "snr_db must be a sequence of numbers"),
    ], ids=["string-delta", "string-pinv-tol", "string-projection", "bool-delta",
            "bool-seed", "bool-delta-in-a-mapping", "bool-snr",
            "bool-snr-in-a-json-mapping"])
    def test_each_field_takes_its_declared_type(self, build, message):
        with pytest.raises(ConfigError, match=message):
            build()

    def test_readme_example_config_is_the_default(self, tmp_path):
        # the README lists every key with its default; a new field must be
        # documented there, and a changed default changed there too
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block, = [b.split("```", 1)[0] for b in readme.split("```ini\n")[1:]]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert load_config(path) == SystemConfig()

    def test_integer_solver_fields_are_stored_as_int(self):
        solver = SolverOptions(max_iters=np.int32(7), init_seed=np.uint8(3))
        assert type(solver.max_iters) is int and type(solver.init_seed) is int
        assert solver == SolverOptions(max_iters=7, init_seed=3)


# `check`'s output, byte for byte, at three configs; the last sets
# rank_deficient_override
CHECK_DEFAULT = """\
{
  "inequalities": {
    "kruskal sum >= 2*tx_antennas*ris_elements + 2": {
      "lhs": 50,
      "ok": false,
      "rhs": 66
    },
    "pakron: blocks*slots*rx_antennas >= tx_antennas*ris_elements": {
      "lhs": 512,
      "ok": true,
      "rhs": 32
    },
    "pakron: frames*blocks >= tx_antennas*ris_elements": {
      "lhs": 64,
      "ok": true,
      "rhs": 32
    },
    "tucker: blocks*slots*rx_antennas >= tx_antennas*ris_elements": {
      "lhs": 512,
      "ok": true,
      "rhs": 32
    },
    "tucker: frames*blocks*rx_antennas >= tx_antennas": {
      "lhs": 256,
      "ok": true,
      "rhs": 2
    },
    "tucker: frames*blocks*slots >= ris_elements": {
      "lhs": 256,
      "ok": true,
      "rhs": 16
    }
  },
  "kmin_pakron": 16,
  "kmin_tucker": 2,
  "kruskal_lhs": 50,
  "kruskal_ok": false,
  "kruskal_rhs": 66,
  "rank_deficient_override": false
}
"""

CHECK_BLOCKS_15_RANK_1 = """\
{
  "inequalities": {
    "kruskal sum >= 2*tx_antennas*ris_elements + 2": {
      "lhs": 21,
      "ok": false,
      "rhs": 66
    },
    "pakron: blocks*slots*rx_antennas >= tx_antennas*ris_elements": {
      "lhs": 240,
      "ok": true,
      "rhs": 32
    },
    "pakron: frames*blocks >= tx_antennas*ris_elements": {
      "lhs": 30,
      "ok": false,
      "rhs": 32
    },
    "tucker: blocks*slots*rx_antennas >= tx_antennas*ris_elements": {
      "lhs": 240,
      "ok": true,
      "rhs": 32
    },
    "tucker: frames*blocks*rx_antennas >= tx_antennas": {
      "lhs": 120,
      "ok": true,
      "rhs": 2
    },
    "tucker: frames*blocks*slots >= ris_elements": {
      "lhs": 120,
      "ok": true,
      "rhs": 16
    }
  },
  "kmin_pakron": 16,
  "kmin_tucker": 2,
  "kruskal_lhs": 21,
  "kruskal_ok": false,
  "kruskal_rhs": 66,
  "rank_deficient_override": false
}
"""

CHECK_OVERRIDE = """\
{
  "inequalities": {
    "kruskal sum >= 2*tx_antennas*ris_elements + 2": {
      "lhs": 52,
      "ok": false,
      "rhs": 66
    },
    "pakron: blocks*slots*rx_antennas >= tx_antennas*ris_elements": {
      "lhs": 256,
      "ok": true,
      "rhs": 32
    },
    "pakron: frames*blocks >= tx_antennas*ris_elements": {
      "lhs": 640,
      "ok": true,
      "rhs": 32
    },
    "tucker: blocks*slots*rx_antennas >= tx_antennas*ris_elements": {
      "lhs": 256,
      "ok": true,
      "rhs": 32
    },
    "tucker: frames*blocks*rx_antennas >= tx_antennas": {
      "lhs": 2560,
      "ok": true,
      "rhs": 2
    },
    "tucker: frames*blocks*slots >= ris_elements": {
      "lhs": 2560,
      "ok": true,
      "rhs": 16
    }
  },
  "kmin_pakron": 2,
  "kmin_tucker": 2,
  "kruskal_lhs": 52,
  "kruskal_ok": true,
  "kruskal_rhs": 66,
  "rank_deficient_override": true
}
"""


class TestCheck:
    def test_reference_configuration(self, capsys):
        code, out, _ = run_cli(capsys, *REFERENCE_ARGS, "check")
        assert code == 0
        report = json.loads(out)
        assert report["kmin_pakron"] == 16
        assert report["kmin_tucker"] == 2
        assert "complexity" not in report

    @pytest.mark.parametrize("args, expected", [
        (["check"], CHECK_DEFAULT),
        (["--set", "blocks=15", "check", "--rank-h", "1"], CHECK_BLOCKS_15_RANK_1),
        (["--set", "frames=40", "--set", "blocks=16", "check", "--rank-h", "1"],
         CHECK_OVERRIDE),
    ], ids=["default", "blocks-15-rank-1", "rank-deficient-override"])
    def test_output_bytes(self, capsys, args, expected):
        assert run_cli(capsys, *args) == (0, expected, "")

    def test_rank_h_option(self, capsys):
        code, out, _ = run_cli(capsys, *REFERENCE_ARGS, "check", "--rank-h", "1")
        assert code == 0
        assert json.loads(out)["kruskal_lhs"] == 32 + 4 + 2

    @pytest.mark.parametrize("args", [
        ["check", "--rank-h", "99"],
        ["check", "--rank-h", "5"],
        ["check", "--rank-h", "-3"],
        ["check", "--rank-h", "0"],
        ["--set", "frames=40", "check", "--rank-h", "0"],
    ])
    def test_impossible_rank_h_is_invalid(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == EXIT_CONFIG and out == ""
        assert json.loads(err)["error"] == "invalid"


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_help_names_every_receiver(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")  # so that no name is wrapped at its hyphen
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert [name for name in RECEIVERS if name not in out] == []


class TestSimulate:
    def test_deterministic_json(self, capsys):
        args = ["--set", "ris_elements=4", "--set", "blocks=8",
                "--set", "frames=4", "--set", "snr_db=15", "--set", "seed=42",
                "simulate", "--receiver", "tucker"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        a.pop("wall_ms"), b.pop("wall_ms")  # timing is machine state
        assert a == b
        assert a["receiver"] == "tucker"

    def test_noiseless_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "--set", "ris_elements=4", "--set", "blocks=8",
            "--set", "frames=4", "--set", "solver.delta=1e-14",
            "--set", "snr_db=inf", "simulate", "--receiver", "pakron")
        assert code == 0
        result = json.loads(out)
        assert result["nmse_g"] <= 1e-8
        assert result["snr_db"] == "inf"


    @pytest.mark.parametrize("snr", ["nan", "-inf", "0, nan", "abc"])
    def test_non_numeric_snr_is_config_error(self, capsys, snr):
        code, out, err = run_cli(capsys, "--set", f"snr_db={snr}", "simulate")
        assert code == EXIT_CONFIG
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "config" and "snr_db" in error["message"]


class TestSweep:
    def test_empty_snr_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "--set", "snr_db=", "sweep",
                               "--runs", "1", "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert json.loads(err)["error"] == "config"

    def test_identifiability_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, *REFERENCE_ARGS, "--set", "blocks=15", "sweep",
            "--receiver", "pakron", "--runs", "1",
            "--out", str(tmp_path / "o"))
        assert code == EXIT_IDENT
        assert json.loads(err)["error"] == "identifiability"

    def test_writes_outputs_deterministically(self, capsys, tmp_path):
        args = ["--set", "ris_elements=4", "--set", "blocks=8",
                "--set", "frames=4", "--set", "snr_db=10,20", "--set", "seed=3",
                "sweep", "--receiver", "tucker", "--runs", "2"]
        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        assert code == 0
        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
        assert code == 0
        report_a = json.loads((tmp_path / "a" / "report.json").read_text())
        report_b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert _strip_timing(report_a) == _strip_timing(report_b)
        rows_a = _csv_without_wall(tmp_path / "a" / "trials.csv")
        rows_b = _csv_without_wall(tmp_path / "b" / "trials.csv")
        assert rows_a == rows_b

    @pytest.mark.parametrize("flag, value", [("--runs", "-3"), ("--runs", "0"),
                                             ("--jobs", "-4")])
    def test_rejects_counts_below_one(self, capsys, tmp_path, flag, value):
        out_dir = tmp_path / "d"
        code, out, err = run_cli(capsys, "--set", "ris_elements=4", "--set", "blocks=8",
                                 "--set", "frames=4", "sweep", "--receiver", "zf-oracle",
                                 flag, value, "--out", str(out_dir))
        assert code == EXIT_CONFIG
        assert out == ""
        assert json.loads(err)["error"] == "invalid"
        assert not out_dir.exists()


    def test_one_slot_report_is_strict_json(self, capsys, tmp_path):
        # slots = 1 leaves no data symbol, so the SER is NaN; report.json
        # must still parse without bare NaN/Infinity constants
        def bare(constant):
            raise ValueError(f"bare {constant} in report.json")

        code, _, _ = run_cli(capsys, "--set", "tx_antennas=1", "--set", "rx_antennas=2",
                             "--set", "ris_elements=2", "--set", "groups=2",
                             "--set", "blocks=4", "--set", "slots=1", "--set", "frames=2",
                             "--set", "snr_db=10", "sweep", "--receiver", "zf-oracle",
                             "--runs", "1", "--out", str(tmp_path / "o"))
        assert code == 0
        text = (tmp_path / "o" / "report.json").read_text()
        report = json.loads(text, parse_constant=bare)
        cell, = report["cells"]
        assert cell["ser_mean"] == cell["ser_median"] == "nan"

    def test_unknown_receiver_writes_nothing(self, capsys, tmp_path):
        out_dir = tmp_path / "d"
        code, out, err = run_cli(capsys, "--set", "ris_elements=4", "--set", "blocks=8",
                                 "--set", "frames=4", "sweep", "--receiver", "tucker",
                                 "--receiver", "bogus", "--runs", "2",
                                 "--out", str(out_dir))
        assert code == EXIT_CONFIG
        assert out == ""
        assert json.loads(err)["error"] == "invalid"
        assert not out_dir.exists()


def edit_design(doc, **edits):
    """``doc`` with each named design array replaced by ``edit(array)``."""
    for key, edit in edits.items():
        doc["design"][key] = encode_array(edit(decode_array(doc["design"][key])))
    return doc


def edit_symbols(doc, **edits):
    """``doc`` with each named entry (``dims``, ``data``) of its symbol array
    replaced by ``edit(entry)``."""
    for key, edit in edits.items():
        doc["symbols"]["x"][key] = edit(doc["symbols"]["x"][key])
    return doc


class TestFixture:
    def test_roundtrip(self, capsys, tmp_path):
        fx = tmp_path / "fx.json"
        args = ["--set", "ris_elements=4", "--set", "blocks=8",
                "--set", "frames=4", "--set", "solver.delta=1e-13",
                "--set", "seed=11"]
        code, _, _ = run_cli(capsys, *args, "fixture", "--out", str(fx))
        assert code == 0
        code, out, _ = run_cli(capsys, *args, "simulate",
                               "--receiver", "tucker", "--from-fixture", str(fx))
        assert code == 0
        result = json.loads(out)
        assert result["fixture_reconstruction_error"] <= 1e-12
        assert result["nmse_g"] <= 1e-6

    @pytest.mark.parametrize("receiver", ["bogus", "hybrid"])
    def test_unknown_receiver_rejected(self, capsys, tmp_path, receiver):
        fx = tmp_path / "fx.json"
        args = ["--set", "ris_elements=4", "--set", "blocks=8", "--set", "frames=4"]
        assert run_cli(capsys, *args, "fixture", "--out", str(fx))[0] == 0
        code, out, err = run_cli(capsys, *args, "simulate", "--receiver", receiver,
                                 "--from-fixture", str(fx))
        assert code == EXIT_CONFIG
        assert out == ""
        assert json.loads(err)["error"] == "invalid"

    # bool-dims has one transmit antenna, so that x's dims [slots, True]
    # describe the shape its config gives x
    @pytest.mark.parametrize("tx, mangle", [
        (2, lambda doc: [doc]),
        (2, lambda doc: {k: v for k, v in doc.items() if k != "symbols"}),
        (2, lambda doc: {**doc, "version": 99}),
        (2, lambda doc: {**doc, "config": []}),
        (2, lambda doc: edit_design(doc, rotation=lambda p: p[[0] * len(p)],
                                    coding=lambda w: w[[0] * len(w)])),
        (2, lambda doc: edit_design(doc, scattering=lambda s: 3 * s)),
        (2, lambda doc: {**doc, "config": {**doc["config"], "ris_elements": 8,
                                           "blocks": 64}}),
        (2, lambda doc: {**doc, "config": {**doc["config"], "modulation_order": 8}}),
        (2, lambda doc: edit_symbols(doc, data=lambda data: [
            data[i:i + 2] for i in range(0, len(data), 2)])),
        (1, lambda doc: edit_symbols(doc, dims=lambda dims: [dims[0], True])),
    ], ids=["array", "no-symbols", "version-99", "config-array", "rank-1-psi",
            "non-unitary-s", "config-of-other-dims", "symbols-off-alphabet",
            "nested-data", "bool-dims"])
    def test_malformed_fixture_is_invalid(self, capsys, tmp_path, tx, mangle):
        fx = tmp_path / "fx.json"
        args = ["--set", "ris_elements=4", "--set", "blocks=8", "--set", "frames=4",
                "--set", f"tx_antennas={tx}"]
        assert run_cli(capsys, *args, "fixture", "--out", str(fx))[0] == 0
        fx.write_text(json.dumps(mangle(json.loads(fx.read_text()))))
        code, out, err = run_cli(capsys, *args, "simulate", "--receiver", "tucker",
                                 "--from-fixture", str(fx))
        assert code == EXIT_CONFIG
        assert out == ""
        assert json.loads(err)["error"] == "invalid"

    def test_non_finite_fixture_entry_is_invalid(self, capsys, tmp_path):
        # json reads NaN; the fixture must not reach the receivers with it
        fx = tmp_path / "fx.json"
        args = ["--set", "ris_elements=4", "--set", "blocks=8", "--set", "frames=4"]
        assert run_cli(capsys, *args, "fixture", "--out", str(fx))[0] == 0
        doc = json.loads(fx.read_text())
        doc["channels"]["ris_bs"]["data"][3] = float("nan")
        fx.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *args, "simulate", "--receiver", "tucker",
                                 "--from-fixture", str(fx))
        assert code == EXIT_CONFIG
        assert out == ""
        failure = json.loads(err)
        assert failure["error"] == "invalid" and "non-finite" in failure["message"]

    @pytest.mark.parametrize("receiver", ["pakron", "tucker", "zf-oracle"])
    @pytest.mark.parametrize("array", ["ris_bs", "ut_ris", "received_noiseless"])
    def test_all_zero_fixture_array_is_invalid(self, capsys, tmp_path, array,
                                               receiver):
        # a zero channel leaves nothing to estimate (the oracle would score
        # NMSE 0) and a zero recorded tensor nothing to compare with: the
        # fixture is refused where it is loaded, for every receiver
        fx = tmp_path / "fx.json"
        args = ["--set", "ris_elements=4", "--set", "blocks=8", "--set", "frames=4"]
        assert run_cli(capsys, *args, "fixture", "--out", str(fx))[0] == 0
        doc = json.loads(fx.read_text())
        section = doc if array == "received_noiseless" else doc["channels"]
        for encoded in (section[array] if array == "ut_ris" else [section[array]]):
            encoded["data"] = [0.0] * len(encoded["data"])
        fx.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *args, "simulate", "--receiver", receiver,
                                 "--from-fixture", str(fx))
        assert code == EXIT_CONFIG
        assert out == ""
        failure = json.loads(err)
        assert failure["error"] == "invalid" and array in failure["message"]

    @pytest.mark.parametrize("setting", ["solver.max_iters=1", "blocks=3"])
    def test_settings_that_differ_from_the_fixture_are_refused(self, capsys, tmp_path,
                                                               setting):
        fx = tmp_path / "fx.json"
        args = ["--set", "ris_elements=4", "--set", "blocks=8", "--set", "frames=4"]
        assert run_cli(capsys, *args, "fixture", "--out", str(fx))[0] == 0
        code, out, err = run_cli(capsys, *args, "--set", setting, "simulate",
                                 "--from-fixture", str(fx))
        assert code == EXIT_CONFIG and out == ""
        failure = json.loads(err)
        assert failure["error"] == "config"
        assert "--from-fixture" in failure["message"]
        assert setting.split("=")[0] in failure["message"]
        # with no setting given, the fixture's own config runs
        assert run_cli(capsys, "simulate", "--from-fixture", str(fx))[0] == 0

    def test_array_encoding_roundtrip(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        again = decode_array(encode_array(arr))
        assert np.array_equal(arr, again)

    def test_interleaved_layout(self):
        enc = encode_array(np.array([[1 + 2j, 3 + 4j]]))
        assert enc["dims"] == [1, 2]
        assert enc["data"] == [1.0, 2.0, 3.0, 4.0]


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if not k.startswith("wall_ms")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _csv_without_wall(path):
    rows = [r.split(",") for r in path.read_text().splitlines()]
    wall = rows[0].index("wall_ms")
    return [",".join(r[:wall] + r[wall + 1:]) for r in rows]


def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency: importing it would add about 20 MB to
    # every sweep worker and about 0.4 s to start-up
    code = "import sys, bdris.experiments, bdris.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(bdris.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"


def test_import_leaves_the_process_pool_out():
    # run_sweep imports the pool only for jobs > 1: it pulls multiprocessing,
    # socket, queue and logging in, a third of the package's own import time
    code = ("import sys, bdris, bdris.cli\n"
            "print('concurrent.futures.process' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(bdris.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"
