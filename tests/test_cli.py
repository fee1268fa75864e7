import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from shotgfmc import cli, shots
from shotgfmc.cli import main
from shotgfmc.config import ConfigError, RunConfig, from_dict, parse_config
from shotgfmc.exact import ground_state
from shotgfmc.gfmc import GfmcConfig, run_chain
from shotgfmc.model import TfiModel
from shotgfmc.seeding import derive_seed, splitmix64
from shotgfmc.trial import build_table

from oracles import write_chain_csv_rows

# a config file that sets every key, each away from its default
EVERY_KEY = {
    "model": {"L": [4, 6], "J": 1.1, "Gamma": 0.9},
    "trial": {"kind": "exact-groundstate", "lambda1": 0.21, "lambda2": 0.07},
    "gfmc": {"lambda_shift": 9.0, "chain_length": 3000, "warmup": 120, "l_reweight": 60},
    "noise": {"M0": 2, "M": [50, 100]},
    "experiment": {"replicates": 3, "targets": [0.01, 0.03], "base_seed": 77,
                   "fit_window": [0.002, 0.5], "crossing_band": 4.0,
                   "crossing_method": "prefactor", "estimator": "average"},
    "output": {"directory": "elsewhere", "formats": ["json"]},
}


# ---------------------------------------------------------------------------
# config

def test_minimal_config_applies_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"L": 10}}))
    cfg = parse_config(path)
    assert cfg.L_list == [10]
    assert cfg.J == 1.0 and cfg.Gamma == 1.0
    assert cfg.l_reweight == 100
    assert cfg.replicates == 16
    assert cfg.targets == [0.005, 0.01, 0.02]
    assert cfg.chain_length == 50_000
    assert cfg.lambda_shift == "auto"
    assert cfg.trial_kind == "jastrow"
    assert cfg.lambda1 == 0.233 and cfg.lambda2 == 0.083
    assert cfg.fit_window == [0.005, 0.1]


def test_config_accepts_l_list():
    cfg = from_dict({"model": {"L": [6, 8, 10]}})
    assert cfg.L_list == [6, 8, 10]


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key: model.LL"):
        from_dict({"model": {"LL": 4}})
    with pytest.raises(ConfigError, match="unknown key: config.extra"):
        from_dict({"extra": {}})
    with pytest.raises(ConfigError, match="unknown key: gfmc.window"):
        from_dict({"gfmc": {"window": 1}})


def test_config_rejects_chain_length_inequality():
    with pytest.raises(ConfigError, match="chain_length > warmup \\+ l_reweight"):
        from_dict({"gfmc": {"chain_length": 1000, "warmup": 950, "l_reweight": 100}})


def test_config_type_checks():
    with pytest.raises(ConfigError, match="model.L"):
        from_dict({"model": {"L": 9.5}})
    with pytest.raises(ConfigError, match="noise.M"):
        from_dict({"noise": {"M": [100, "many"]}})
    with pytest.raises(ConfigError, match="experiment.base_seed"):
        from_dict({"experiment": {"base_seed": "abc"}})


def test_config_validates_lambda_shift():
    cfg = from_dict({"model": {"L": 10}, "gfmc": {"lambda_shift": 25.0}})
    assert cfg.lambda_shift == 25.0
    with pytest.raises(ConfigError, match="lambda_shift"):
        from_dict({"model": {"L": 10}, "gfmc": {"lambda_shift": 5.0}})


@pytest.mark.parametrize("lam", [float("inf"), float("-inf"), float("nan")])
def test_config_rejects_non_finite_lambda_shift(tmp_path, lam):
    with pytest.raises(ConfigError, match="gfmc.lambda_shift"):
        from_dict({"model": {"L": 4}, "gfmc": {"lambda_shift": lam}})
    # a JSON file spells these Infinity, -Infinity and NaN
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"L": 4}, "gfmc": {"lambda_shift": lam}}))
    with pytest.raises(ConfigError, match="gfmc.lambda_shift"):
        parse_config(path)


def test_cli_gfmc_rejects_infinite_lambda_shift(capsys):
    code, out, err = _run(capsys, ["gfmc", "--L", "4", "--lambda-shift", "inf",
                                   "--chain-length", "2000", "--warmup", "100",
                                   "--replicates", "2"])
    assert code == 1
    assert out == ""
    assert "gfmc.lambda_shift" in err


def test_config_rejects_unknown_output_format():
    assert from_dict({"output": {"formats": ["json"]}}).formats == ["json"]
    with pytest.raises(ConfigError, match="output.formats"):
        from_dict({"output": {"formats": ["cvs"]}})
    cfg = RunConfig()
    cfg.formats = ["csv", "xml"]
    with pytest.raises(ConfigError, match="output.formats"):
        cfg.validate()


def test_config_rejects_empty_targets():
    with pytest.raises(ConfigError, match="experiment.targets"):
        from_dict({"experiment": {"targets": []}})


def test_cli_sweep_rejects_empty_targets(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "sweep", "--L", "4", "--M", "60,120", "--replicates", "2",
        "--chain-length", "2000", "--targets", "", "--threads", "1",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "experiment.targets" in err
    assert not (tmp_path / "out").exists()


def test_config_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed JSON"):
        parse_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "missing.json")


def test_config_rejects_non_object_section():
    with pytest.raises(ConfigError, match="config.model must be a JSON object"):
        from_dict({"model": 5})
    with pytest.raises(ConfigError, match="config.experiment must be a JSON object"):
        from_dict({"experiment": "x"})


def test_config_rejects_non_string_directory():
    with pytest.raises(ConfigError, match="output.directory must be a string"):
        from_dict({"output": {"directory": 5}, "model": {"L": 3}})


def test_config_roundtrip_dict():
    cfg = RunConfig().validate()
    again = from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_config_roundtrip_every_field():
    cfg = from_dict(EVERY_KEY)
    assert cfg == RunConfig(
        L_list=[4, 6], J=1.1, Gamma=0.9, trial_kind="exact-groundstate",
        lambda1=0.21, lambda2=0.07, lambda_shift=9.0, chain_length=3000, warmup=120,
        l_reweight=60, M0=2, M_list=[50, 100], replicates=3, targets=[0.01, 0.03],
        base_seed=77, fit_window=[0.002, 0.5], crossing_band=4.0,
        crossing_method="prefactor", estimator="average", out_dir="elsewhere",
        formats=["json"],
    )
    default = RunConfig()
    for setting in fields(RunConfig):
        assert getattr(cfg, setting.name) != getattr(default, setting.name), setting.name
    assert cfg.to_dict() == EVERY_KEY
    assert from_dict(cfg.to_dict()) == cfg
    keys = [setting.metadata["key"] for setting in fields(RunConfig)]
    assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# seed derivation

def test_derive_seed_deterministic():
    assert derive_seed(1, 2, 3, 4) == derive_seed(1, 2, 3, 4)
    assert 0 <= derive_seed(1, 2, 3, 4) < 2 ** 64


def test_derive_seed_distinct_over_replicates():
    seeds = {derive_seed(42, 10, 1000, rep) for rep in range(16)}
    assert len(seeds) == 16


def test_derive_seed_distinct_over_grid():
    grid = [(L, M, rep) for L in (6, 8, 10, 12)
            for M in (10, 100, 1000, 10_000) for rep in range(16)]
    seeds = {derive_seed(7, *point) for point in grid}
    assert len(seeds) == len(grid)


def test_derive_seed_base_change_moves_every_stream():
    grid = [(L, M, rep) for L in (4, 6) for M in (50, 500) for rep in range(4)]
    a = [derive_seed(1, *point) for point in grid]
    b = [derive_seed(2, *point) for point in grid]
    assert all(x != y for x, y in zip(a, b))


def test_splitmix64_reference_values():
    # splitmix64(i) for seed 0 and 1: published reference outputs
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1


# ---------------------------------------------------------------------------
# CLI

def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_ed_l2(capsys):
    code, out, _ = _run(capsys, ["ed", "--L", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["E0"] == pytest.approx(-2 * np.sqrt(2), abs=1e-9)
    assert payload["residual"] <= 1e-10


def test_cli_ed_bad_size(capsys):
    code, _, err = _run(capsys, ["ed", "--L", "1"])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_cli_ed_rejects_non_finite_tolerance(capsys, tol):
    code, out, err = _run(capsys, ["ed", "--L", "10", "--tol", tol])
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_cli_extrapolate_both_paths(capsys):
    code, out, _ = _run(capsys, [
        "extrapolate", "--a", "29.9", "--b", "0.982", "--L", "40",
        "--layers", "40", "--clock-hz", "1e4", "--reference-shots", "1.6e13",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["fitted"]["shots"] == pytest.approx(29.9 * 2 ** (0.982 * 40), rel=1e-12)
    assert payload["reference"]["shots"] == 1.6e13
    assert payload["reference"]["years"] == pytest.approx(2027.88, rel=1e-3)
    assert "note" in payload


@pytest.mark.parametrize("flag, value", [("--a", "nan"), ("--b", "nan"), ("--b", "inf"),
                                         ("--clock-hz", "inf"), ("--reference-shots", "nan")])
def test_cli_extrapolate_rejects_non_finite_inputs(capsys, flag, value):
    argv = {"--a": "29.9", "--b": "0.982", "--L": "40", flag: value}
    code, out, err = _run(capsys, ["extrapolate", *[t for kv in argv.items() for t in kv]])
    assert code == 1
    assert out == ""
    assert "must be finite" in err


def test_cli_ed_tolerance_is_in_the_manifest(tmp_path, capsys):
    manifests = {}
    for tol in ("1e-4", "1e-10"):
        out_dir = tmp_path / tol
        code, _, err = _run(capsys, ["ed", "--L", "8", "--tol", tol, "--out-dir", str(out_dir)])
        assert code == 0, err
        manifests[tol] = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifests["1e-4"]["inputs"] == {"tol": 1e-4}
    assert manifests["1e-10"]["inputs"] == {"tol": 1e-10}
    assert manifests["1e-4"]["config_hash"] != manifests["1e-10"]["config_hash"]


def test_cli_extrapolate_manifest_records_what_it_reads(tmp_path, capsys):
    manifests = {}
    for a in ("29.9", "30.0"):
        out_dir = tmp_path / a
        code, _, err = _run(capsys, ["extrapolate", "--a", a, "--b", "0.982", "--L", "40",
                                     "--out-dir", str(out_dir)])
        assert code == 0, err
        manifests[a] = json.loads((out_dir / "run_manifest.json").read_text())
    manifest = manifests["29.9"]
    assert manifest["inputs"] == {"a": 29.9, "b": 0.982, "L": 40, "circuit_layers": 40,
                                  "gate_clock_hz": 1e4, "reference_shots": None}
    # no model section: extrapolate never reads model.L
    assert manifest["config"] == {"output": {"directory": str(tmp_path / "29.9"),
                                             "formats": ["csv", "json"]}}
    assert manifests["29.9"]["config_hash"] != manifests["30.0"]["config_hash"]


def test_cli_manifest_hash_of_settings_only_commands_is_unchanged(tmp_path, capsys):
    # sweep, gfmc and scan hash their config alone, as scaling_summary.json records it
    out_dir = tmp_path / "gf"
    code, _, err = _run(capsys, ["gfmc", "--L", "4", "--chain-length", "2000", "--warmup",
                                 "100", "--replicates", "2", "--out-dir", str(out_dir)])
    assert code == 0, err
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert "inputs" not in manifest
    body = {k: v for k, v in manifest["config"].items() if k != "output"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    assert manifest["config_hash"] == hashlib.sha256(canon.encode()).hexdigest()


# Lanczos leaves roundoff-negative entries where the ground state's amplitudes
# are zero (Gamma = 0, degenerate ground level) or below its accuracy
@pytest.mark.parametrize("command", [
    ["scan", "--M0", "1", "--reps", "2"],
    ["gfmc", "--replicates", "2", "--chain-length", "1000", "--warmup", "100"],
])
@pytest.mark.parametrize("L, Gamma", [(4, 0.0), (12, 0.01)])
def test_cli_exact_trial_names_negative_ground_state_entries(tmp_path, capsys, command,
                                                             L, Gamma):
    v = ground_state(TfiModel(L, Gamma=Gamma)).vector
    v = v if v.sum() >= 0 else -v
    assert (v < 0).any()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"L": L, "Gamma": Gamma},
                               "trial": {"kind": "exact-groundstate"}}))
    code, out, err = _run(capsys, [*command, "--config", str(cfg),
                                   "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert out == ""
    assert f"model.Gamma = {Gamma!r}" in err
    assert f"{int((v < 0).sum())} negative entries" in err
    assert "most negative -" in err


def test_cli_scan_writes_csv_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "scanout"
    code, out, _ = _run(capsys, [
        "scan", "--L", "4", "--M0", "1", "--reps", "2",
        "--out-dir", str(out_dir), "--seed", "5",
    ])
    assert code == 0
    csv_text = (out_dir / "local_energy_scan.csv").read_text()
    assert csv_text.startswith("# schema=local_energy_scan.v1")
    assert ",NA," in csv_text
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["command"] == "scan"
    assert manifest["base_seed"] == 5
    assert "local_energy_scan.csv" in manifest["outputs"]
    assert manifest["versions"]["shotgfmc"]
    assert len(manifest["config_hash"]) == 64


def test_cli_gfmc_noiseless_and_dump(tmp_path, capsys):
    out_dir = tmp_path / "gf"
    code, out, _ = _run(capsys, [
        "gfmc", "--L", "4", "--chain-length", "4000", "--warmup", "100",
        "--replicates", "2", "--dump-chain", "--out-dir", str(out_dir),
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["M"] is None
    assert len(payload["reweighted"]["per_replicate"]) == 2
    assert abs(payload["error_per_site"]["reweighted"]) < 0.05
    chain = (out_dir / "chain_0.csv").read_text().splitlines()
    assert chain[0] == "# schema=chain_record.v1"
    assert chain[1] == "n,state,b,e"
    n, state, b, e = chain[2].split(",")
    assert float(e) == pytest.approx(payload["lambda_shift"] - float(b), abs=1e-12)


def test_cli_gfmc_noisy(capsys):
    code, out, _ = _run(capsys, [
        "gfmc", "--L", "4", "--M", "200", "--chain-length", "3000",
        "--warmup", "100", "--replicates", "2", "--seed", "3",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["M"] == 200


def test_cli_gfmc_shot_budget_is_in_the_config_hash(tmp_path, capsys):
    manifests = {}
    for M in (200, 400):
        out_dir = tmp_path / f"M{M}"
        code, _, err = _run(capsys, [
            "gfmc", "--L", "4", "--M", str(M), "--chain-length", "2000",
            "--warmup", "100", "--replicates", "2", "--out-dir", str(out_dir),
        ])
        assert code == 0, err
        manifests[M] = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifests[200]["config"]["noise"]["M"] == [200]
    assert manifests[400]["config"]["noise"]["M"] == [400]
    assert manifests[200]["config_hash"] != manifests[400]["config_hash"]


def test_cli_gfmc_rejects_several_shot_budgets(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"L": 4}, "noise": {"M": [200, 400]}}))
    code, _, err = _run(capsys, ["gfmc", "--config", str(cfg), "--chain-length", "2000",
                                 "--warmup", "100", "--replicates", "2"])
    assert code == 1
    assert "noise.M" in err
    code, out, err = _run(capsys, ["gfmc", "--config", str(cfg), "--M", "300",
                                   "--chain-length", "2000", "--warmup", "100",
                                   "--replicates", "2"])
    assert code == 0, err
    assert json.loads(out)["M"] == 300


def _chain_record(chain_length=6000):
    m = TfiModel(6)
    table = build_table("exact-groundstate", m, vector=ground_state(m).vector)
    cfg = GfmcConfig(chain_length=chain_length, warmup=100, l_reweight=50)
    return run_chain(cfg, [table], m, [np.random.default_rng(5)])[0]


@pytest.mark.parametrize("chunk", [shots.CSV_CHUNK_ROWS, 7])
def test_chain_csv_bytes_match_row_loop_oracle(tmp_path, monkeypatch, row_chunks, chunk):
    monkeypatch.setattr(shots, "CSV_CHUNK_ROWS", chunk)
    record = _chain_record()
    assert len(record) > shots.CSV_CHUNK_ROWS
    cli._write_chain_csv(str(tmp_path / "fast.csv"), record)
    assert row_chunks == [(lo, min(lo + chunk, len(record)))
                          for lo in range(0, len(record), chunk)]
    write_chain_csv_rows(record, tmp_path / "rows.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_chain_csv_run_of_stays_across_a_chunk_boundary(tmp_path, monkeypatch, row_chunks):
    # one (state, b, e) row repeated on both sides of a chunk boundary: each
    # chunk formats its own words, and both must match the row loop
    record = _chain_record(3000)
    starts = np.flatnonzero(np.diff(record.states, prepend=-1))
    lengths = np.diff(starts, append=len(record))
    longest = int(np.argmax(lengths))
    assert lengths[longest] >= 4
    chunk = int(starts[longest] + lengths[longest] // 2)
    monkeypatch.setattr(shots, "CSV_CHUNK_ROWS", chunk)
    cli._write_chain_csv(str(tmp_path / "fast.csv"), record)
    assert row_chunks[1][0] == chunk
    assert record.states[chunk - 1] == record.states[chunk]
    assert record.b_values[chunk - 1] == record.b_values[chunk]
    write_chain_csv_rows(record, tmp_path / "rows.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"L": 6}, "gfmc": {"chain_length": 3000,
                                                           "warmup": 100}}))
    code, out, _ = _run(capsys, ["ed", "--config", str(cfg), "--L", "2"])
    assert code == 0
    assert json.loads(out)["L"] == 2


def test_cli_sweep_end_to_end_deterministic(tmp_path, capsys):
    def run(dirname):
        out_dir = tmp_path / dirname
        code, out, err = _run(capsys, [
            "sweep", "--L", "4", "--M", "60,120", "--replicates", "3",
            "--chain-length", "3000", "--out-dir", str(out_dir),
            "--seed", "11", "--threads", "1",
        ])
        assert code == 0, err
        return out_dir

    d1 = run("a")
    d2 = run("b")
    assert (d1 / "sweep_points.csv").read_bytes() == (d2 / "sweep_points.csv").read_bytes()
    assert not (d1 / "e0_cache.json").exists()
    s1 = json.loads((d1 / "scaling_summary.json").read_text())
    s2 = json.loads((d2 / "scaling_summary.json").read_text())
    assert s1 == s2
    assert s1["schema_version"] == "scaling_summary.v1"
    assert s1["provenance"]["base_seed"] == 11
    manifest = json.loads((d1 / "run_manifest.json").read_text())
    assert set(manifest["outputs"]) >= {"sweep_points.csv", "scaling_summary.json"}
    rows = (d1 / "sweep_points.csv").read_text().splitlines()
    assert len(rows) == 2 + 2 * 3


@pytest.mark.parametrize("stale", [
    '{"schema_version": "e0_cache.v1", "entries": {"(4,1.0,1.0)": '
    '{"E0": -5.0, "residual": 0.0, "tol": 1e-10, "iterations": 1}}}',
    "[]",
    '{"entries": {"(4,1.0,1.0)": {"E0": -5.0}}}',
    "not json",
], ids=["stale-entry", "list", "entry-without-residual", "not-json"])
def test_cli_sweep_ignores_what_the_output_directory_holds(tmp_path, capsys, stale):
    argv = ["sweep", "--trial", "jastrow", "--L", "4", "--M", "60,120", "--replicates", "2",
            "--chain-length", "2000", "--seed", "11", "--threads", "1"]
    fresh = tmp_path / "fresh"
    code, fresh_out, err = _run(capsys, [*argv, "--out-dir", str(fresh)])
    assert code == 0, err
    used = tmp_path / "used"
    used.mkdir()
    (used / "e0_cache.json").write_text(stale)
    code, used_out, err = _run(capsys, [*argv, "--out-dir", str(used)])
    assert code == 0, err
    assert used_out == fresh_out
    for name in ("sweep_points.csv", "scaling_summary.json"):
        assert (used / name).read_bytes() == (fresh / name).read_bytes()
    assert (used / "e0_cache.json").read_text() == stale


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


# every flag that overrides a setting, on top of a file that sets every key
OVERRIDES = {
    "ed": (["--L", "5", "--J", "0.8", "--Gamma", "1.2"],
           {"model.L": [5], "model.J": 0.8, "model.Gamma": 1.2}),
    "scan": (["--L", "5", "--M0", "3", "--reps", "2", "--trial", "jastrow",
              "--lambda1", "0.3", "--lambda2", "0.05"],
             {"model.L": [5], "noise.M0": 3, "experiment.replicates": 2,
              "trial.kind": "jastrow", "trial.lambda1": 0.3, "trial.lambda2": 0.05}),
    "gfmc": (["--L", "5", "--trial", "jastrow", "--M", "800", "--replicates", "2",
              "--chain-length", "2000", "--warmup", "50", "--l-reweight", "40",
              "--lambda-shift", "7.5"],
             {"model.L": [5], "trial.kind": "jastrow", "noise.M": [800],
              "experiment.replicates": 2, "gfmc.chain_length": 2000, "gfmc.warmup": 50,
              "gfmc.l_reweight": 40, "gfmc.lambda_shift": 7.5}),
    "sweep": (["--L", "4", "--M", "60,120", "--trial", "jastrow", "--replicates", "2",
               "--chain-length", "2000", "--targets", "0.02,0.04", "--window", "0.001,0.4",
               "--band", "6", "--crossing-method", "local", "--estimator", "reweighted",
               "--threads", "1"],
              {"model.L": [4], "noise.M": [60, 120], "trial.kind": "jastrow",
               "experiment.replicates": 2, "gfmc.chain_length": 2000,
               "experiment.targets": [0.02, 0.04], "experiment.fit_window": [0.001, 0.4],
               "experiment.crossing_band": 6.0, "experiment.crossing_method": "local",
               "experiment.estimator": "reweighted"}),
}


@pytest.mark.parametrize("command", sorted(OVERRIDES))
def test_cli_every_flag_overrides_its_config_key(tmp_path, capsys, command):
    cfg_path = tmp_path / "every.json"
    cfg_path.write_text(json.dumps(EVERY_KEY))
    out_dir = tmp_path / "out"
    flags, overridden = OVERRIDES[command]
    code, _, err = _run(capsys, [command, "--config", str(cfg_path), *flags,
                                 "--seed", "8", "--out-dir", str(out_dir)])
    assert code == 0, err
    expected = json.loads(json.dumps(EVERY_KEY))
    overridden = {**overridden, "experiment.base_seed": 8, "output.directory": str(out_dir)}
    for path, value in overridden.items():
        section, key = path.split(".")
        expected[section][key] = value
    config = json.loads((out_dir / "run_manifest.json").read_text())["config"]
    assert config.keys() == expected.keys()
    for section, values in expected.items():
        assert config[section].keys() == values.keys(), section
        for key, value in values.items():
            assert config[section][key] == value, f"{section}.{key}"
