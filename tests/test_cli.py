import hashlib
import json
import weakref
from dataclasses import fields

import numpy as np
import pytest

from shotgfmc import __version__, cli, exact, gfmc, scaling, shots
from shotgfmc.cli import main
from shotgfmc.config import ConfigError, RunConfig, from_dict, parse_config
from shotgfmc.exact import ground_state
from shotgfmc.gfmc import GfmcConfig, run_chain
from shotgfmc.model import MAX_TABLE_L, TfiModel
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


# each model and gfmc rule: a config that breaks it, and the library call
# (TfiModel or GfmcConfig) whose ValueError states it
LIBRARY_RULES = {
    "model.L": ({"model": {"L": 1}}, lambda: TfiModel(1)),
    "model.J": ({"model": {"J": -1.0}}, lambda: TfiModel(10, J=-1.0)),
    "model.Gamma": ({"model": {"Gamma": -0.5}}, lambda: TfiModel(10, Gamma=-0.5)),
    # the shift is checked for every size, not only the first
    "gfmc.lambda_shift": ({"model": {"L": [4, 10]}, "gfmc": {"lambda_shift": 8.0}},
                          lambda: GfmcConfig(lambda_shift=8.0).resolve_lambda_shift(TfiModel(10))),
    "gfmc.chain_length": ({"gfmc": {"chain_length": 1000, "warmup": 950, "l_reweight": 100}},
                          lambda: GfmcConfig(chain_length=1000, warmup=950, l_reweight=100)),
    "gfmc.warmup": ({"gfmc": {"warmup": -1}}, lambda: GfmcConfig(warmup=-1)),
    "gfmc.l_reweight": ({"gfmc": {"l_reweight": 0}}, lambda: GfmcConfig(l_reweight=0)),
}


@pytest.mark.parametrize("key", list(LIBRARY_RULES))
def test_config_states_model_and_gfmc_rules_in_the_library_words(tmp_path, capsys,
                                                                  monkeypatch, key):
    config, library = LIBRARY_RULES[key]
    with pytest.raises(ValueError) as rule:
        library()
    message = f"{key.split('.')[0]}.{rule.value}"
    assert message.startswith(f"{key} ")
    with pytest.raises(ConfigError) as exc:
        from_dict(config)
    assert str(exc.value) == message
    argv = _with_config(tmp_path, ["gfmc", "--out-dir", "given"], config)
    run = _empty_run_dir(tmp_path, monkeypatch)
    assert _run(capsys, argv) == (1, "", f"error: {message}\n")
    assert list(run.iterdir()) == []


@pytest.mark.parametrize("gfmc, message", [
    ({"chain_length": 1000, "warmup": 950, "l_reweight": 100},
     "gfmc.chain_length must satisfy chain_length > warmup + l_reweight (1000 <= 950 + 100)"),
    ({"warmup": -1}, "gfmc.warmup must be >= 0"),
    ({"l_reweight": 0}, "gfmc.l_reweight must be >= 1"),
])
def test_cli_chain_rule_messages_keep_their_text(tmp_path, capsys, gfmc, message):
    argv = _with_config(tmp_path, ["gfmc"], {"gfmc": gfmc})
    assert _run(capsys, argv) == (1, "", f"error: {message}\n")


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


# every real setting, each with the value it is given in a config file
REAL_SETTINGS = [
    ("model", "J", "{}"), ("model", "Gamma", "{}"), ("trial", "lambda1", "{}"),
    ("trial", "lambda2", "{}"), ("experiment", "targets", "[0.01, {}]"),
    ("experiment", "fit_window", "[0.001, {}]"), ("experiment", "crossing_band", "{}"),
]


@pytest.mark.parametrize("section, key, text", REAL_SETTINGS)
@pytest.mark.parametrize("spelling", ["Infinity", "-Infinity", "NaN"])
def test_config_file_rejects_non_finite_reals(tmp_path, section, key, text, spelling):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"{section}": {{"{key}": {text.format(spelling)}}}}}')
    with pytest.raises(ConfigError, match=f"{section}.{key} must be finite"):
        parse_config(path)


@pytest.mark.parametrize("flags, key", [
    (["--band", "inf"], "experiment.crossing_band"),
    (["--window", "0.001,inf"], "experiment.fit_window"),
    (["--targets", "inf"], "experiment.targets"),
    (["--targets", "nan"], "experiment.targets"),
])
def test_cli_sweep_rejects_non_finite_flags(tmp_path, capsys, flags, key):
    code, out, err = _run(capsys, [
        "sweep", "--L", "4", "--M", "60,120", "--replicates", "2",
        "--chain-length", "2000", "--threads", "1",
        "--out-dir", str(tmp_path / "out"), *flags,
    ])
    assert code == 1
    assert out == ""
    assert f"{key} must be finite" in err
    assert not (tmp_path / "out").exists()


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


def test_config_rejects_repeated_targets():
    with pytest.raises(ConfigError, match="experiment.targets"):
        from_dict({"experiment": {"targets": [0.01, 0.01, 0.02]}})


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


def test_config_rejects_zero_replicates():
    assert from_dict({"experiment": {"replicates": 1}}).replicates == 1
    with pytest.raises(ConfigError, match="experiment.replicates"):
        from_dict({"experiment": {"replicates": 0}})


def test_cli_scan_runs_one_replicate(tmp_path, capsys):
    code, _, err = _run(capsys, ["scan", "--L", "4", "--M0", "1", "--reps", "1",
                                 "--out-dir", str(tmp_path)])
    assert code == 0, err
    lines = (tmp_path / "local_energy_scan.csv").read_text().splitlines()
    assert len(lines) == 2 + 16
    assert {line.split(",")[0] for line in lines[2:]} == {"0"}


def test_cli_gfmc_one_replicate_omits_std_error(capsys):
    code, out, err = _run(capsys, ["gfmc", "--L", "4", "--replicates", "1",
                                   "--chain-length", "1000", "--warmup", "100"])
    assert code == 0, err
    payload = json.loads(out)
    for estimator in ("reweighted", "average"):
        assert len(payload[estimator]["per_replicate"]) == 1
        assert payload[estimator]["mean"] == payload[estimator]["per_replicate"][0]
        assert "std_error" not in payload[estimator]


def test_cli_sweep_rejects_one_replicate(tmp_path, capsys):
    code, out, err = _run(capsys, [
        "sweep", "--L", "4", "--M", "60,120", "--replicates", "1",
        "--chain-length", "2000", "--threads", "1", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert out == ""
    assert "at least 2 replicates" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_cli_sweep_rejects_threads_below_one(tmp_path, capsys, threads):
    code, out, err = _run(capsys, [
        "sweep", "--L", "4", "--M", "60,120", "--replicates", "2",
        "--chain-length", "2000", "--threads", threads, "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert out == ""
    assert f"threads must be >= 1, got {threads}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_cli_scan_rejects_threads_below_one_before_any_solve(tmp_path, capsys, monkeypatch,
                                                             threads):
    monkeypatch.setattr(cli, "build_trial", lambda *args: pytest.fail("solved first"))
    code, out, err = _run(capsys, [
        "scan", "--L", "4", "--M0", "2", "--reps", "2", "--threads", threads,
        "--out-dir", str(tmp_path / "out"),
    ])
    assert (code, out, err) == (1, "", f"error: threads must be >= 1, got {threads}\n")
    assert not (tmp_path / "out").exists()


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


# Gamma = 0 has a degenerate ground level and is rejected whatever the vector;
# at small Gamma Lanczos leaves roundoff-negative entries where the ground
# state's amplitudes lie below its accuracy
@pytest.mark.parametrize("command", [
    ["scan", "--M0", "1", "--reps", "2"],
    ["gfmc", "--replicates", "2", "--chain-length", "1000", "--warmup", "100"],
    ["sweep", "--replicates", "2", "--chain-length", "2000", "--threads", "1"],
])
@pytest.mark.parametrize("L, Gamma", [(4, 0.0), (12, 0.01)])
def test_cli_exact_trial_names_negative_ground_state_entries(tmp_path, capsys, command,
                                                             L, Gamma):
    v = ground_state(TfiModel(L, Gamma=Gamma)).vector
    v = v if v.sum() >= 0 else -v
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"L": L, "Gamma": Gamma},
                               "trial": {"kind": "exact-groundstate"}}))
    code, out, err = _run(capsys, [*command, "--config", str(cfg),
                                   "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert out == ""
    assert f"model.Gamma = {Gamma!r}" in err
    if Gamma == 0:
        # the folded solve returns an exact, nonnegative vector at L = 4
        assert not (v < 0).any()
        assert "the ground level is degenerate" in err
        assert "negative entries" not in err
    else:
        assert (v < 0).any()
        assert f"{int((v < 0).sum())} negative entries" in err
        assert "most negative -" in err


@pytest.mark.parametrize("command", [
    ["scan", "--M0", "1", "--reps", "2"],
    ["gfmc", "--replicates", "2", "--chain-length", "1000", "--warmup", "100"],
    ["sweep", "--replicates", "2", "--chain-length", "2000", "--threads", "1"],
])
@pytest.mark.parametrize("L, Gamma", [(4, 0.0), (12, 0.01)])
def test_cli_rejected_exact_trial_leaves_no_directory(tmp_path, capsys, monkeypatch, command,
                                                      L, Gamma):
    solved = []

    def counting_ground_state(m, **kwargs):
        solved.append(m.L)
        return ground_state(m, **kwargs)

    monkeypatch.setattr(cli, "ground_state", counting_ground_state)
    monkeypatch.setattr(scaling, "ground_state", counting_ground_state)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"L": L, "Gamma": Gamma},
                               "trial": {"kind": "exact-groundstate"}}))
    code, out, err = _run(capsys, [*command, "--config", str(cfg),
                                   "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert out == ""
    assert f"model.Gamma = {Gamma!r}" in err
    assert not (tmp_path / "out").exists()
    # Gamma = 0 is rejected by rule before the solve; Gamma = 0.01 only after it
    assert solved == ([] if Gamma == 0 else [L])


@pytest.fixture
def solves_and_draws(monkeypatch):
    """The solves of scaling.ground_state and the draws of shots.sample_counts,
    in call order."""
    calls = []

    def counting_ground_state(m, **kwargs):
        calls.append(("solve", m.L))
        return ground_state(m, **kwargs)

    def counting_sample_counts(p, M, rng):
        calls.append(("draw", M))
        return sample_counts(p, M, rng)

    sample_counts = shots.sample_counts
    monkeypatch.setattr(scaling, "ground_state", counting_ground_state)
    monkeypatch.setattr(shots, "sample_counts", counting_sample_counts)
    return calls


def test_cli_gfmc_rejects_the_shift_before_any_solve_or_draw(tmp_path, capsys,
                                                              solves_and_draws):
    # the Jastrow trial at Gamma = 0 has no auto shift; gfmc, like sweep,
    # checks the size through scaling.check_size before it builds the trial
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"Gamma": 0.0}}))
    code, out, err = _run(capsys, ["gfmc", "--trial", "jastrow", "--L", "8", "--M", "100",
                                   "--replicates", "2", "--chain-length", "3000",
                                   "--config", str(cfg)])
    assert code == 1
    assert out == ""
    assert "auto shift needs Gamma > 0" in err
    assert solves_and_draws == []


# rng.multinomial takes M up to 2^63 - 1; scan draws M = M0 * 2^L
@pytest.mark.parametrize("command, key", [
    (["gfmc", "--L", "6", "--M", str(10**19), "--replicates", "2",
      "--chain-length", "3000"], "noise.M"),
    (["sweep", "--L", "6", "--M", f"100,{10**19}", "--replicates", "2",
      "--chain-length", "3000", "--threads", "1"], "noise.M"),
    (["scan", "--L", "6", "--M0", str(2**57), "--reps", "2",
      "--trial", "exact-groundstate"], "noise.M0"),
], ids=["gfmc", "sweep", "scan"])
def test_cli_rejects_a_shot_budget_above_int64_before_any_solve(tmp_path, capsys,
                                                                 solves_and_draws,
                                                                 command, key):
    code, out, err = _run(capsys, [*command, "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert out == ""
    assert f"error: {key} " in err and "2^63 - 1" in err
    assert solves_and_draws == []
    assert not (tmp_path / "out").exists()


def test_config_shot_budgets_reach_the_int64_limit():
    largest = 2**63 - 1
    RunConfig(L_list=[6], M0=largest >> 6, M_list=[1, largest]).validate()
    with pytest.raises(ConfigError, match=r"noise\.M entries .* got 9223372036854775808"):
        RunConfig(M_list=[1, largest + 1]).validate()
    # every size counts, not only the first
    with pytest.raises(ConfigError, match=r"noise\.M0 .* got 144115188075855871 \* 2\^8"):
        RunConfig(L_list=[6, 8], M0=largest >> 6).validate()


def test_cli_ed_rejects_sizes_above_the_table_cap(capsys, monkeypatch):
    def build(L):
        raise AssertionError("orbits built for an oversized chain")

    monkeypatch.setattr(exact, "symmetry_orbits", build)
    code, out, err = _run(capsys, ["ed", "--L", str(MAX_TABLE_L + 1)])
    assert code == 1
    assert out == ""
    assert f"needs L <= {MAX_TABLE_L}, got L={MAX_TABLE_L + 1}" in err


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


def test_cli_scan_bytes_do_not_depend_on_threads(tmp_path, capsys):
    def run(threads):
        out_dir = tmp_path / threads
        code, _, err = _run(capsys, ["scan", "--L", "5", "--M0", "2", "--reps", "3",
                                     "--seed", "5", "--threads", threads,
                                     "--out-dir", str(out_dir)])
        assert code == 0, err
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        for key in ("created_at", "wall_time_s"):
            del manifest[key]
        assert manifest["config"]["output"].pop("directory") == str(out_dir)
        return (out_dir / "local_energy_scan.csv").read_bytes(), manifest

    assert run("1") == run("2")
    assert sorted(p.name for p in (tmp_path / "2").iterdir()) == [
        "local_energy_scan.csv", "run_manifest.json"]


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


@pytest.mark.parametrize("budget", [[], ["--M", "300"]])
def test_cli_gfmc_dump_does_not_depend_on_the_population_cap(tmp_path, capsys, monkeypatch,
                                                             budget):
    def run(name):
        out_dir = tmp_path / name
        code, out, _ = _run(capsys, ["gfmc", "--L", "5", *budget, "--chain-length", "3000",
                                     "--warmup", "100", "--replicates", "3", "--seed", "8",
                                     "--dump-chain", "--out-dir", str(out_dir)])
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir() if p.name != "run_manifest.json")
        return out, {n: (out_dir / n).read_bytes() for n in names}

    default = run("default")
    assert gfmc.max_population(GfmcConfig(chain_length=3000, warmup=100)) >= 3
    monkeypatch.setattr(gfmc, "POPULATION_RECORD_BYTES", 1)
    single = run("single")
    assert sorted(default[1]) == ["chain_0.csv", "chain_1.csv", "chain_2.csv",
                                  "gfmc_result.json"]
    assert single == default


def test_cli_gfmc_holds_no_record_while_the_next_population_runs(capsys, monkeypatch):
    monkeypatch.setattr(gfmc, "POPULATION_RECORD_BYTES", 1)
    earlier = []

    def tracking_run_chain(cfg, amps, m, rngs):
        # a record keeps its whole population's arrays alive
        assert all(ref() is None for ref in earlier)
        records = run_chain(cfg, amps, m, rngs)
        earlier.extend(weakref.ref(r) for r in records)
        return records

    monkeypatch.setattr(scaling, "run_chain", tracking_run_chain)
    code, _, _ = _run(capsys, ["gfmc", "--L", "4", "--M", "200", "--chain-length", "2000",
                               "--warmup", "100", "--replicates", "3"])
    assert code == 0
    assert len(earlier) == 3


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


@pytest.mark.parametrize("estimator", ["reweighted", "average"])
def test_cli_gfmc_and_sweep_give_each_walker_the_same_energy(tmp_path, capsys, estimator):
    # walker (M, rep) gets the same table, generator and chain in both
    # commands, and each estimator reaches both through scaling.ESTIMATORS
    chain = ["--L", "6", "--M", "200", "--replicates", "3", "--chain-length", "3000",
             "--seed", "5"]
    code, out, err = _run(capsys, ["gfmc", *chain])
    assert code == 0, err
    per_replicate = json.loads(out)[estimator]["per_replicate"]
    code, _, err = _run(capsys, ["sweep", *chain, "--estimator", estimator, "--threads", "2",
                                 "--out-dir", str(tmp_path / "sweep")])
    assert code == 0, err
    rows = (tmp_path / "sweep" / "sweep_points.csv").read_text().splitlines()[2:]
    assert [row.split(",")[:4] for row in rows] == [["6", "200", "jastrow", str(rep)]
                                                    for rep in range(3)]
    assert [float(row.split(",")[4]) for row in rows] == per_replicate


def test_cli_sweep_summary_is_summarize_plus_provenance(tmp_path, capsys, monkeypatch):
    swept = []

    def capturing_run_sweep(*args, **kwargs):
        swept.extend(run_sweep(*args, **kwargs))
        return swept

    run_sweep = cli.run_sweep
    monkeypatch.setattr(cli, "run_sweep", capturing_run_sweep)
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, [
        "sweep", "--L", "4", "--M", "60,120", "--replicates", "3",
        "--chain-length", "3000", "--out-dir", str(out_dir), "--seed", "11", "--threads", "1",
    ])
    assert code == 0, err
    written = json.loads((out_dir / "scaling_summary.json").read_text())
    assert json.loads(out) == written
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert written.pop("provenance") == {"base_seed": 11,
                                         "config_hash": manifest["config_hash"],
                                         "tool_version": __version__}
    assert written == json.loads(json.dumps(scaling.summarize(swept)))


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


# every command at a tiny size: its argv, its config file (None: none), the
# files it writes and whether it writes them without --out-dir
WRITERS = {
    "ed": (["ed", "--L", "4"], None, ["ed.json"], False),
    "scan": (["scan", "--L", "4", "--M0", "1", "--reps", "2"], None,
             ["local_energy_scan.csv"], True),
    "gfmc": (["gfmc", "--L", "4", "--chain-length", "1000", "--warmup", "100",
              "--replicates", "2"], None, ["gfmc_result.json"], False),
    "gfmc-dump-chain": (["gfmc", "--L", "4", "--chain-length", "1000", "--warmup", "100",
                         "--replicates", "2", "--dump-chain"], None,
                        ["chain_0.csv", "chain_1.csv", "gfmc_result.json"], True),
    "sweep": (["sweep", "--L", "4", "--M", "60,120", "--replicates", "2",
               "--chain-length", "2000", "--threads", "1"], None,
              ["scaling_summary.json", "sweep_points.csv"], True),
    # no file format still writes the directory with its manifest
    "sweep-no-formats": (["sweep", "--L", "4", "--M", "60,120", "--replicates", "2",
                          "--chain-length", "2000", "--threads", "1"],
                         {"output": {"formats": []}}, [], True),
    "extrapolate": (["extrapolate", "--a", "29.9", "--b", "0.982", "--L", "40"], None,
                    ["extrapolate.json"], False),
}

# every command with an input that only its compute rejects
FAILS = {
    "ed": (["ed", "--L", "27"], None),
    "scan": (["scan", "--L", "4", "--reps", "2"], None),
    "scan-threads": (["scan", "--L", "4", "--M0", "2", "--reps", "2", "--threads", "0"], None),
    "gfmc": (["gfmc", "--L", "4", "--chain-length", "1000", "--warmup", "100",
              "--replicates", "2"], {"noise": {"M": [1, 2]}}),
    "sweep": (["sweep", "--L", "4", "--M", "60,120", "--replicates", "1",
               "--chain-length", "2000", "--threads", "1"], None),
    "extrapolate": (["extrapolate", "--a", "-1", "--b", "0.982", "--L", "40"], None),
    # finite inputs whose shot count or wall time overflows a float
    "extrapolate-time": (["extrapolate", "--a", "29.9", "--b", "0.982", "--L", "40",
                          "--clock-hz", "1e-300"], None),
    "extrapolate-power": (["extrapolate", "--a", "29.9", "--b", "1e10", "--L", "40"], None),
    "extrapolate-shots": (["extrapolate", "--a", "1e300", "--b", "1", "--L", "40"], None),
    # finite inputs whose shot count underflows to 0, and inputs out of range
    "extrapolate-underflow": (["extrapolate", "--a", "29.9", "--b", "-100", "--L", "40"], None),
    "extrapolate-time-underflow": (["extrapolate", "--a", "1e-300", "--b", "0", "--L", "1",
                                    "--clock-hz", "1e300"], None),
    "extrapolate-huge-layers": (["extrapolate", "--a", "1", "--b", "1", "--L", "4",
                                 "--layers", "1" + "0" * 400], None),
    "extrapolate-zero-layers": (["extrapolate", "--a", "1", "--b", "1", "--L", "4",
                                 "--layers", "0"], None),
    "extrapolate-negative-clock": (["extrapolate", "--a", "1", "--b", "1", "--L", "4",
                                    "--clock-hz", "-5"], None),
    # ed, scan and gfmc run one size; they must not drop the others silently
    "ed-sizes": (["ed"], {"model": {"L": [4, 6]}}),
    "scan-sizes": (["scan", "--M0", "2", "--reps", "2"], {"model": {"L": [4, 6]}}),
    "gfmc-sizes": (["gfmc", "--chain-length", "1000", "--warmup", "100",
                    "--replicates", "2"], {"model": {"L": [4, 6]}}),
}


def _with_config(tmp_path, argv, config):
    """argv, plus --config naming config written to tmp_path."""
    if config is None:
        return argv
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return [*argv, "--config", str(path)]


def _empty_run_dir(tmp_path, monkeypatch):
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    return run


@pytest.mark.parametrize("case", list(WRITERS))
def test_cli_output_directory_holds_the_manifest_and_its_outputs(tmp_path, capsys,
                                                                 monkeypatch, case):
    argv, config, outputs, writes_by_default = WRITERS[case]
    argv = _with_config(tmp_path, argv, config)
    run = _empty_run_dir(tmp_path, monkeypatch)
    code, _, err = _run(capsys, argv)
    assert code == 0, err
    assert [p.name for p in run.iterdir()] == (["out"] if writes_by_default else [])
    code, _, err = _run(capsys, [*argv, "--out-dir", str(tmp_path / "given")])
    assert code == 0, err
    for out_dir in [tmp_path / "given", *([run / "out"] if writes_by_default else [])]:
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["outputs"] == outputs
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["run_manifest.json", *outputs])


@pytest.mark.parametrize("case", list(WRITERS))
def test_cli_failed_write_prints_no_result(tmp_path, capsys, case):
    # every command writes its files before it prints, so a write that
    # fails leaves stdout empty
    argv, config, _, _ = WRITERS[case]
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = _run(capsys, [*_with_config(tmp_path, argv, config),
                                   "--out-dir", str(blocker)])
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("case", list(FAILS))
@pytest.mark.parametrize("out_dir", [[], ["--out-dir", "given"]], ids=["default", "given"])
def test_cli_failed_compute_prints_nothing_and_writes_no_directory(tmp_path, capsys,
                                                                   monkeypatch, case, out_dir):
    argv, config = FAILS[case]
    argv = _with_config(tmp_path, argv, config)
    run = _empty_run_dir(tmp_path, monkeypatch)
    code, out, err = _run(capsys, [*argv, *out_dir])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert list(run.iterdir()) == []


OVERFLOWS = {
    "extrapolate-time": "wall time shots*circuit_layers/gate_clock_hz overflows a float at "
                        "shots = 19958569836988.44, circuit_layers = 40, gate_clock_hz = 1e-300",
    "extrapolate-power": "shot count a*2^(b*L) overflows a float at "
                         "a = 29.9, b = 10000000000.0, L = 40",
    "extrapolate-shots": "shot count a*2^(b*L) overflows a float at a = 1e+300, b = 1.0, L = 40",
}


@pytest.mark.parametrize("case", list(OVERFLOWS))
def test_cli_extrapolate_names_the_inputs_that_overflow(capsys, case):
    argv, _ = FAILS[case]
    assert _run(capsys, argv) == (1, "", f"error: {OVERFLOWS[case]}\n")


REJECTS = {
    "extrapolate-underflow": "shot count a*2^(b*L) underflows to 0 at a = 29.9, b = -100.0, L = 40",
    "extrapolate-time-underflow": "wall time shots*circuit_layers/gate_clock_hz underflows to 0 "
                                  "at shots = 1e-300, circuit_layers = 40, gate_clock_hz = 1e+300",
    "extrapolate-huge-layers": "circuit_layers must be finite, got an integer too large for a float",
    "extrapolate-zero-layers": "circuit_layers must be positive, got 0",
    "extrapolate-negative-clock": "gate_clock_hz must be positive, got -5.0",
}


@pytest.mark.parametrize("case", list(REJECTS))
def test_cli_extrapolate_names_the_input_it_rejects(capsys, case):
    argv, _ = FAILS[case]
    assert _run(capsys, argv) == (1, "", f"error: {REJECTS[case]}\n")


def test_cli_writes_and_prints_no_non_finite_number(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "extrapolate_runtime",
                        lambda *args: scaling.RuntimeEstimate(1.0, float("inf"), float("inf")))
    code, out, err = _run(capsys, ["extrapolate", "--a", "1", "--b", "1", "--L", "4"])
    assert (code, out) == (1, "")
    assert "Out of range float values are not JSON compliant" in err
    with pytest.raises(ValueError):
        cli._write_json(str(tmp_path / "x.json"), {"x": float("nan")})


def test_cli_sweep_records_a_crossing_that_overflows(tmp_path, capsys):
    # the prefactor crossing (c/eps)^2 overflows at so small a target
    code, out, err = _run(capsys, [
        "sweep", "--L", "4", "--M", "30,60,120", "--replicates", "2",
        "--chain-length", "2000", "--threads", "1", "--crossing-method", "prefactor",
        "--targets", "1e-200,0.01", "--window", "1e-12,10", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0, err
    summary = json.loads((tmp_path / "out" / "scaling_summary.json").read_text())
    assert json.loads(out) == summary
    entry = summary["per_L"]["4"]
    assert entry["M_star"]["1e-200"] is None
    assert entry["crossings"]["1e-200"]["error"].startswith(
        f"crossing M* = (c/eps)^2 overflows a float at c = {entry['c']!r}, eps = 1e-200")
    assert entry["M_star"]["0.01"] == scaling.crossing_M(entry["c"], 0.01)


@pytest.mark.parametrize("case", ["ed-sizes", "scan-sizes", "gfmc-sizes"])
def test_cli_single_size_commands_name_model_l(tmp_path, capsys, case):
    argv, config = FAILS[case]
    code, _, err = _run(capsys, _with_config(tmp_path, argv, config))
    assert code == 1
    assert f"{argv[0]} takes a single size, got model.L = [4, 6]" in err


@pytest.mark.parametrize("out_dir", [False, True])
def test_cli_extrapolate_reads_its_config_first(tmp_path, capsys, out_dir):
    argv = ["extrapolate", "--a", "29.9", "--b", "0.982", "--L", "40",
            "--config", str(tmp_path / "nonexistent.json")]
    if out_dir:
        argv += ["--out-dir", str(tmp_path / "out")]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "cannot read config" in err
    assert not (tmp_path / "out").exists()


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
