"""JSON run configuration: defaults, validation, helpful load errors.

Unknown keys are rejected with their full path so typos never silently
fall back to a default. CLI flags override file values; the resolved
dictionary (after both) is what gets hashed into the run manifest.
"""

import json
from dataclasses import dataclass, field

from .gfmc import DEFAULT_CHAIN_LENGTH, DEFAULT_REWEIGHT_WINDOW, DEFAULT_WARMUP
from .scaling import (
    DEFAULT_CROSSING_BAND,
    DEFAULT_FIT_WINDOW,
    DEFAULT_TARGETS,
    ESTIMATORS,
    TRIAL_KINDS,
)

DEFAULT_BASE_SEED = 12345

OUTPUT_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _no_unknown_keys(section: dict, known: tuple, path: str) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key: {path}.{key}")


@dataclass
class RunConfig:
    L_list: list = field(default_factory=lambda: [10])
    J: float = 1.0
    Gamma: float = 1.0
    trial_kind: str = "jastrow"
    lambda1: float = 0.233
    lambda2: float = 0.083
    lambda_shift: float | str = "auto"
    chain_length: int = DEFAULT_CHAIN_LENGTH
    warmup: int = DEFAULT_WARMUP
    l_reweight: int = DEFAULT_REWEIGHT_WINDOW
    M0: int | None = None
    M_list: list | None = None
    replicates: int = 16
    targets: list = field(default_factory=lambda: list(DEFAULT_TARGETS))
    base_seed: int = DEFAULT_BASE_SEED
    fit_window: list = field(default_factory=lambda: list(DEFAULT_FIT_WINDOW))
    crossing_band: float = DEFAULT_CROSSING_BAND
    crossing_method: str = "local"
    estimator: str = "reweighted"
    out_dir: str = "out"
    formats: list = field(default_factory=lambda: ["csv", "json"])

    def validate(self) -> "RunConfig":
        _require(len(self.L_list) >= 1, "model.L must give at least one size")
        for L in self.L_list:
            _require(isinstance(L, int) and L >= 2, f"model.L entries must be integers >= 2, got {L!r}")
        _require(self.J > 0, "model.J must satisfy J > 0")
        _require(self.Gamma >= 0, "model.Gamma must satisfy Gamma >= 0")
        _require(self.trial_kind in TRIAL_KINDS, f"trial.kind must be one of {TRIAL_KINDS}")
        if self.lambda_shift != "auto":
            _require(isinstance(self.lambda_shift, (int, float)),
                     "gfmc.lambda_shift must be a number or 'auto'")
            for L in self.L_list:
                _require(self.lambda_shift > L * self.J,
                         f"gfmc.lambda_shift must satisfy lambda_shift > L*J = {L * self.J}")
        _require(
            self.chain_length > self.warmup + self.l_reweight,
            "gfmc.chain_length must satisfy chain_length > warmup + l_reweight "
            f"({self.chain_length} <= {self.warmup} + {self.l_reweight})",
        )
        _require(self.warmup >= 0, "gfmc.warmup must be >= 0")
        _require(self.l_reweight >= 1, "gfmc.l_reweight must be >= 1")
        if self.M0 is not None:
            _require(self.M0 >= 1, "noise.M0 must be >= 1")
        if self.M_list is not None:
            _require(len(self.M_list) >= 1 and all(isinstance(v, int) and v >= 1 for v in self.M_list),
                     "noise.M must be a nonempty list of integers >= 1")
        _require(self.replicates >= 2, "experiment.replicates must be >= 2")
        _require(all(t > 0 for t in self.targets), "experiment.targets must be positive")
        _require(len(self.fit_window) == 2 and 0 < self.fit_window[0] < self.fit_window[1],
                 "experiment.fit_window must be [lo, hi] with 0 < lo < hi")
        _require(self.crossing_band > 1, "experiment.crossing_band must exceed 1")
        _require(self.crossing_method in ("local", "prefactor"),
                 "experiment.crossing_method must be 'local' or 'prefactor'")
        _require(self.estimator in ESTIMATORS, f"experiment.estimator must be one of {ESTIMATORS}")
        _require(all(f in OUTPUT_FORMATS for f in self.formats),
                 f"output.formats entries must be among {OUTPUT_FORMATS}, got {self.formats!r}")
        return self

    def to_dict(self) -> dict:
        return {
            "model": {"L": list(self.L_list), "J": self.J, "Gamma": self.Gamma},
            "trial": {"kind": self.trial_kind, "lambda1": self.lambda1, "lambda2": self.lambda2},
            "gfmc": {"lambda_shift": self.lambda_shift, "chain_length": self.chain_length,
                     "warmup": self.warmup, "l_reweight": self.l_reweight},
            "noise": {"M0": self.M0, "M": self.M_list},
            "experiment": {"replicates": self.replicates, "targets": list(self.targets),
                           "base_seed": self.base_seed, "fit_window": list(self.fit_window),
                           "crossing_band": self.crossing_band,
                           "crossing_method": self.crossing_method,
                           "estimator": self.estimator},
            "output": {"directory": self.out_dir, "formats": list(self.formats)},
        }


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _as_real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    return float(value)


def from_dict(raw: dict) -> RunConfig:
    _require(isinstance(raw, dict), "configuration root must be a JSON object")
    _no_unknown_keys(raw, ("model", "trial", "gfmc", "noise", "experiment", "output"), "config")
    cfg = RunConfig()

    model = raw.get("model", {})
    _no_unknown_keys(model, ("L", "J", "Gamma"), "model")
    if "L" in model:
        L = model["L"]
        cfg.L_list = [_as_int(v, "model.L") for v in L] if isinstance(L, list) else [_as_int(L, "model.L")]
    if "J" in model:
        cfg.J = _as_real(model["J"], "model.J")
    if "Gamma" in model:
        cfg.Gamma = _as_real(model["Gamma"], "model.Gamma")

    trial = raw.get("trial", {})
    _no_unknown_keys(trial, ("kind", "lambda1", "lambda2"), "trial")
    cfg.trial_kind = trial.get("kind", cfg.trial_kind)
    if "lambda1" in trial:
        cfg.lambda1 = _as_real(trial["lambda1"], "trial.lambda1")
    if "lambda2" in trial:
        cfg.lambda2 = _as_real(trial["lambda2"], "trial.lambda2")

    gfmc = raw.get("gfmc", {})
    _no_unknown_keys(gfmc, ("lambda_shift", "chain_length", "warmup", "l_reweight"), "gfmc")
    if "lambda_shift" in gfmc:
        v = gfmc["lambda_shift"]
        cfg.lambda_shift = v if v == "auto" else _as_real(v, "gfmc.lambda_shift")
    if "chain_length" in gfmc:
        cfg.chain_length = _as_int(gfmc["chain_length"], "gfmc.chain_length")
    if "warmup" in gfmc:
        cfg.warmup = _as_int(gfmc["warmup"], "gfmc.warmup")
    if "l_reweight" in gfmc:
        cfg.l_reweight = _as_int(gfmc["l_reweight"], "gfmc.l_reweight")

    noise = raw.get("noise", {})
    _no_unknown_keys(noise, ("M0", "M"), "noise")
    if "M0" in noise and noise["M0"] is not None:
        cfg.M0 = _as_int(noise["M0"], "noise.M0")
    if "M" in noise and noise["M"] is not None:
        _require(isinstance(noise["M"], list), "noise.M must be a list")
        cfg.M_list = [_as_int(v, "noise.M") for v in noise["M"]]

    exp = raw.get("experiment", {})
    _no_unknown_keys(exp, ("replicates", "targets", "base_seed", "fit_window",
                           "crossing_band", "crossing_method", "estimator"), "experiment")
    if "replicates" in exp:
        cfg.replicates = _as_int(exp["replicates"], "experiment.replicates")
    if "targets" in exp:
        _require(isinstance(exp["targets"], list), "experiment.targets must be a list")
        cfg.targets = [_as_real(t, "experiment.targets") for t in exp["targets"]]
    if "base_seed" in exp:
        cfg.base_seed = _as_int(exp["base_seed"], "experiment.base_seed")
    if "fit_window" in exp:
        _require(isinstance(exp["fit_window"], list), "experiment.fit_window must be a list")
        cfg.fit_window = [_as_real(v, "experiment.fit_window") for v in exp["fit_window"]]
    if "crossing_band" in exp:
        cfg.crossing_band = _as_real(exp["crossing_band"], "experiment.crossing_band")
    if "crossing_method" in exp:
        cfg.crossing_method = exp["crossing_method"]
    if "estimator" in exp:
        cfg.estimator = exp["estimator"]

    output = raw.get("output", {})
    _no_unknown_keys(output, ("directory", "formats"), "output")
    cfg.out_dir = output.get("directory", cfg.out_dir)
    if "formats" in output:
        _require(isinstance(output["formats"], list), "output.formats must be a list")
        cfg.formats = list(output["formats"])

    return cfg.validate()


def parse_config(path) -> RunConfig:
    """Load, default-fill and validate a JSON config file."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return from_dict(raw)
