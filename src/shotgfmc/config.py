"""JSON run configuration: defaults, validation, helpful load errors.

Each ``RunConfig`` field declares its config key (``"model.L"``) and the
parser that checks a file value for it; ``from_dict`` and ``to_dict``
both walk that one table. Unknown keys are rejected with their full path
so typos never silently fall back to a default. CLI flags override file
values (each flag's argparse dest is its field name); the resolved
dictionary (after both) is what gets hashed into the run manifest.
``validate`` leaves the ``model.*`` and ``gfmc.*`` rules to ``TfiModel``
(one per size) and ``GfmcConfig``, and reports their errors by key.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from .gfmc import DEFAULT_CHAIN_LENGTH, DEFAULT_REWEIGHT_WINDOW, DEFAULT_WARMUP, GfmcConfig
from .model import TfiModel
from .scaling import (
    CROSSING_METHODS,
    DEFAULT_CROSSING_BAND,
    DEFAULT_FIT_WINDOW,
    DEFAULT_TARGETS,
    ESTIMATORS,
    TRIAL_KINDS,
)
from .shots import MAX_SHOTS
from .trial import JastrowParams

DEFAULT_BASE_SEED = 12345

OUTPUT_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


@contextmanager
def _section(name: str):
    """Re-raise a ValueError as a ConfigError prefixed by section ``name``: each
    library message starts with its parameter's name, the key's name there."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}.{exc}") from exc


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _as_real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    return float(value)


def _as_str(value, path: str) -> str:
    _require(isinstance(value, str), f"{path} must be a string, got {value!r}")
    return value


def _list_of(parse):
    def parse_list(value, path: str) -> list:
        _require(isinstance(value, list), f"{path} must be a list")
        return [parse(v, path) for v in value]
    return parse_list


def _optional(parse):
    return lambda value, path: None if value is None else parse(value, path)


def _int_or_list(value, path: str) -> list:
    return _list_of(_as_int)(value if isinstance(value, list) else [value], path)


def _auto_or_real(value, path: str):
    return value if value == "auto" else _as_real(value, path)


def _setting(key: str, parse, **default):
    """A RunConfig field, read from config key ``section.name`` by ``parse``."""
    return field(metadata={"key": key, "parse": parse}, **default)


@dataclass
class RunConfig:
    L_list: list = _setting("model.L", _int_or_list, default_factory=lambda: [10])
    J: float = _setting("model.J", _as_real, default=1.0)
    Gamma: float = _setting("model.Gamma", _as_real, default=1.0)
    trial_kind: str = _setting("trial.kind", _as_str, default="jastrow")
    lambda1: float = _setting("trial.lambda1", _as_real, default=JastrowParams.lambda1)
    lambda2: float = _setting("trial.lambda2", _as_real, default=JastrowParams.lambda2)
    lambda_shift: float | str = _setting("gfmc.lambda_shift", _auto_or_real, default="auto")
    chain_length: int = _setting("gfmc.chain_length", _as_int, default=DEFAULT_CHAIN_LENGTH)
    warmup: int = _setting("gfmc.warmup", _as_int, default=DEFAULT_WARMUP)
    l_reweight: int = _setting("gfmc.l_reweight", _as_int, default=DEFAULT_REWEIGHT_WINDOW)
    M0: int | None = _setting("noise.M0", _optional(_as_int), default=None)
    M_list: list | None = _setting("noise.M", _optional(_list_of(_as_int)), default=None)
    replicates: int = _setting("experiment.replicates", _as_int, default=16)
    targets: list = _setting("experiment.targets", _list_of(_as_real),
                             default_factory=lambda: list(DEFAULT_TARGETS))
    base_seed: int = _setting("experiment.base_seed", _as_int, default=DEFAULT_BASE_SEED)
    fit_window: list = _setting("experiment.fit_window", _list_of(_as_real),
                                default_factory=lambda: list(DEFAULT_FIT_WINDOW))
    crossing_band: float = _setting("experiment.crossing_band", _as_real,
                                    default=DEFAULT_CROSSING_BAND)
    crossing_method: str = _setting("experiment.crossing_method", _as_str, default="local")
    estimator: str = _setting("experiment.estimator", _as_str, default="reweighted")
    out_dir: str = _setting("output.directory", _as_str, default="out")
    formats: list = _setting("output.formats", _list_of(_as_str),
                             default_factory=lambda: ["csv", "json"])

    def validate(self) -> "RunConfig":
        for setting in fields(self):
            value = getattr(self, setting.name)
            for v in value if isinstance(value, list) else [value]:
                # JSON has no spelling for inf or nan, so no output may hold one
                _require(not isinstance(v, float) or math.isfinite(v),
                         f"{setting.metadata['key']} must be finite, got {v!r}")
        _require(len(self.L_list) >= 1, "model.L must give at least one size")
        with _section("model"):
            models = [TfiModel(L, self.J, self.Gamma) for L in self.L_list]
        _require(self.trial_kind in TRIAL_KINDS, f"trial.kind must be one of {TRIAL_KINDS}")
        if self.lambda_shift != "auto":
            _require(isinstance(self.lambda_shift, (int, float)),
                     f"gfmc.lambda_shift must be a number or 'auto', got {self.lambda_shift!r}")
        with _section("gfmc"):
            chain = self.gfmc()
            for m in models if chain.lambda_shift is not None else []:
                chain.resolve_lambda_shift(m)
        if self.M0 is not None:
            _require(self.M0 >= 1, "noise.M0 must be >= 1")
            L = max(self.L_list)  # scan draws M = M0 * 2^L shots
            _require(self.M0 <= MAX_SHOTS >> L, f"noise.M0 must satisfy M0 * 2^L <= 2^63 - 1 "
                     f"= {MAX_SHOTS}, got {self.M0} * 2^{L}")
        if self.M_list is not None:
            _require(len(self.M_list) >= 1 and all(isinstance(v, int) and v >= 1 for v in self.M_list),
                     "noise.M must be a nonempty list of integers >= 1")
            _require(max(self.M_list) <= MAX_SHOTS,
                     f"noise.M entries must be at most 2^63 - 1 = {MAX_SHOTS}, "
                     f"got {max(self.M_list)}")
        _require(self.replicates >= 1, "experiment.replicates must be >= 1")
        _require(len(self.targets) >= 1 and all(t > 0 for t in self.targets),
                 "experiment.targets must be a nonempty list of positive numbers")
        _require(len(set(self.targets)) == len(self.targets),
                 f"experiment.targets must not repeat a value, got {self.targets!r}")
        _require(len(self.fit_window) == 2 and 0 < self.fit_window[0] < self.fit_window[1],
                 "experiment.fit_window must be [lo, hi] with 0 < lo < hi")
        _require(self.crossing_band > 1, "experiment.crossing_band must exceed 1")
        _require(self.crossing_method in CROSSING_METHODS,
                 "experiment.crossing_method must be 'local' or 'prefactor'")
        _require(self.estimator in ESTIMATORS, f"experiment.estimator must be one of {tuple(ESTIMATORS)}")
        _require(all(f in OUTPUT_FORMATS for f in self.formats),
                 f"output.formats entries must be among {OUTPUT_FORMATS}, got {self.formats!r}")
        return self

    def gfmc(self) -> GfmcConfig:
        """The chain settings, with lambda_shift "auto" as GfmcConfig's None."""
        lam = None if self.lambda_shift == "auto" else float(self.lambda_shift)
        return GfmcConfig(lambda_shift=lam, chain_length=self.chain_length,
                          warmup=self.warmup, l_reweight=self.l_reweight)

    def to_dict(self) -> dict:
        out = {}
        for setting in fields(self):
            section, key = setting.metadata["key"].split(".")
            value = getattr(self, setting.name)
            out.setdefault(section, {})[key] = list(value) if isinstance(value, list) else value
        return out


# config key ("section.name") -> the RunConfig field it sets
_SETTINGS = {setting.metadata["key"]: setting for setting in fields(RunConfig)}


def from_dict(raw: dict) -> RunConfig:
    _require(isinstance(raw, dict), "configuration root must be a JSON object")
    sections = {key.split(".")[0] for key in _SETTINGS}
    for section in raw:
        _require(section in sections, f"unknown key: config.{section}")
    cfg = RunConfig()
    for section, values in raw.items():
        _require(isinstance(values, dict),
                 f"config.{section} must be a JSON object, got {values!r}")
        for key, value in values.items():
            path = f"{section}.{key}"
            _require(path in _SETTINGS, f"unknown key: {path}")
            setting = _SETTINGS[path]
            setattr(cfg, setting.name, setting.metadata["parse"](value, path))
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
