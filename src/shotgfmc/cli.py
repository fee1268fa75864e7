"""Command line front end.

Subcommands map onto the pipeline stages: ``ed`` (exact ground state),
``scan`` (full-basis local-energy fluctuations under shot noise),
``gfmc`` (chains + estimators for one size), ``sweep`` (the (L, M) grid
with fits) and ``extrapolate`` (shot count and wall time at a target
size). Flags override config-file values (each flag's argparse dest is
the ``RunConfig`` field it sets); every output directory gets a
run_manifest.json that pins config hash, seed and versions, so a run can
be reproduced byte for byte (the manifest's own timestamp and wall time
are the only non-deterministic fields anywhere).
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .exact import ground_state
from .gfmc import (
    GfmcConfig,
    average_local_energy,
    max_population,
    reweighted_energy,
    run_chain,
)
from .model import TfiModel
from .scaling import (
    ESTIMATORS,
    TRIAL_KINDS,
    run_sweep,
    runtime_for_shots,
    extrapolate_runtime,
    summarize,
    write_sweep_csv,
)
from .seeding import derive_seed
from .shots import (
    local_energy_scan,
    noisy_amplitudes,
    sample_counts,
    write_csv_rows,
    write_scan_csv,
)
from .trial import JastrowParams, build_table

MANIFEST_SCHEMA = "run_manifest.v1"


def _config_hash(cfg_dict: dict, inputs: dict | None = None) -> str:
    """Hash of what defines the computation: the config without its output
    location, plus the command inputs that are not config settings."""
    body = {k: v for k, v in cfg_dict.items() if k != "output"}
    if inputs:
        body["inputs"] = inputs
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _versions() -> dict:
    # the chain kernel is numpy only; the numba and kernel_backend keys
    # stay for run_manifest.v1 readers
    return {
        "shotgfmc": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": None,
        "kernel_backend": "numpy",
    }


def _write_manifest(out_dir: str, command: str, cfg_dict: dict, base_seed,
                    outputs: list, wall_time: float, inputs: dict | None = None) -> None:
    """run_manifest.json; inputs are the command's flags that are not settings."""
    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "command": command,
        "config": cfg_dict,
        "config_hash": _config_hash(cfg_dict, inputs),
        "base_seed": base_seed,
        "versions": _versions(),
        "outputs": sorted(outputs),
        "wall_time_s": wall_time,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    if inputs is not None:
        manifest["inputs"] = inputs
    _write_json(os.path.join(out_dir, "run_manifest.json"), manifest)


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")


def _load_config(args) -> RunConfig:
    """The config file (or the defaults) with every flag given on top."""
    cfg = parse_config(args.config) if args.config else RunConfig()
    for setting in fields(RunConfig):
        value = getattr(args, setting.name, None)
        if value is not None:
            setattr(cfg, setting.name, value)
    return cfg.validate()


def _gfmc_config(cfg: RunConfig) -> GfmcConfig:
    lam = None if cfg.lambda_shift == "auto" else float(cfg.lambda_shift)
    return GfmcConfig(lambda_shift=lam, chain_length=cfg.chain_length,
                      warmup=cfg.warmup, l_reweight=cfg.l_reweight)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_ed(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    m = TfiModel(cfg.L_list[0], cfg.J, cfg.Gamma)
    gs = ground_state(m, tol=args.tol)
    payload = {
        "L": m.L,
        "J": m.J,
        "Gamma": m.Gamma,
        "E0": gs.energy,
        "E0_per_site": gs.energy / m.L,
        "residual": gs.residual,
        "iterations": gs.iterations,
    }
    _print_json(payload)
    if args.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        _write_json(os.path.join(cfg.out_dir, "ed.json"), {"schema_version": "ed.v1", **payload})
        _write_manifest(cfg.out_dir, "ed", cfg.to_dict(), cfg.base_seed, ["ed.json"],
                        time.perf_counter() - t0, inputs={"tol": args.tol})
    return 0


def _cmd_scan(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    if cfg.M0 is None:
        raise ConfigError("scan needs --M0 (or noise.M0 in the config)")
    m = TfiModel(cfg.L_list[0], cfg.J, cfg.Gamma)
    trial, _ = _build_trial(cfg, m)
    scan = local_energy_scan(m, trial, cfg.M0, cfg.replicates, cfg.base_seed)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "local_energy_scan.csv")
    write_scan_csv(scan, path)
    _write_manifest(cfg.out_dir, "scan", cfg.to_dict(), cfg.base_seed,
                    ["local_energy_scan.csv"], time.perf_counter() - t0)
    _print_json({"written": [path], "L": m.L, "M0": cfg.M0, "M": scan.M,
                 "replicates": cfg.replicates})
    return 0


def _build_trial(cfg: RunConfig, m: TfiModel):
    """(trial table, GroundStateResult or None if no solve was needed)."""
    if cfg.trial_kind == "exact-groundstate":
        gs = ground_state(m)
        return build_table("exact-groundstate", m, vector=gs.vector), gs
    return build_table("jastrow", m, params=JastrowParams(cfg.lambda1, cfg.lambda2)), None


def _cmd_gfmc(args) -> int:
    cfg = _load_config(args)
    if cfg.M_list is not None and len(cfg.M_list) != 1:
        raise ConfigError(f"gfmc takes a single shot budget, got noise.M = {cfg.M_list}")
    M = None if cfg.M_list is None else cfg.M_list[0]
    t0 = time.perf_counter()
    m = TfiModel(cfg.L_list[0], cfg.J, cfg.Gamma)
    trial, gs = _build_trial(cfg, m)
    gs_energy = (gs if gs is not None else ground_state(m)).energy
    base = _gfmc_config(cfg)
    rew, avg = [], []
    chain_rows = []
    # populations of at most max_population walkers bound the record memory
    width = max_population(base)
    for first in range(0, cfg.replicates, width):
        tables, rngs = [], []
        for rep in range(first, min(first + width, cfg.replicates)):
            rng = np.random.default_rng(derive_seed(cfg.base_seed, m.L, M or 0, rep))
            table = trial
            if M is not None:
                table = noisy_amplitudes(sample_counts(trial.probabilities, M, rng))
            tables.append(table)
            rngs.append(rng)
        for record in run_chain(base, tables, m, rngs):
            rew.append(reweighted_energy(record) / m.L)
            avg.append(average_local_energy(record) / m.L)
            if args.dump_chain:
                chain_rows.append(record)
    rew_arr, avg_arr = np.array(rew), np.array(avg)

    def _stats(a):
        out = {"per_replicate": [float(v) for v in a], "mean": float(a.mean())}
        if len(a) > 1:
            out["std_error"] = float(a.std(ddof=1) / np.sqrt(len(a)))
        return out

    payload = {
        "L": m.L, "J": m.J, "Gamma": m.Gamma, "trial": cfg.trial_kind,
        "M": M, "lambda_shift": base.resolve_lambda_shift(m),
        "chain_length": cfg.chain_length, "warmup": cfg.warmup,
        "l_reweight": cfg.l_reweight, "replicates": cfg.replicates,
        "E0_per_site": gs_energy / m.L,
        "reweighted": _stats(rew_arr),
        "average": _stats(avg_arr),
        "error_per_site": {
            "reweighted": float(rew_arr.mean() - gs_energy / m.L),
            "average": float(avg_arr.mean() - gs_energy / m.L),
        },
    }
    _print_json(payload)
    if args.out_dir or args.dump_chain:
        os.makedirs(cfg.out_dir, exist_ok=True)
        outputs = ["gfmc_result.json"]
        _write_json(os.path.join(cfg.out_dir, "gfmc_result.json"),
                    {"schema_version": "gfmc_result.v1", **payload})
        for rep, record in enumerate(chain_rows):
            name = f"chain_{rep}.csv"
            _write_chain_csv(os.path.join(cfg.out_dir, name), record)
            outputs.append(name)
        _write_manifest(cfg.out_dir, "gfmc", cfg.to_dict(), cfg.base_seed, outputs,
                        time.perf_counter() - t0)
    return 0


def _write_chain_csv(path: str, record) -> None:
    """One (n, state, b, e) row per recorded step; floats as their repr."""
    with open(path, "wb") as f:
        f.write(b"# schema=chain_record.v1\nn,state,b,e\n")
        write_csv_rows(f, [np.arange(len(record)), b",", record.states, b",",
                           record.b_values, b",", record.e_values, b"\n"])


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    os.makedirs(cfg.out_dir, exist_ok=True)
    points = run_sweep(
        cfg.M_list, cfg.L_list, cfg.trial_kind, _gfmc_config(cfg),
        replicates=cfg.replicates, J=cfg.J, Gamma=cfg.Gamma,
        base_seed=cfg.base_seed, estimator=cfg.estimator,
        jastrow=JastrowParams(cfg.lambda1, cfg.lambda2),
        threads=args.threads,
    )
    result = summarize(points, targets=cfg.targets, window=tuple(cfg.fit_window),
                       band=cfg.crossing_band, crossing_method=cfg.crossing_method)
    outputs = []
    if "csv" in cfg.formats:
        write_sweep_csv(points, os.path.join(cfg.out_dir, "sweep_points.csv"))
        outputs.append("sweep_points.csv")
    summary = result.to_dict()
    cfg_dict = cfg.to_dict()
    summary["provenance"] = {
        "base_seed": cfg.base_seed,
        "config_hash": _config_hash(cfg_dict),
        "tool_version": __version__,
    }
    if "json" in cfg.formats:
        _write_json(os.path.join(cfg.out_dir, "scaling_summary.json"), summary)
        outputs.append("scaling_summary.json")
    _write_manifest(cfg.out_dir, "sweep", cfg_dict, cfg.base_seed, outputs,
                    time.perf_counter() - t0)
    _print_json(summary)
    return 0


def _cmd_extrapolate(args) -> int:
    t0 = time.perf_counter()
    inputs = {"a": args.a, "b": args.b, "L": args.L, "circuit_layers": args.layers,
              "gate_clock_hz": args.clock_hz}
    fitted = extrapolate_runtime(args.a, args.b, args.L, args.layers, args.clock_hz)
    payload = {
        **inputs,
        "fitted": {"shots": fitted.shots, "seconds": fitted.seconds,
                   "years": fitted.years},
    }
    if args.reference_shots is not None:
        ref = runtime_for_shots(args.reference_shots, args.layers, args.clock_hz)
        payload["reference"] = {"shots": ref.shots, "seconds": ref.seconds,
                                "years": ref.years}
        payload["note"] = (
            "fitted uses shots = a*2^(b*L); reference uses the explicitly "
            "given shot count; the two differ when the quoted budget was "
            "rounded or derived from a different target"
        )
    _print_json(payload)
    if args.out_dir:
        cfg = _load_config(args)
        os.makedirs(cfg.out_dir, exist_ok=True)
        _write_json(os.path.join(cfg.out_dir, "extrapolate.json"),
                    {"schema_version": "extrapolate.v1", **payload})
        # extrapolate reads no setting besides the output location
        _write_manifest(cfg.out_dir, "extrapolate", {"output": cfg.to_dict()["output"]},
                        None, ["extrapolate.json"], time.perf_counter() - t0,
                        inputs={**inputs, "reference_shots": args.reference_shots})
    return 0


# ---------------------------------------------------------------------------
# parser

def _comma_list(convert):
    """argparse type for a comma list such as ``6,8,10``; empty items are skipped."""
    def parse(text: str) -> list:
        try:
            return [convert(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be a comma-separated {convert.__name__} list: {text!r}") from None
    return parse


def _add_common(sp) -> None:
    sp.add_argument("--config", help="JSON config file (flags override it)")
    sp.add_argument("--seed", type=int, dest="base_seed", metavar="SEED",
                    help="base seed (overrides config)")
    sp.add_argument("--out-dir", help="output directory")
    sp.add_argument("--threads", type=int,
                    help="worker process cap for sweep (default: all cores); "
                         "the other subcommands accept and ignore it")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shotgfmc",
        description="GFMC on the transverse-field Ising chain under "
                    "emulated measurement shot noise",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    ed = sub.add_parser("ed", help="exact ground state via Lanczos")
    ed.add_argument("--L", type=int, nargs=1, dest="L_list", metavar="L")
    ed.add_argument("--J", type=float)
    ed.add_argument("--Gamma", type=float)
    ed.add_argument("--tol", type=float, default=1e-10)
    _add_common(ed)
    ed.set_defaults(handler=_cmd_ed)

    scan = sub.add_parser("scan", help="full-basis local-energy scan under shot noise")
    scan.add_argument("--L", type=int, nargs=1, dest="L_list", metavar="L")
    scan.add_argument("--M0", type=int, help="shots per basis state; M = M0 * 2^L")
    scan.add_argument("--reps", type=int, dest="replicates", metavar="REPS",
                      help="independent measurement realizations")
    scan.add_argument("--trial", choices=TRIAL_KINDS, dest="trial_kind")
    scan.add_argument("--lambda1", type=float)
    scan.add_argument("--lambda2", type=float)
    _add_common(scan)
    scan.set_defaults(handler=_cmd_scan)

    gf = sub.add_parser("gfmc", help="run chains and estimate the energy")
    gf.add_argument("--L", type=int, nargs=1, dest="L_list", metavar="L")
    gf.add_argument("--trial", choices=TRIAL_KINDS, dest="trial_kind")
    gf.add_argument("--M", type=int, nargs=1, dest="M_list", metavar="M",
                    help="shot budget; omit for noiseless amplitudes")
    gf.add_argument("--replicates", type=int)
    gf.add_argument("--chain-length", type=int)
    gf.add_argument("--warmup", type=int)
    gf.add_argument("--l-reweight", type=int)
    gf.add_argument("--lambda-shift", type=float)
    gf.add_argument("--dump-chain", action="store_true",
                    help="also write per-step (n, state, b, e) CSVs")
    _add_common(gf)
    gf.set_defaults(handler=_cmd_gfmc)

    sw = sub.add_parser("sweep", help="(L, M) sweep with scaling fits")
    sw.add_argument("--L", type=_comma_list(int), dest="L_list", metavar="L",
                    help="comma list of sizes, e.g. 6,8,10,12")
    sw.add_argument("--M", type=_comma_list(int), dest="M_list", metavar="M",
                    help="comma list of shot budgets (default: per-L geometric grid)")
    sw.add_argument("--trial", choices=TRIAL_KINDS, dest="trial_kind")
    sw.add_argument("--replicates", type=int)
    sw.add_argument("--chain-length", type=int)
    sw.add_argument("--targets", type=_comma_list(float),
                    help="comma list of per-site error targets")
    sw.add_argument("--window", type=_comma_list(float), dest="fit_window", metavar="WINDOW",
                    help="prefactor fit window lo,hi")
    sw.add_argument("--band", type=float, dest="crossing_band", metavar="BAND",
                    help="crossing fit band factor")
    sw.add_argument("--crossing-method", choices=("local", "prefactor"))
    sw.add_argument("--estimator", choices=ESTIMATORS)
    _add_common(sw)
    sw.set_defaults(handler=_cmd_sweep)

    ex = sub.add_parser("extrapolate", help="shot count and wall time at size L")
    ex.add_argument("--a", type=float, required=True)
    ex.add_argument("--b", type=float, required=True)
    ex.add_argument("--L", type=int, required=True)
    ex.add_argument("--layers", type=int, default=40,
                    help="circuit depth per shot in gate layers")
    ex.add_argument("--clock-hz", type=float, default=1e4)
    ex.add_argument("--reference-shots", type=float,
                    help="also report wall time at this explicit shot count")
    _add_common(ex)
    ex.set_defaults(handler=_cmd_extrapolate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValueError, OverflowError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
