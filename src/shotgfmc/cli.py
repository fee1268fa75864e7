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

``main`` runs every command the same way: load the config, compute (the
``_cmd_*`` handler), write the files, then the manifest, then print the
result. So a failed compute writes nothing and a failed write prints nothing.
Handlers take their chain settings from ``RunConfig.gfmc()``. No JSON
file or line holds an inf or NaN: writing one is an error.
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
from functools import partial

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .exact import ground_state
from .model import TfiModel
from .scaling import (
    CROSSING_METHODS,
    ESTIMATORS,
    TRIAL_KINDS,
    build_trial,
    check_size,
    reference_energy,
    run_sweep,
    run_walkers,
    runtime_for_shots,
    extrapolate_runtime,
    summarize,
    write_sweep_csv,
)
from .shots import check_threads, local_energy_scan, write_csv_rows, write_scan_csv
from .trial import JastrowParams

# scaling (build_trial, run_walkers, ESTIMATORS) and shots.draw_tables call
# these now, but perfbench/tracing.py still looks them up on this module
from .gfmc import average_local_energy, reweighted_energy, run_chain  # noqa: F401
from .shots import noisy_amplitudes, sample_counts  # noqa: F401
from .trial import build_table  # noqa: F401

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


def _write_outputs(out_dir: str, writers: dict, manifest: dict, t0: float) -> None:
    """Create out_dir, write each file name with writers[name](path), then
    run_manifest.json: manifest plus its config hash, the versions, the file
    names and the wall time from t0 to the end of the last file."""
    os.makedirs(out_dir, exist_ok=True)
    for name, write in writers.items():
        write(os.path.join(out_dir, name))
    manifest = {
        **manifest,
        "schema_version": MANIFEST_SCHEMA,
        "config_hash": _config_hash(manifest["config"], manifest.get("inputs")),
        "versions": _versions(),
        "outputs": sorted(writers),
        "wall_time_s": time.perf_counter() - t0,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(os.path.join(out_dir, "run_manifest.json"), manifest)


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True, allow_nan=False)
        f.write("\n")


def _load_config(args) -> RunConfig:
    """The config file (or the defaults) with every flag given on top."""
    cfg = parse_config(args.config) if args.config else RunConfig()
    for setting in fields(RunConfig):
        value = getattr(args, setting.name, None)
        if value is not None:
            setattr(cfg, setting.name, value)
    return cfg.validate()


def _one_size_model(args, cfg: RunConfig) -> TfiModel:
    """The model of ed, scan and gfmc, which run one size and reject several."""
    if len(cfg.L_list) != 1:
        raise ConfigError(f"{args.command} takes a single size, got model.L = {cfg.L_list}")
    return TfiModel(cfg.L_list[0], cfg.J, cfg.Gamma)


# ---------------------------------------------------------------------------
# subcommands: each only computes, and returns the result main prints, the
# writers of its files (None: no directory) and its own manifest entries

def _cmd_ed(args, cfg: RunConfig):
    m = _one_size_model(args, cfg)
    gs = ground_state(m, tol=args.tol)
    result = {
        "L": m.L,
        "J": m.J,
        "Gamma": m.Gamma,
        "E0": gs.energy,
        "E0_per_site": gs.energy / m.L,
        "residual": gs.residual,
        "iterations": gs.iterations,
    }
    writers = {"ed.json": partial(_write_json, obj={"schema_version": "ed.v1", **result})}
    return result, writers if args.out_dir else None, {"inputs": {"tol": args.tol}}


def _cmd_scan(args, cfg: RunConfig):
    threads = check_threads(args.threads)
    if cfg.M0 is None:
        raise ConfigError("scan needs --M0 (or noise.M0 in the config)")
    m = _one_size_model(args, cfg)
    trial, _ = build_trial(m, cfg.trial_kind, JastrowParams(cfg.lambda1, cfg.lambda2))
    scan = local_energy_scan(m, trial, cfg.M0, cfg.replicates, cfg.base_seed)
    # perfbench/tracing.py reads the path as write_scan_csv's second argument
    writers = {"local_energy_scan.csv": partial(write_scan_csv, scan, threads=threads)}
    result = {"written": [os.path.join(cfg.out_dir, "local_energy_scan.csv")], "L": m.L,
              "M0": cfg.M0, "M": scan.M, "replicates": cfg.replicates}
    return result, writers, {}


def _cmd_gfmc(args, cfg: RunConfig):
    if cfg.M_list is not None and len(cfg.M_list) != 1:
        raise ConfigError(f"gfmc takes a single shot budget, got noise.M = {cfg.M_list}")
    M = None if cfg.M_list is None else cfg.M_list[0]
    m = _one_size_model(args, cfg)
    base = cfg.gfmc()
    lam = check_size(m, cfg.trial_kind, base)
    trial, gs = build_trial(m, cfg.trial_kind, JastrowParams(cfg.lambda1, cfg.lambda2))
    gs_energy = reference_energy(m, gs)
    # the exact vector is a 2^L array that no later step reads
    del gs
    per_site = {name: [] for name in ESTIMATORS}
    chain_rows = []

    def measure(record):
        for name, estimate in ESTIMATORS.items():
            per_site[name].append(estimate(record) / m.L)
        if args.dump_chain:
            chain_rows.append(record)

    walkers = [(M, rep) for rep in range(cfg.replicates)]
    run_walkers(m, base, trial, walkers, cfg.base_seed, measure)
    e0_per_site = gs_energy / m.L
    result = {
        "L": m.L, "J": m.J, "Gamma": m.Gamma, "trial": cfg.trial_kind,
        "M": M, "lambda_shift": lam,
        "chain_length": cfg.chain_length, "warmup": cfg.warmup,
        "l_reweight": cfg.l_reweight, "replicates": cfg.replicates,
        "E0_per_site": e0_per_site, "error_per_site": {},
    }
    for name, values in per_site.items():
        a = np.array(values)
        stats = {"per_replicate": [float(v) for v in a], "mean": float(a.mean())}
        if len(a) > 1:
            stats["std_error"] = float(a.std(ddof=1) / np.sqrt(len(a)))
        result[name] = stats
        result["error_per_site"][name] = float(a.mean() - e0_per_site)
    writers = {"gfmc_result.json":
               partial(_write_json, obj={"schema_version": "gfmc_result.v1", **result})}
    for rep, record in enumerate(chain_rows):
        writers[f"chain_{rep}.csv"] = partial(_write_chain_csv, record=record)
    return result, writers if args.out_dir or args.dump_chain else None, {}


def _write_chain_csv(path: str, record) -> None:
    """One (n, state, b, e) row per recorded step; floats as their repr."""
    with open(path, "wb") as f:
        f.write(b"# schema=chain_record.v1\nn,state,b,e\n")
        write_csv_rows(f, [np.arange(len(record)), b",", record.states, b",",
                           record.b_values, b",", record.e_values, b"\n"])


def _cmd_sweep(args, cfg: RunConfig):
    points = run_sweep(
        cfg.M_list, cfg.L_list, cfg.trial_kind, cfg.gfmc(),
        replicates=cfg.replicates, J=cfg.J, Gamma=cfg.Gamma,
        base_seed=cfg.base_seed, estimator=cfg.estimator,
        jastrow=JastrowParams(cfg.lambda1, cfg.lambda2),
        threads=args.threads,
    )
    summary = summarize(points, targets=cfg.targets, window=tuple(cfg.fit_window),
                        band=cfg.crossing_band, crossing_method=cfg.crossing_method)
    summary["provenance"] = {
        "base_seed": cfg.base_seed,
        "config_hash": _config_hash(cfg.to_dict()),
        "tool_version": __version__,
    }
    writers = {}
    if "csv" in cfg.formats:
        writers["sweep_points.csv"] = partial(write_sweep_csv, points)
    if "json" in cfg.formats:
        writers["scaling_summary.json"] = partial(_write_json, obj=summary)
    return summary, writers, {}


def _cmd_extrapolate(args, cfg: RunConfig):
    inputs = {"a": args.a, "b": args.b, "L": args.L, "circuit_layers": args.layers,
              "gate_clock_hz": args.clock_hz}
    fitted = extrapolate_runtime(args.a, args.b, args.L, args.layers, args.clock_hz)
    result = {
        **inputs,
        "fitted": {"shots": fitted.shots, "seconds": fitted.seconds,
                   "years": fitted.years},
    }
    if args.reference_shots is not None:
        ref = runtime_for_shots(args.reference_shots, args.layers, args.clock_hz)
        result["reference"] = {"shots": ref.shots, "seconds": ref.seconds,
                               "years": ref.years}
        result["note"] = (
            "fitted uses shots = a*2^(b*L); reference uses the explicitly "
            "given shot count; the two differ when the quoted budget was "
            "rounded or derived from a different target"
        )
    writers = {"extrapolate.json":
               partial(_write_json, obj={"schema_version": "extrapolate.v1", **result})}
    # extrapolate reads no setting besides the output location
    manifest = {"config": {"output": cfg.to_dict()["output"]}, "base_seed": None,
                "inputs": {**inputs, "reference_shots": args.reference_shots}}
    return result, writers if args.out_dir else None, manifest


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
                    help="sweep's task count per size, scan's CSV writer count (one "
                         "group of replicates each); default: all cores. Each starts at "
                         "most one process per task and per core; the other subcommands "
                         "accept and ignore it")


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
    sw.add_argument("--crossing-method", choices=CROSSING_METHODS)
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
    """Run one command as the module docstring says; on an error, return 1."""
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        t0 = time.perf_counter()
        result, writers, manifest = args.handler(args, cfg)
        if writers is not None:
            _write_outputs(cfg.out_dir, writers, {
                "command": args.command, "config": cfg.to_dict(),
                "base_seed": cfg.base_seed, **manifest}, t0)
        print(json.dumps(result, indent=2, sort_keys=True, allow_nan=False))
        return 0
    except (ConfigError, ValueError, OverflowError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
