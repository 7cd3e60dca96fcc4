"""Command-line entry point.

Subcommands: gen, train, sweep-noise, track-grads, corrupt, theory.
Exit codes: 0 ok, 2 config error, 3 I/O error, 4 numeric failure during
training, 5 theory property failure.  Log level via MAGSIM_LOG.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields

from .errors import ConfigError, ContractError, DatasetError, MagsimError
from .experiments import (NumericError, TrainConfig, corruption_probe,
                          derive_seed, sweep_noise, track_gradients, train,
                          write_csv, write_manifest)
from .graph import ModalitySpec, SyntheticSpec, calibrate, generate, load, save
from .theory import tau
from .validation import ALL_CHECKS

log = logging.getLogger("magsim")

EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_THEORY = 0, 2, 3, 4, 5

DEFAULT_SCALES = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
DEFAULT_SWEEP_KINDS = ["ef-mlp", "gcn-joint", "supra"]
DEFAULT_GRAD_VARIANTS = [
    ["indep-agg", {"kind": "indep-agg"}],
    ["supra-synergy-only", {"kind": "supra", "supra_variant": "synergy-only"}],
    ["supra-base", {"kind": "supra", "supra_variant": "base"}],
    ["supra-aux", {"kind": "supra", "supra_variant": "full", "lambda_aux": 0.7}],
]
DEFAULT_PROBE_KINDS = [
    ["supra-base", {"kind": "supra", "supra_variant": "base"}],
    ["supra-aux", {"kind": "supra", "supra_variant": "full", "lambda_aux": 0.7}],
]


def _check_keys(doc: dict, allowed, context: str):
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown key {unknown[0]!r}")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DatasetError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(doc, ("synthetic", "train", "sweep", "grads", "probe"), path)
    return doc


def synthetic_spec(doc: dict, seed_override=None) -> SyntheticSpec:
    section = dict(doc.get("synthetic", {}))
    _check_keys(section, ("num_nodes", "num_classes", "modalities", "homophily",
                          "mean_degree", "split_fracs", "seed"), "synthetic")
    mods = section.pop("modalities", [{"name": "text", "dim": 16},
                                      {"name": "visual", "dim": 16}])
    specs = []
    for m in mods:
        _check_keys(m, ("name", "dim", "signal_norm", "noise_var"), "synthetic.modalities")
        specs.append(ModalitySpec(**m))
    section.setdefault("num_nodes", 2000)
    section.setdefault("num_classes", 4)
    if seed_override is not None:
        section["seed"] = seed_override
    if "split_fracs" in section:
        section["split_fracs"] = tuple(section["split_fracs"])
    return SyntheticSpec(modalities=specs, **section)


def train_config(doc: dict, seed_override=None) -> TrainConfig:
    section = dict(doc.get("train", {}))
    allowed = [f.name for f in fields(TrainConfig)]
    _check_keys(section, allowed, "train")
    if seed_override is not None:
        section["seed"] = seed_override
    return TrainConfig(**section)


def _print_dataset_stats(mag, alpha: float):
    for name in mag.features:
        beta_hat, sigma_n = calibrate(mag, name)
        sig = mag.signals[name]
        signal_sq = float((sig[0] ** 2).sum())
        resid = mag.features[name] - sig[mag.labels]
        eps_sq = float((resid ** 2).sum(axis=1).mean())
        snr = signal_sq / eps_sq if eps_sq else float("inf")
        print(f"{name}: beta_hat={beta_hat:.4f} sigma_n_sq={sigma_n:.4f} "
              f"snr_int={snr:.3f} tau={tau(alpha, beta_hat, sigma_n):.4f}")


def cmd_gen(args) -> int:
    doc = load_config(args.config)
    spec = synthetic_spec(doc, args.seed)
    mag = generate(spec)
    save(mag, args.out)
    _print_dataset_stats(mag, train_config(doc).alpha)
    log.info("dataset with %d nodes written to %s", mag.num_nodes, args.out)
    return EXIT_OK


def cmd_train(args) -> int:
    doc = load_config(args.config)
    cfg = train_config(doc, args.seed)
    mag = _load_data(args.data)
    report = train(mag, cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    print(f"{cfg.kind} {report.test_acc:.4f} {report.test_f1:.4f} "
          f"{len(report.epochs)} {report.wall_clock_seconds:.2f}")
    return EXIT_OK


def _load_data(path: str):
    if not path:
        raise DatasetError("--data is required for this command")
    if not os.path.isdir(path):
        raise DatasetError(f"dataset directory not found: {path}")
    return load(path)


@contextlib.contextmanager
def _pool_map(jobs: int):
    """``map`` for one job, else the map of a process pool that is shut
    down, its workers joined, when the block exits."""
    if jobs <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield pool.map


def cmd_sweep_noise(args) -> int:
    doc = load_config(args.config)
    section = dict(doc.get("sweep", {}))
    _check_keys(section, ("scales", "kinds", "seeds"), "sweep")
    scales = args.scales if args.scales is not None else section.get("scales", DEFAULT_SCALES)
    kinds = section.get("kinds", DEFAULT_SWEEP_KINDS)
    seeds = section.get("seeds", [0, 1, 2])
    cfg = train_config(doc, args.seed)
    mag = _load_data(args.data)
    with _pool_map(args.jobs) as pool_map:
        rows, annotation = sweep_noise(mag, scales, kinds, seeds, cfg,
                                       pool_map=pool_map)
    write_csv(args.out, "sweep", rows)
    write_manifest(args.out + ".manifest.json", asdict(cfg), cfg.seed,
                   {"scales": scales, "kinds": kinds, "seeds": seeds,
                    "annotation": annotation})
    for name, info in annotation["modalities"].items():
        print(f"{name}: beta_hat={info['beta_hat']:.4f} "
              f"sigma_n_sq={info['sigma_n_sq_hat']:.4f} tau={info['tau']:.4f}")
    print(f"{len(rows)} rows -> {args.out}")
    return EXIT_OK


def cmd_track_grads(args) -> int:
    doc = load_config(args.config)
    section = dict(doc.get("grads", {}))
    _check_keys(section, ("variants", "epochs"), "grads")
    variants = [(v[0], v[1]) for v in section.get("variants", DEFAULT_GRAD_VARIANTS)]
    epochs = section.get("epochs", 60)
    cfg = train_config(doc, args.seed)
    mag = _load_data(args.data)
    rows = track_gradients(mag, variants, epochs, cfg.seed, cfg)
    write_csv(args.out, "grads", rows)
    write_manifest(args.out + ".manifest.json", asdict(cfg), cfg.seed,
                   {"variants": [list(v) for v in variants], "epochs": epochs})
    print(f"{len(rows)} rows -> {args.out}")
    return EXIT_OK


def cmd_corrupt(args) -> int:
    doc = load_config(args.config)
    section = dict(doc.get("probe", {}))
    _check_keys(section, ("kinds", "dominant", "seeds"), "probe")
    kinds = [(k[0], k[1]) for k in section.get("kinds", DEFAULT_PROBE_KINDS)]
    seeds = section.get("seeds", [0, 1, 2])
    cfg = train_config(doc, args.seed)
    mag = _load_data(args.data)
    dominant = section.get("dominant", mag.modality_names()[0])
    rows = corruption_probe(mag, kinds, dominant, seeds, cfg)
    write_csv(args.out, "probe", rows)
    write_manifest(args.out + ".manifest.json", asdict(cfg), cfg.seed,
                   {"kinds": [list(k) for k in kinds], "dominant": dominant,
                    "seeds": seeds})
    for row in rows:
        print(f"{row['kind']} seed={row['seed']} F={row['F']:.4f} "
              f"D={row['D']:.4f} H={row['H']:.4f}")
    return EXIT_OK


def cmd_theory(args) -> int:
    passed = 0
    for name, check in ALL_CHECKS:
        ok, detail = check()
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        passed += ok
    print(f"{passed}/{len(ALL_CHECKS)} properties PASS")
    return EXIT_OK if passed == len(ALL_CHECKS) else EXIT_THEORY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magsim",
        description="Synthetic multimodal-graph lab: generation, training, "
                    "diagnostic sweeps, and closed-form theory validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, out=False, out_required=False):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, help="base seed override")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for independent sweep cells")
        if data:
            p.add_argument("--data", help="dataset directory")
        if out:
            p.add_argument("--out", required=out_required, help="output path")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    common(p, out=True, out_required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train one model and report metrics")
    common(p, data=True, out=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sweep-noise", help="noise-injection crossover sweep")
    common(p, data=True, out=True, out_required=True)
    p.add_argument("--scales", type=float, nargs="+", help="noise scale grid")
    p.set_defaults(fn=cmd_sweep_noise)

    p = sub.add_parser("track-grads", help="per-branch gradient norm traces")
    common(p, data=True, out=True, out_required=True)
    p.set_defaults(fn=cmd_track_grads)

    p = sub.add_parser("corrupt", help="dominant-modality corruption probe")
    common(p, data=True, out=True, out_required=True)
    p.set_defaults(fn=cmd_corrupt)

    p = sub.add_parser("theory", help="run the closed-form property checks")
    common(p)
    p.set_defaults(fn=cmd_theory)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("MAGSIM_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MagsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
