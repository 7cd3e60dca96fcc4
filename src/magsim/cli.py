"""Command-line entry point.

Subcommands: gen, train, sweep-noise, track-grads, corrupt, theory.
Exit codes: 0 ok, 2 config error (an allocation that fails, such as
numpy's for a size no host can hold, included), 3 I/O error, 4 numeric
failure during training, 5 theory property failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, fields

from . import tensor as T
from .errors import ConfigError, ContractError, DatasetError, MagsimError, check_number
from .experiments import (NumericError, TrainConfig, calibration_table,
                          corruption_probe, sweep_noise, track_gradients, train,
                          write_csv, write_manifest)
from .graph import ModalitySpec, SyntheticSpec, generate, intrinsic_noise, load, save
from .validation import ALL_CHECKS

EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_THEORY = 0, 2, 3, 4, 5

SWEEP = {"scales": [0.0, 0.25, 0.5, 1.0, 2.0, 4.0], "kinds": ["ef-mlp", "gcn-joint", "supra"],
         "seeds": [0, 1, 2]}
GRADS = {"variants": [
    ["indep-agg", {"kind": "indep-agg"}],
    ["supra-synergy-only", {"kind": "supra", "supra_variant": "synergy-only"}],
    ["supra-base", {"kind": "supra", "supra_variant": "base"}],
    ["supra-aux", {"kind": "supra", "supra_variant": "full", "lambda_aux": 0.7}],
], "epochs": 60}
PROBE = {"kinds": GRADS["variants"][2:], "dominant": None, "seeds": [0, 1, 2]}
TRAIN = asdict(TrainConfig())
SYNTHETIC = {"num_nodes": 2000, "num_classes": 4,
             "modalities": [{"name": "text", "dim": 16}, {"name": "visual", "dim": 16}],
             **{f.name: f.default for f in fields(SyntheticSpec) if f.default is not MISSING}}


def _check_keys(doc: dict, allowed, context: str):
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown key {unknown[0]!r}")


def _section(doc: dict, name: str, defaults: dict) -> dict:
    """The config's ``name`` object laid over ``defaults``: it may set no
    other key, a value whose default is a list (or tuple) must be a list, empty
    only if the default is, and each of its ``seeds`` an integer >= 0."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: must be an object, got {section!r:.40}")
    _check_keys(section, defaults, name)
    merged = {**defaults, **section}
    for key, default in defaults.items():
        if isinstance(default, (list, tuple)) and not isinstance(merged[key], (list, tuple)):
            raise ConfigError(f"{name}.{key}: must be a list, got {merged[key]!r:.40}")
        if default and isinstance(default, (list, tuple)) and not merged[key]:
            raise ConfigError(f"{name}.{key}: must not be empty")
    for seed in merged.get("seeds", ()):
        check_number(f"{name}.seeds", seed, integer=True, low=0)
    return merged


def _check_pairs(pairs: list, context: str):
    """Each entry a [name, {train overrides}] pair."""
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
                and isinstance(pair[1], dict)):
            raise ConfigError(f"{context}: expected [name, {{overrides}}] pairs, "
                              f"got {pair!r:.40}")
        _check_keys(pair[1], TRAIN, f"{context} {pair[0]!r}")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DatasetError(f"config file not found: {path}")
    except ValueError as exc:               # not JSON, or not UTF-8
        raise ConfigError(f"{path}: not valid UTF-8 JSON ({exc})")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(doc, ("synthetic", "train", "sweep", "grads", "probe"), path)
    return doc


def synthetic_spec(doc: dict, seed_override=None) -> SyntheticSpec:
    section = _section(doc, "synthetic", SYNTHETIC)
    specs = []
    for m in section.pop("modalities"):
        if not isinstance(m, dict) or not {"name", "dim"} <= m.keys():
            raise ConfigError(f"synthetic.modalities: expected objects with a name and "
                              f"a dim, got {m!r:.40}")
        _check_keys(m, ("name", "dim", "signal_norm", "noise_var"), "synthetic.modalities")
        specs.append(ModalitySpec(**m))
    if seed_override is not None:
        section["seed"] = seed_override
    return SyntheticSpec(modalities=specs, **section)


def train_config(doc: dict, seed_override=None) -> TrainConfig:
    section = _section(doc, "train", TRAIN)
    if seed_override is not None:
        section["seed"] = seed_override
    return TrainConfig(**section)


def _print_dataset_stats(mag, alpha: float):
    for name, info in calibration_table(mag, alpha).items():
        signal_sq, eps_sq = float((mag.signals[name][0] ** 2).sum()), intrinsic_noise(mag, name)
        snr = signal_sq / eps_sq if eps_sq else float("inf")
        print(f"{name}: beta_hat={info['beta_hat']:.4f} sigma_n_sq={info['sigma_n_sq_hat']:.4f} "
              f"snr_int={snr:.3f} tau={info['tau']:.4f}")


def cmd_gen(args) -> int:
    doc = load_config(args.config)
    mag = generate(synthetic_spec(doc, args.seed))
    save(mag, args.out)
    _print_dataset_stats(mag, train_config(doc).alpha)
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
    """``map`` for one job, else the map of a process pool (workers at one
    compute thread) that is shut down, its workers joined, when the block exits."""
    if jobs <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=jobs, initializer=T._set_threads,
                             initargs=(1,)) as pool:
        yield pool.map


def cmd_sweep_noise(args) -> int:
    doc = load_config(args.config)
    sweep = _section(doc, "sweep", SWEEP)
    scales = args.scales if args.scales is not None else sweep["scales"]
    kinds, seeds = sweep["kinds"], sweep["seeds"]
    for scale in scales:
        check_number("sweep.scales", scale, low=0)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = train_config(doc, args.seed)
    mag = _load_data(args.data)
    with _pool_map(min(args.jobs, len(scales) * len(kinds) * len(seeds))) as pool_map:
        rows, annotation = sweep_noise(mag, scales, kinds, seeds, cfg,
                                       pool_map=pool_map)
    write_csv(args.out, "sweep", rows)
    write_manifest(args.out + ".manifest.json", cfg,
                   {"scales": scales, "kinds": kinds, "seeds": seeds,
                    "annotation": annotation})
    for name, info in annotation["modalities"].items():
        print(f"{name}: beta_hat={info['beta_hat']:.4f} "
              f"sigma_n_sq={info['sigma_n_sq_hat']:.4f} tau={info['tau']:.4f}")
    print(f"{len(rows)} rows -> {args.out}")
    return EXIT_OK


def cmd_track_grads(args) -> int:
    doc = load_config(args.config)
    grads = _section(doc, "grads", GRADS)
    variants, epochs = grads["variants"], grads["epochs"]
    _check_pairs(variants, "grads.variants")
    cfg = train_config(doc, args.seed)
    mag = _load_data(args.data)
    rows = track_gradients(mag, variants, epochs, cfg)
    write_csv(args.out, "grads", rows)
    write_manifest(args.out + ".manifest.json", cfg,
                   {"variants": variants, "epochs": epochs})
    print(f"{len(rows)} rows -> {args.out}")
    return EXIT_OK


def cmd_corrupt(args) -> int:
    doc = load_config(args.config)
    probe = _section(doc, "probe", PROBE)
    kinds, seeds = probe["kinds"], probe["seeds"]
    _check_pairs(kinds, "probe.kinds")
    cfg = train_config(doc, args.seed)
    mag = _load_data(args.data)
    dominant = mag.modality_names()[0] if probe["dominant"] is None else probe["dominant"]
    rows = corruption_probe(mag, kinds, dominant, seeds, cfg)
    write_csv(args.out, "probe", rows)
    write_manifest(args.out + ".manifest.json", cfg,
                   {"kinds": kinds, "dominant": dominant, "seeds": seeds})
    for row in rows:
        print(f"{row['kind']} seed={row['seed']} F={row['F']:.4f} "
              f"D={row['D']:.4f} H={row['H']:.4f}")
    return EXIT_OK


def cmd_theory(args) -> int:
    passed = 0
    for name, check in ALL_CHECKS:
        ok, detail = check()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        passed += ok
    print(f"{passed}/{len(ALL_CHECKS)} properties PASS")
    return EXIT_OK if passed == len(ALL_CHECKS) else EXIT_THEORY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magsim",
        description="Synthetic multimodal-graph lab: generation, training, "
                    "diagnostic sweeps, and closed-form theory validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, data=True, out_required=True):
        """A subcommand with --config, --seed, --out and (unless ``data`` is
        false) --data."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, help="base seed override")
        if data:
            p.add_argument("--data", help="dataset directory")
        p.add_argument("--out", required=out_required, help="output path")
        p.set_defaults(fn=fn)
        return p

    command("gen", cmd_gen, "generate a synthetic dataset", data=False)
    command("train", cmd_train, "train one model and report metrics", out_required=False)
    p = command("sweep-noise", cmd_sweep_noise, "noise-injection crossover sweep")
    p.add_argument("--scales", type=float, nargs="+", help="noise scale grid")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for independent sweep cells")
    command("track-grads", cmd_track_grads, "per-branch gradient norm traces")
    command("corrupt", cmd_corrupt, "dominant-modality corruption probe")
    sub.add_parser("theory", help="run the closed-form property checks").set_defaults(fn=cmd_theory)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:      # numpy's message names the size asked for
        print(f"config error: {exc or 'out of memory'}", file=sys.stderr)
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
