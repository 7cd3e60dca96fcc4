"""The two halves of a data-200k operation, ``gen`` and ``load``.

    python3 perfbench/dataop.py gen --config C --out DIR --seed S
    python3 perfbench/dataop.py load --out DIR

Untraced, workloads.Data runs each half in a fresh interpreter, so that
the peak RSS it reports is that of magsim's own work: ``ru_maxrss`` is read
as soon as the timed call returns, before any check builds its own copies
of the data.  The checks' inputs (digests) are computed afterwards and
printed, with the timing, as one JSON line on stdout.  Traced, the same
functions run inside the worker, where the tracer can see them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from magsim import cli, graph  # noqa: E402


def error_text(exc) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def dataset_digests(directory) -> dict:
    out = {}
    for entry in sorted(os.listdir(directory)):
        h = hashlib.sha256()
        with open(os.path.join(directory, entry), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[entry] = h.hexdigest()
    return out


def expected_digests(mag) -> dict:
    """Digests of the files the documented dataset format holds for ``mag``,
    serialised here independently of ``graph.save``."""
    meta = {
        "num_nodes": mag.num_nodes,
        "num_classes": mag.num_classes,
        "modalities": [{"name": n, "dim": d} for n, d in mag.modalities],
        "splits": {k: mag.splits[k].tolist() for k in ("train", "val", "test")},
        "labels": mag.labels.tolist(),
    }
    adj = mag.adjacency
    src = np.repeat(np.arange(mag.num_nodes), np.diff(adj.row_offsets))
    upper = src < adj.col_indices
    edges = "".join(f"{a},{b}\n" for a, b in zip(src[upper].tolist(),
                                                  adj.col_indices[upper].tolist()))
    files = {"meta.json": json.dumps(meta).encode(), "edges.csv": edges.encode()}
    for name, _dim in mag.modalities:
        files[f"feat_{name}.f32"] = mag.features[name].astype("<f4").tobytes()
        if mag.signals is not None and name in mag.signals:
            files[f"signals_{name}.f32"] = mag.signals[name].astype("<f4").tobytes()
    return {k: hashlib.sha256(v).hexdigest() for k, v in sorted(files.items())}


def mag_digest(mag) -> str:
    """One digest of every field ``Mag.__eq__`` compares, so that two graphs
    in different processes are equal exactly when their digests are."""
    h = hashlib.sha256()

    def add(array, dtype):
        array = np.ascontiguousarray(array, dtype=dtype)
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())

    adj = mag.adjacency
    h.update(repr((mag.num_nodes, mag.num_classes, list(mag.modalities), adj.num_rows,
                   adj.num_cols, adj.normalized, sorted(mag.features),
                   None if mag.signals is None else sorted(mag.signals))).encode())
    add(mag.labels, np.int64)
    for k in ("train", "val", "test"):
        add(mag.splits[k], np.int64)
    for k in sorted(mag.features):
        add(mag.features[k], np.float64)
    for k in sorted(mag.signals or {}):
        add(mag.signals[k], np.float64)
    add(adj.row_offsets, np.int64)
    add(adj.col_indices, np.int64)
    add(adj.values, np.float64)
    return h.hexdigest()


def gen(config: str, out: str, seed: int) -> dict:
    """``magsim gen``, timed; then the digests its output is checked with."""
    generated = []
    saved = cli.save

    def keep_and_save(mag, directory):
        generated.append(mag)
        return saved(mag, directory)

    result = {"problems": []}
    cli.save = keep_and_save
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gen", "--config", config, "--out", out, "--seed", str(seed)])
        if code != 0:
            result["problems"].append(f"gen exited with {code}")
    except Exception as exc:
        result["problems"].append(error_text(exc))
    finally:
        result["gen_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = peak_rss_mb()
        cli.save = saved
    if not generated:
        result["problems"].append("gen saved no graph")
    elif not result["problems"]:
        result["files"] = dataset_digests(out)
        result["expected"] = expected_digests(generated[0])
        result["mag"] = mag_digest(generated[0])
    return result


def load(out: str) -> dict:
    """``graph.load``, timed; then the digest of the graph it returned."""
    result = {"problems": []}
    start = time.perf_counter()
    try:
        loaded = graph.load(out)
    except Exception as exc:
        loaded = None
        result["problems"].append(error_text(exc))
    result["load_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = peak_rss_mb()
    if loaded is not None:
        result["mag"] = mag_digest(loaded)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("half", choices=("gen", "load"))
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    args = p.parse_args(argv)
    result = gen(args.config, args.out, args.seed) if args.half == "gen" else load(args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
