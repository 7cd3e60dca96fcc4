"""Trajectory oracle: five training epochs of every model kind, checked
against ``golden/trajectories.json``.

The golden file holds, per configuration and epoch, ``loss_total``,
``loss_task``, ``loss_aux``, ``val_acc`` and the branch gradient norms.  It
was recorded once from ``trajectories()`` below and is never re-recorded to
make a change pass: a change that moves a value beyond rtol 1e-9 changes
training behaviour and has to say so.  The tolerance sits about six orders
of magnitude above the drift measured between BLAS thread counts.
"""

import json
import math
from pathlib import Path

import pytest

from magsim.experiments import MODEL_KINDS, TrainConfig, train
from magsim.graph import ModalitySpec, SyntheticSpec, generate

GOLDEN = Path(__file__).parent / "golden" / "trajectories.json"
RTOL = 1e-9
BASE = dict(hidden=16, num_layers=2, lr=0.01, max_epochs=5, patience=5, seed=11,
            lambda_aux=0.7)
CONFIGS = {kind: {"kind": kind} for kind in MODEL_KINDS}
CONFIGS["supra-base"] = {"kind": "supra", "supra_variant": "base"}
CONFIGS["supra-synergy-only"] = {"kind": "supra", "supra_variant": "synergy-only"}
FIELDS = ("loss_total", "loss_task", "loss_aux", "val_acc")


def oracle_mag():
    return generate(SyntheticSpec(300, 3, [ModalitySpec("text", 8, 1.0, 0.8),
                                           ModalitySpec("visual", 6, 1.0, 1.5)],
                                  homophily=0.7, mean_degree=6, seed=21))


def trajectories() -> dict:
    mag = oracle_mag()
    out = {}
    for name, overrides in CONFIGS.items():
        report = train(mag, TrainConfig(**{**BASE, **overrides}))
        out[name] = [{**{f: row[f] for f in FIELDS}, "grad_norms": row["grad_norms"]}
                     for row in report.epochs]
    return out


@pytest.fixture(scope="module")
def measured():
    return trajectories()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trajectory_matches_golden(name, measured):
    golden = json.loads(GOLDEN.read_text())[name]
    rows = measured[name]
    assert len(rows) == len(golden) == BASE["max_epochs"]
    for epoch, (got, want) in enumerate(zip(rows, golden), start=1):
        assert set(got["grad_norms"]) == set(want["grad_norms"])
        pairs = [(f, got[f], want[f]) for f in FIELDS]
        pairs += [(f"grad_norms.{b}", got["grad_norms"][b], v)
                  for b, v in want["grad_norms"].items()]
        for field, g, w in pairs:
            assert math.isclose(g, w, rel_tol=RTOL, abs_tol=0.0), \
                f"{name} epoch {epoch} {field}: {g!r} != {w!r}"


def test_golden_covers_every_kind_and_supra_variant():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(CONFIGS)
    assert set(MODEL_KINDS) <= set(golden)
    assert any(row["loss_aux"] > 0 for row in golden["supra"])
