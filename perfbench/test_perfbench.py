"""Tests of the benchmark's own code: span self time, the epoch split and
its check against untraced epochs, metric names, tracer installation, the
graph digest and the no-sources exit.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import dataop  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, epoch_check, epoch_split, epoch_split_agrees, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, "test")


def test_self_time_subtracts_children_not_grandchildren():
    spans = [span(0, "a", 0.0, 10.0), span(1, "b", 1.0, 3.0, 0),
             span(2, "c", 4.0, 7.0, 0), span(3, "d", 5.0, 6.0, 2)]
    assert self_times(spans) == pytest.approx({0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, "a", 0.0, 10.0), span(1, "b", 1.0, 4.0, 0), span(2, "c", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_epoch_split_covers_each_epoch_exactly():
    spans = [span(0, "experiments.train", 0.0, 20.0),
             span(1, "models.build", 0.0, 1.0, 0)]
    sid = 2
    for start in (1.0, 9.0):               # two epochs of 8 s each
        for name, lo, hi in (("tensor.tape", 0.0, 0.1), ("models.forward_train", 0.1, 2.0),
                             ("supra.loss", 2.0, 2.5), ("tensor.backward", 2.5, 5.0),
                             ("tensor.adam_step", 5.0, 5.5), ("experiments.predict", 5.5, 7.0),
                             ("models.state_copy", 7.0, 7.5)):
            spans.append(span(sid, name, start + lo, start + hi, 0))
            sid += 1
    spans.append(span(sid, "models.load_state", 17.0, 17.5, 0))
    split = epoch_split(spans)
    assert split["epochs"] == 2
    assert split["wall"] == pytest.approx(16.0)
    assert split["forward"] == pytest.approx(2 * 2.4)
    assert split["backward"] == pytest.approx(2 * 2.5)
    assert split["adam"] == pytest.approx(2 * 0.5)
    assert split["eval"] == pytest.approx(2 * 1.5)
    parts = sum(split[k] for k in ("forward", "backward", "adam", "eval", "other"))
    assert parts == pytest.approx(split["wall"])


def test_metric_names_and_units_are_valid_and_match_benchmark_json():
    names = [n for n, _ in run.END_TO_END] + [n for n, _ in tracer.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in list(run.END_TO_END) + list(tracer.PER_LAYER):
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_tracer_reports_every_layer_metric_and_restores_magsim():
    from magsim import experiments, graph, tensor

    original_matmul, original_backward = tensor.matmul, tensor.Tape.backward
    spec = graph.SyntheticSpec(300, 3, [graph.ModalitySpec("text", 8, 1.0, 0.2),
                                        graph.ModalitySpec("visual", 8, 1.0, 0.8)], seed=1)
    mag = graph.generate(spec)
    cfg = experiments.TrainConfig(kind="supra", lambda_aux=0.7, hidden=16,
                                  max_epochs=3, patience=3, seed=1)
    with tracer.Tracer() as spans:
        experiments.train(mag, cfg)
    assert tensor.matmul is original_matmul
    assert tensor.Tape.backward is original_backward

    metrics = spans.summary()
    expected = {n for n, _ in tracer.PER_LAYER if not n.startswith("trace.")} | {"trace.spans"}
    assert set(metrics) == expected
    assert metrics["experiments.epochs"] == 3
    assert metrics["tensor.spmm.calls"] > 0 and metrics["tensor.tape_nodes"] > 0
    assert metrics["graph.row_normalize.calls"] == 1
    assert metrics["experiments.epoch.other_ms"] >= 0
    epochs_s = 3 * metrics["experiments.epoch.wall_ms"] / 1e3
    fixed_s = metrics["experiments.train_fixed_ms"] / 1e3
    assert 0 < fixed_s and epochs_s + fixed_s == pytest.approx(metrics["experiments.train_s"])

    with tracer.Tracer(epochs_only=True) as clock:
        experiments.train(mag, cfg)
    assert {s.name for s in clock.spans} == {"experiments.train", "tensor.tape",
                                             "models.load_state"}
    assert epoch_split(clock.spans)["epochs"] == 3


def test_epoch_check_bounds_the_gap_by_overhead_and_variation():
    # traced split 105 and 108 ms/epoch against untraced 100 and 102 ms/epoch
    m = epoch_check([105.0, 108.0], [100.0, 102.0], [4.0, 6.0])
    assert m["trace.epoch_gap_ms"] == pytest.approx(5.5)
    assert m["trace.epoch_overhead_ms"] == pytest.approx(5.0)
    assert m["trace.epoch_noise_ms"] == pytest.approx(2.0)
    assert epoch_split_agrees(m)
    assert not epoch_split_agrees(epoch_check([120.0, 120.0], [100.0, 102.0], [4.0, 6.0]))
    assert not epoch_split_agrees(epoch_check([90.0, 90.0], [100.0, 102.0], [4.0, 6.0]))
    assert epoch_check([], [0.0], [0.0])["trace.epoch_gap_ms"] == 0.0


def test_mag_digest_is_equality_across_a_save_and_load(tmp_path):
    from magsim import graph

    spec = graph.SyntheticSpec(200, 3, [graph.ModalitySpec("text", 4, 1.0, 0.2)], seed=2)
    mag = graph.generate(spec)
    graph.save(mag, str(tmp_path / "d"))
    loaded = graph.load(str(tmp_path / "d"))
    assert loaded == mag and dataop.mag_digest(loaded) == dataop.mag_digest(mag)
    assert dataop.dataset_digests(tmp_path / "d") == dataop.expected_digests(mag)
    loaded.features["text"][0, 0] += 1.0
    assert dataop.mag_digest(loaded) != dataop.mag_digest(mag)


def test_run_fails_without_magsim_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "data-200k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
