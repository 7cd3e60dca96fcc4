"""The benchmark's span tracer (perfbench/tracer.py) rebinds magsim's public
functions and a fixed list of class methods by name.  A package change that
renames or deletes one of those names breaks `perfbench/run.py --trace 1`;
this test installs the tracer against the package and checks that
uninstalling it restores every binding it touched."""

import importlib
import sys
import threading
from collections import Counter
from pathlib import Path

# loaded before the snapshot: every module the tracer patches
from magsim import aggregation, cli, experiments, graph, models, supra, tensor  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings() -> dict:
    """Every attribute of every loaded magsim module and of every class
    defined in magsim, keyed by (module, attribute[, class attribute])."""
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "magsim" or mod_name.startswith("magsim.")):
            continue
        for attr, value in vars(mod).items():
            snap[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("magsim"):
                for cls_attr, cls_value in vars(value).items():
                    snap[(mod_name, attr, cls_attr)] = cls_value
    return snap


def test_tracer_installs_on_the_package_and_uninstall_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    before = _bindings()
    traced = tracer.Tracer()
    traced.install()
    try:
        rebound = list(traced._undo)
        assert rebound
        for owner, attr, original in rebound:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        traced.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    for owner, attr, original in rebound:
        assert vars(owner)[attr] is original, (owner, attr)


def _traced_supra_span_names(tracer, num_nodes) -> list:
    mag = graph.generate(graph.SyntheticSpec(
        num_nodes, 3, [graph.ModalitySpec("text", 6, 1.0, 0.2),
                       graph.ModalitySpec("visual", 6, 1.0, 0.8)], seed=4))
    cfg = experiments.TrainConfig(kind="supra", lambda_aux=0.7, hidden=8,
                                  max_epochs=2, patience=2, seed=1)
    with tracer.Tracer() as traced:
        experiments.train(mag, cfg)
    return [s.name for s in traced.spans]


def test_traced_training_names_its_forward_spans(monkeypatch):
    """The tracer names a forward span by ``args[3]`` or the ``tape``
    keyword.  In ``forward(mag, tape=None, rng=None)`` ``args[3]`` is the
    rng, so ``train`` passes the tape by keyword; a span named wrongly
    would silently zero ``models.forward_train_ms``.  The adjacency is
    normalized once, by the first mean-aggregation operator it builds.  Each
    encoder block is one ``tensor.dense`` span with no ``tensor.linear``
    inside: the two share a private node, never a public name the tracer
    rebinds."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = _traced_supra_span_names(importlib.import_module("tracer"), 200)
    assert names.count("models.forward_train") == 2
    assert names.count("models.forward_eval") == 3      # two validations and the test
    assert names.count("graph.row_normalize") == 1
    assert names.count("tensor.dense") == 10            # 2 modalities x 5 forwards
    assert names.count("tensor.linear") == 25


def test_traced_training_over_row_blocks_records_the_same_spans(monkeypatch):
    """With several row blocks the tape ops run their blocks on the row-block
    pool, whose threads call no magsim function: the tracer's one span stack
    sees the spans of the single-block case, and nothing waits on the pool
    from inside it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    small, large = _traced_supra_span_names(tracer, 200), []
    worker = threading.Thread(daemon=True, target=lambda: large.extend(
        _traced_supra_span_names(tracer, 2 * tensor.ROW_BLOCK + 100)))
    worker.start()
    worker.join(120)
    assert not worker.is_alive(), "traced training over row blocks did not finish"
    # every span but the best-state copies, whose number follows the data
    small, large = (Counter(n for n in v if n != "models.state_copy") for v in (small, large))
    assert large == small and large["models.forward_train"] == 2
