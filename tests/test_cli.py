"""Command-line interface: exit codes, config handling, output formats,
and byte-level reproducibility against golden files."""

import contextlib
import ctypes
import io
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import src_env
from magsim import tensor as T
from magsim.cli import _pool_map, build_parser, main
from magsim.graph import calibrate, load
from magsim.theory import tau

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

TINY_CONFIG = {
    "synthetic": {
        "num_nodes": 120,
        "num_classes": 3,
        "modalities": [
            {"name": "text", "dim": 6, "signal_norm": 1.0, "noise_var": 0.2},
            {"name": "visual", "dim": 6, "signal_norm": 1.0, "noise_var": 0.6},
        ],
        "homophily": 0.7,
        "mean_degree": 5,
        "seed": 42,
    },
    "train": {"kind": "ef-mlp", "hidden": 8, "max_epochs": 5, "patience": 5,
              "dropout": 0.0, "seed": 42},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture()
def dataset_dir(tmp_path, config_path):
    out = str(tmp_path / "data")
    assert main(["gen", "--config", config_path, "--out", out]) == 0
    return out


def supra_config(tmp_path, **train_overrides):
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["train"].update({"kind": "supra", "hidden": 8, "num_layers": 1,
                         **train_overrides})
    path = tmp_path / "supra_config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# help and argument plumbing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cmd", ["gen", "train", "sweep-noise", "track-grads",
                                 "corrupt", "theory"])
def test_help_exits_zero(cmd):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0


def test_installed_entry_point():
    out = subprocess.run(["magsim", "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "gen" in out.stdout and "theory" in out.stdout


def run_module(*argv):
    """``python -m magsim ARGV`` with this checkout's package on the path."""
    return subprocess.run([sys.executable, "-m", "magsim", *argv],
                          capture_output=True, text=True, env=src_env())


_SCIPY_SPARSE_CHILD = """
import sys
import magsim.cli
from magsim import tensor as T
from magsim.aggregation import ego_jacobian_diag
from magsim.experiments import TrainConfig, train
from magsim.graph import ModalitySpec, SyntheticSpec, calibrate, generate

mag = generate(SyntheticSpec(200, 3, [ModalitySpec("text", 8), ModalitySpec("visual", 6)], seed=2))
for kind in ("gcn-joint", "sage-concat"):
    train(mag, TrainConfig(kind=kind, max_epochs=1, patience=1))
calibrate(mag, "text")
ego_jacobian_diag(mag.adjacency, 0.5, 2, 0)
assert "scipy.sparse" not in sys.modules, "magsim imported the scipy.sparse package"
from scipy.sparse import _compressed, _sparsetools
assert _sparsetools is _compressed._sparsetools is T._sparsetools
"""


def test_magsim_never_imports_the_scipy_sparse_package():
    # the package's __init__ costs 0.15-0.25 s and about 20 MB per process;
    # magsim loads only its compiled CSR routines, and SciPy reuses them
    out = subprocess.run([sys.executable, "-c", _SCIPY_SPARSE_CHILD],
                         capture_output=True, text=True, env=src_env())
    assert out.returncode == 0, out.stderr


def test_python_dash_m_runs_the_cli(tmp_path):
    out = run_module("--help")
    assert out.returncode == 0
    assert "gen" in out.stdout and "theory" in out.stdout
    assert run_module("train", "--data", str(tmp_path / "nowhere")).returncode == 3


# ---------------------------------------------------------------------------
# config errors
# ---------------------------------------------------------------------------

def test_unknown_config_key_names_it(tmp_path, capsys):
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["synthetic"]["homophilly"] = 0.7
    del doc["synthetic"]["homophily"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["gen", "--config", str(path), "--out", str(tmp_path / "d")])
    assert code == 2
    assert "homophilly" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["gen", "--config", str(path), "--out", str(tmp_path / "d")]) == 2


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["gen", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "d")]) == 3


def test_missing_data_dir_is_io_error(tmp_path, config_path):
    assert main(["train", "--config", config_path,
                 "--data", str(tmp_path / "nowhere")]) == 3


def _rewrite_meta(edit):
    def apply(directory):
        path = os.path.join(directory, "meta.json")
        with open(path) as fh:
            meta = json.load(fh)
        edit(meta)
        with open(path, "w") as fh:
            json.dump(meta, fh)
    return apply


def _append_edge(line_of):
    def apply(directory):
        path = os.path.join(directory, "edges.csv")
        with open(path) as fh:
            first = fh.readline()
        with open(path, "a") as fh:
            fh.write(line_of(first))
    return apply


@pytest.mark.parametrize("name,edit", [
    ("meta.json", _rewrite_meta(lambda m: m["splits"].pop("val"))),
    ("meta.json", _rewrite_meta(lambda m: m["modalities"][0].pop("dim"))),
    ("meta.json", _rewrite_meta(lambda m: m.update(num_classes="3"))),
    ("edges.csv", _append_edge(lambda first: "4,4\n")),          # a self-loop
    ("edges.csv", _append_edge(lambda first: first)),             # a duplicate edge
    ("meta.json", _rewrite_meta(lambda m: m.update(num_nodes=10**15))),
    ("edges.csv", _append_edge(lambda first: "99999999999999999999,1\n")),
    ("repeated modality name",
     _rewrite_meta(lambda m: m["modalities"].append(m["modalities"][0]))),
    ("at least one modality", _rewrite_meta(lambda m: m.update(modalities=[]))),
], ids=["no-val-split", "no-dim", "string-count", "self-loop", "duplicate-edge",
        "inflated-num-nodes", "edge-past-int64", "repeated-modality", "no-modality"])
def test_malformed_dataset_is_io_error(tmp_path, config_path, dataset_dir, capsys,
                                       name, edit):
    edit(dataset_dir)
    assert main(["train", "--config", config_path, "--data", dataset_dir]) == 3
    assert name in capsys.readouterr().err


def test_num_classes_above_num_nodes_exit_3(config_path, dataset_dir, capsys):
    # without the signals sidecars nothing else bounds num_classes
    for name in ("text", "visual"):
        os.remove(os.path.join(dataset_dir, f"signals_{name}.f32"))
    _rewrite_meta(lambda m: m.update(num_classes=10**15))(dataset_dir)
    assert main(["train", "--config", config_path, "--data", dataset_dir]) == 3
    assert "num_classes 1000000000000000 exceeds num_nodes 120" in capsys.readouterr().err


def test_non_utf8_edges_exit_3(config_path, dataset_dir, capsys):
    with open(os.path.join(dataset_dir, "edges.csv"), "wb") as fh:
        fh.write(b"0,1\n\xff\xfe,2\n")
    assert main(["train", "--config", config_path, "--data", dataset_dir]) == 3
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_feature_exit_3(config_path, dataset_dir, capsys, value):
    path = os.path.join(dataset_dir, "feat_visual.f32")
    with open(path, "r+b") as fh:
        fh.seek((7 * 6 + 1) * 4)        # row 7 of the 6-wide visual features
        fh.write(np.array([value], dtype="<f4").tobytes())
    assert main(["train", "--config", config_path, "--data", dataset_dir]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"I/O error: {path}: row 7 holds a NaN or an inf"]


def test_negative_noise_var_exit_2(tmp_path, capsys):
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["synthetic"]["modalities"][0]["noise_var"] = -0.2
    path = tmp_path / "bad_noise.json"
    path.write_text(json.dumps(doc))
    assert main(["gen", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    assert "noise_var" in capsys.readouterr().err


def test_nan_lr_exit_2(tmp_path, dataset_dir, capsys):
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["train"]["lr"] = float("nan")          # json writes and reads NaN
    path = tmp_path / "nan_lr.json"
    path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(path), "--data", dataset_dir]) == 2
    assert "lr must be finite" in capsys.readouterr().err


def test_bad_train_key_rejected(tmp_path, dataset_dir):
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["train"]["learning_rate"] = 0.01
    path = tmp_path / "bad_train.json"
    path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(path), "--data", dataset_dir]) == 2


@pytest.mark.parametrize("cmd,edit", [
    ("gen", lambda d: d["synthetic"].update(num_nodes=10**15)),
    ("gen", lambda d: d["synthetic"]["modalities"][0].update(dim=10**15)),
    ("train", lambda d: d["train"].update(hidden=10**15)),
], ids=["num-nodes", "modality-dim", "hidden"])
def test_an_allocation_no_host_can_hold_is_config_error(tmp_path, dataset_dir, capsys, cmd, edit):
    # 10**15 rows or columns of float64 exceed a 2**47-byte address space, so numpy
    # fails at once under any overcommit policy, before a byte is committed
    doc = json.loads(json.dumps(TINY_CONFIG))
    edit(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    where = ["--out", str(tmp_path / "d")] if cmd == "gen" else ["--data", dataset_dir]
    assert main([cmd, "--config", str(path)] + where) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate") and err.count("\n") == 1


@pytest.mark.parametrize("cmd,section,key,value", [
    ("gen", "synthetic", "modalities", "text"),
    ("gen", "synthetic", "modalities", ["text"]),
    ("gen", "synthetic", "modalities", [{"name": "text", "signal_norm": 1.0}]),
    ("gen", "synthetic", "split_fracs", "0.6,0.2,0.2"),
    ("sweep-noise", "sweep", "scales", "0"),
    ("sweep-noise", "sweep", "scales", [0, "1"]),
    ("sweep-noise", "sweep", "scales", [0, -1.0]),
    ("sweep-noise", "sweep", "kinds", "ef-mlp"),
    ("sweep-noise", "sweep", "seeds", 0),
    ("track-grads", "grads", "variants", [["supra-base"]]),
    ("track-grads", "grads", "variants", [["supra-base", "supra"]]),
    ("track-grads", "grads", "variants", [["supra-base", {"learning_rate": 0.1}]]),
    ("corrupt", "probe", "kinds", [[{"kind": "supra"}, "supra-base"]]),
    ("corrupt", "probe", "kinds", ["supra-base"]),
    ("corrupt", "probe", "seeds", {"0": 1}),
    ("sweep-noise", "sweep", "seeds", [0, None]),
    ("sweep-noise", "sweep", "seeds", [{"a": 1}]),
    ("corrupt", "probe", "seeds", [-1]),
    ("corrupt", "probe", "seeds", [1.5]),
    ("corrupt", "probe", "seeds", [True]),
    ("gen", "synthetic", "modalities", []),
    ("sweep-noise", "sweep", "seeds", []),
    ("corrupt", "probe", "kinds", []),
    ("corrupt", "probe", "seeds", []),
    ("track-grads", "grads", "variants", []),
], ids=["modalities-str", "modalities-of-str", "modality-without-dim", "split-fracs-str",
        "scales-str", "scale-str", "scale-negative", "kinds-str", "seeds-int", "variant-short",
        "variant-overrides-str", "variant-unknown-key", "probe-kind-swapped",
        "probe-kind-str", "probe-seeds-dict", "seed-null", "seed-object",
        "probe-seed-negative", "probe-seed-float", "probe-seed-bool", "modalities-empty",
        "sweep-seeds-empty", "probe-kinds-empty", "probe-seeds-empty", "variants-empty"])
def test_malformed_section_names_it(tmp_path, dataset_dir, capsys, cmd, section, key, value):
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc.setdefault(section, {})[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = [cmd, "--config", str(path), "--out", str(tmp_path / "out")]
    code = main(argv + ([] if cmd == "gen" else ["--data", dataset_dir]))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and f"{section}.{key}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", ["synthetic", "train"])
def test_a_section_that_is_no_object_is_config_error(tmp_path, dataset_dir, capsys, section):
    doc = {**TINY_CONFIG, section: [1, 2]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    cmd = ["gen", "--out", str(tmp_path / "d")] if section == "synthetic" else \
        ["train", "--data", dataset_dir]
    assert main(cmd + ["--config", str(path)]) == 2
    assert f"{section}: must be an object" in capsys.readouterr().err


def test_mean_degree_above_num_nodes_exit_2(tmp_path, capsys):
    # the edge draw would ask for mean_degree * N / 2 edges at once
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["synthetic"]["mean_degree"] = 1e12
    path = tmp_path / "bad_degree.json"
    path.write_text(json.dumps(doc))
    assert main(["gen", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    assert "mean_degree" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["te/xt", "", "te\0xt"], ids=["slash", "empty", "nul"])
def test_gen_with_a_name_no_file_can_have_writes_nothing(tmp_path, capsys, name):
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["synthetic"]["modalities"][0]["name"] = name
    path = tmp_path / "bad_name.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["gen", "--config", str(path), "--out", str(out)]) == 2
    assert "modality name" in capsys.readouterr().err
    assert not (out / "meta.json").exists() and not (out / "edges.csv").exists()


def test_gen_that_cannot_write_a_file_leaves_no_file_it_wrote(tmp_path, capsys):
    # a name the file system rejects for its length passes the config check
    # and fails only when feat_<name>.f32 is written, after meta.json and edges.csv
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["synthetic"]["modalities"][0]["name"] = "x" * 300
    path = tmp_path / "long_name.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("mine")
    assert main(["gen", "--config", str(path), "--out", str(out)]) == 3
    assert "I/O error" in capsys.readouterr().err
    assert os.listdir(out) == ["notes.txt"] and (out / "notes.txt").read_text() == "mine"


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"train": {"kind": "ef-mlp"}} \xe9'.encode("latin-1"))
    assert main(["gen", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    assert "not valid UTF-8 JSON" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["theory", "--config", "nonexist.json"], ["theory", "--seed", "1"], ["theory", "--jobs", "2"],
    ["gen", "--out", "d", "--jobs", "2"], ["train", "--jobs", "2"],
    ["track-grads", "--out", "g.csv", "--jobs", "2"], ["corrupt", "--out", "p.csv", "--jobs", "2"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_each_command_has_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices
    flags = {cmd: sorted(opt for a in p._actions for opt in a.option_strings
                         if opt.startswith("--") and opt != "--help")
             for cmd, p in sub.items()}
    common = ["--config", "--out", "--seed"]
    assert flags == {"gen": common, "train": sorted(common + ["--data"]),
                     "sweep-noise": sorted(common + ["--data", "--jobs", "--scales"]),
                     "track-grads": sorted(common + ["--data"]),
                     "corrupt": sorted(common + ["--data"]), "theory": []}
    assert sum(map(len, flags.values())) == 21


FUZZ_CONFIG = {
    "synthetic": {**TINY_CONFIG["synthetic"], "num_nodes": 60, "split_fracs": [0.6, 0.2, 0.2]},
    "train": {"kind": "supra", "lr": 0.01, "max_epochs": 1, "patience": 1, "seed": 3,
              "hidden": 4, "num_layers": 1, "alpha": 0.5, "dropout": 0.1, "smoothing": 0.1,
              "weight_decay": 1e-4, "lambda_aux": 0.7, "supra_variant": "full"},
    "sweep": {"scales": [0.0], "kinds": ["ef-mlp"], "seeds": [0]},
    "probe": {"kinds": [["supra-base", {"kind": "supra", "supra_variant": "base"}]],
              "seeds": [0]},
}
_SEED_ENTRIES = [("sweep", "seeds", 0), ("probe", "seeds", 0)]
_FUZZ_PATHS = ([(section,) for section in FUZZ_CONFIG]
               + [(section, key) for section in FUZZ_CONFIG for key in FUZZ_CONFIG[section]]
               + [("synthetic", "modalities", 0, key)
                  for key in FUZZ_CONFIG["synthetic"]["modalities"][0]]
               + _SEED_ENTRIES)
# the command that reads each of these sections; gen and train read the others
_FUZZ_COMMANDS = {"sweep": "sweep-noise", "probe": "corrupt"}
_DROP = object()
# wrong types only: a wrong magnitude (say a huge num_nodes) would size arrays
_WRONG_TYPES = st.sampled_from(["x", ["x"], [], {"x": 1}, None, True, False, _DROP])


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    path = d / "config.json"
    path.write_text(json.dumps(FUZZ_CONFIG))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", str(path), "--out", str(d / "data")]) == 0
    return str(d / "data")


@given(path=st.sampled_from(_FUZZ_PATHS), value=_WRONG_TYPES)
@settings(max_examples=200, deadline=None)
def test_fuzzed_config_ends_in_a_typed_error(fuzz_data, tmp_path_factory, path, value):
    doc = json.loads(json.dumps(FUZZ_CONFIG))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    d = tmp_path_factory.mktemp("case")
    config = d / "config.json"
    config.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        if path[0] in _FUZZ_COMMANDS:
            codes = [main([_FUZZ_COMMANDS[path[0]], "--config", str(config), "--data", fuzz_data,
                           "--out", str(d / "out.csv")])]
        else:
            codes = [main(["gen", "--config", str(config), "--out", str(d / "data")]),
                     main(["train", "--config", str(config), "--data", fuzz_data])]
    assert all(code in (0, 2, 3) for code in codes), (codes, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if path in _SEED_ENTRIES and value is not _DROP:      # no wrong type is a seed
        assert codes == [2], (codes, err.getvalue())


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_loadable_dataset(dataset_dir, capsys):
    mag = load(dataset_dir)
    assert mag.num_nodes == 120
    assert [n for n, _ in mag.modalities] == ["text", "visual"]
    for fname in ("meta.json", "edges.csv", "feat_text.f32", "feat_visual.f32"):
        assert os.path.exists(os.path.join(dataset_dir, fname))


def test_gen_stdout_reports_calibration(tmp_path, config_path, capsys):
    main(["gen", "--config", config_path, "--out", str(tmp_path / "d2")])
    out = capsys.readouterr().out
    assert "beta_hat=" in out and "tau=" in out and "snr_int=" in out


def test_gen_stdout_matches_the_public_estimators(tmp_path, config_path, capsys):
    out_dir = str(tmp_path / "d3")
    main(["gen", "--config", config_path, "--out", out_dir])
    mag = load(out_dir)
    expected = []
    for name in mag.features:
        beta, sigma = calibrate(mag, name)
        resid = mag.features[name] - mag.signals[name][mag.labels]
        snr = float((mag.signals[name][0] ** 2).sum()) / float((resid ** 2).sum(axis=1).mean())
        expected.append(f"{name}: beta_hat={beta:.4f} sigma_n_sq={sigma:.4f} "
                        f"snr_int={snr:.3f} tau={tau(0.5, beta, sigma):.4f}")
    assert capsys.readouterr().out.splitlines() == expected


def test_gen_and_sweep_accept_a_calibrated_beta_above_one(tmp_path, capsys):
    # at homophily 1.0 the measured beta_hat is 1.028; it is reported, not
    # range-checked as if a caller had chosen it
    doc = {"synthetic": {"num_nodes": 300, "num_classes": 4, "homophily": 1.0,
                         "mean_degree": 4, "seed": 2,
                         "modalities": [{"name": "text", "dim": 16, "noise_var": 2.0}]},
           "train": {"kind": "ef-mlp", "hidden": 8, "max_epochs": 2, "seed": 0},
           "sweep": {"kinds": ["ef-mlp"], "seeds": [0]}}
    path, data, out = tmp_path / "h1.json", str(tmp_path / "h1"), str(tmp_path / "h1.csv")
    path.write_text(json.dumps(doc))
    assert main(["gen", "--config", str(path), "--out", data]) == 0
    assert "text: beta_hat=1.0280 " in capsys.readouterr().out
    assert main(["sweep-noise", "--config", str(path), "--data", data,
                 "--out", out, "--scales", "0"]) == 0
    assert len(open(out).read().splitlines()) == 2
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["annotation"]["modalities"]["text"]["beta_hat"] > 1.0


def test_sweep_on_a_graph_without_edges_exits_2(tmp_path, config_path, dataset_dir, capsys):
    # with every node isolated calibration has nothing to measure; it must
    # fail before any cell trains, not print beta_hat=nan
    open(os.path.join(dataset_dir, "edges.csv"), "w").close()
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-noise", "--config", config_path, "--data", dataset_dir,
                 "--out", out, "--scales", "0"]) == 2
    assert "at least one non-isolated node" in capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(out + ".manifest.json")


def test_gen_rejects_more_classes_than_nodes(tmp_path, capsys):
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["synthetic"].update(num_nodes=10, num_classes=12,
                            modalities=[{"name": "text", "dim": 12}])
    path, out = tmp_path / "c.json", str(tmp_path / "c")
    path.write_text(json.dumps(doc))
    assert main(["gen", "--config", str(path), "--out", out]) == 2
    assert "num_classes 12 exceeds num_nodes 10" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_gen_byte_reproducible(tmp_path, config_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["gen", "--config", config_path, "--out", a]) == 0
    assert main(["gen", "--config", config_path, "--out", b]) == 0
    for fname in sorted(os.listdir(a)):
        fa = open(os.path.join(a, fname), "rb").read()
        fb = open(os.path.join(b, fname), "rb").read()
        assert fa == fb, fname


def test_gen_seed_override_changes_data(tmp_path, config_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    main(["gen", "--config", config_path, "--out", a])
    main(["gen", "--config", config_path, "--out", b, "--seed", "99"])
    fa = open(os.path.join(a, "feat_text.f32"), "rb").read()
    fb = open(os.path.join(b, "feat_text.f32"), "rb").read()
    assert fa != fb
    assert json.load(open(os.path.join(b, "meta.json")))  # still valid


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_stdout_and_report(tmp_path, config_path, dataset_dir, capsys):
    report_path = str(tmp_path / "report.json")
    code = main(["train", "--config", config_path, "--data", dataset_dir,
                 "--out", report_path])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    parts = line.split()
    assert parts[0] == "ef-mlp"
    assert 0.0 <= float(parts[1]) <= 1.0
    doc = json.loads(open(report_path).read())
    assert doc["config"]["kind"] == "ef-mlp"
    assert len(doc["epochs"]) >= 1
    assert "wall_clock_seconds" in doc


# ---------------------------------------------------------------------------
# sweep / grads / corrupt outputs
# ---------------------------------------------------------------------------

def run_sweep(tmp_path, config_path, dataset_dir, name="sweep.csv"):
    out = str(tmp_path / name)
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["sweep"] = {"kinds": ["ef-mlp"], "seeds": [0]}
    path = tmp_path / f"cfg_{name}.json"
    path.write_text(json.dumps(doc))
    code = main(["sweep-noise", "--config", str(path), "--data", dataset_dir,
                 "--out", out, "--scales", "0"])
    return code, out


def test_sweep_single_scale(tmp_path, config_path, dataset_dir, capsys):
    code, out = run_sweep(tmp_path, config_path, dataset_dir)
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "scale,kind,seed,acc,f1"
    assert len(lines) == 2
    assert lines[1].startswith("0.0,ef-mlp,0,")
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["scales"] == [0.0]
    assert "tau" in manifest["annotation"]["modalities"]["text"]


def test_sweep_pool_is_shut_down(tmp_path, config_path, dataset_dir):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-noise", "--config", config_path, "--data", dataset_dir,
                 "--out", out, "--scales", "0", "1", "--jobs", "2"]) == 0
    assert len(open(out).read().splitlines()) == 1 + 2 * 3 * 3   # default kinds and seeds
    assert multiprocessing.active_children() == []


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor that records its worker count and
    runs the cells in this process: no worker is started."""
    workers = []

    def __init__(self, max_workers, **_):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    map = staticmethod(map)


@pytest.fixture()
def recording_pool(monkeypatch):
    monkeypatch.setattr("magsim.cli.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "workers", [])
    return _RecordingPool.workers


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_a_config_error(tmp_path, config_path, dataset_dir, capsys,
                                                recording_pool, jobs):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-noise", "--config", config_path, "--data", dataset_dir,
                 "--out", str(out), "--scales", "0", "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists() and recording_pool == []


@pytest.mark.parametrize("jobs,scales,workers", [("64", ["0", "1"], [2]), ("2", ["0", "1", "2"], [2]),
                                                 ("64", ["0"], [])],
                         ids=["more-jobs-than-cells", "fewer-jobs-than-cells", "one-cell"])
def test_sweep_starts_no_more_workers_than_cells(tmp_path, config_path, dataset_dir,
                                                 recording_pool, jobs, scales, workers):
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["sweep"] = {"kinds": ["ef-mlp"], "seeds": [0]}
    path = tmp_path / "one_kind.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "sweep.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep-noise", "--config", str(path), "--data", dataset_dir,
                     "--out", out, "--scales", *scales, "--jobs", jobs]) == 0
    assert recording_pool == workers
    assert len(open(out).read().splitlines()) == 1 + len(scales)


def test_sweep_csv_reproducible(tmp_path, config_path, dataset_dir):
    _, a = run_sweep(tmp_path, config_path, dataset_dir, "a.csv")
    _, b = run_sweep(tmp_path, config_path, dataset_dir, "b.csv")
    assert open(a, "rb").read() == open(b, "rb").read()


def test_sweep_jobs_2_writes_the_bytes_of_jobs_1(tmp_path, config_path, dataset_dir):
    outs = []
    for jobs in ("1", "2"):
        out = str(tmp_path / f"sweep_{jobs}.csv")
        assert main(["sweep-noise", "--config", config_path, "--data", dataset_dir,
                     "--out", out, "--scales", "0", "1", "--jobs", jobs]) == 0
        outs.append(out)
    for suffix in ("", ".manifest.json"):
        assert open(outs[0] + suffix, "rb").read() == open(outs[1] + suffix, "rb").read()


def _row_blocks_dataset(tmp_path, **sections):
    """A config of two row blocks' worth of nodes, 3-epoch training with
    dropout and ``sections`` laid over it, and the dataset gen writes."""
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["synthetic"]["num_nodes"] = 2 * T.ROW_BLOCK + 100
    doc["train"].update({"max_epochs": 3, "patience": 3, "dropout": 0.3},
                        **sections.pop("train", {}))
    doc.update(sections)
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(doc))
    data = str(tmp_path / "data")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", str(path), "--out", data]) == 0
    return str(path), data


def test_sweep_jobs_2_on_row_blocks_writes_the_bytes_of_jobs_1(tmp_path):
    """On a graph of several row blocks the parent (which ran gen's
    calibration on its row-block pool before forking) runs the --jobs 1
    cells on all its threads and each --jobs 2 worker on one."""
    path, data = _row_blocks_dataset(tmp_path, sweep={"kinds": ["gcn-joint", "supra"],
                                                      "seeds": [0]})
    with contextlib.redirect_stdout(io.StringIO()):
        test_sweep_jobs_2_writes_the_bytes_of_jobs_1(tmp_path, path, data)


def test_train_reports_do_not_depend_on_openblas_threads(tmp_path):
    """On a graph of several row blocks, a ``python -m magsim train`` child at
    OPENBLAS_NUM_THREADS 1 and 2 writes the same report: the row-block runner
    runs numpy's OpenBLAS at one thread from its first kernel on."""
    path, data = _row_blocks_dataset(tmp_path, train={"kind": "supra", "lambda_aux": 0.7})
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report_{threads}.json"
        child = subprocess.run([sys.executable, "-m", "magsim", "train", "--config", path,
                                "--data", data, "--out", str(out)], capture_output=True,
                               text=True, env={**src_env(), "OPENBLAS_NUM_THREADS": threads})
        assert child.returncode == 0, child.stderr
        report = json.loads(out.read_text())
        del report["wall_clock_seconds"]
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def _blas_threads(_=None):
    getter = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    getter.argtypes, getter.restype = (), ctypes.c_int
    return getter()


def test_pool_workers_run_blas_at_one_thread():
    try:
        parent = _blas_threads()
    except (AttributeError, OSError):
        pytest.skip("numpy has no scipy-openblas thread getter")
    with _pool_map(2) as pool_map:
        assert list(pool_map(_blas_threads, range(2))) == [1, 1]
    assert _blas_threads() == parent      # the pool leaves the parent as it was


def _runner_threads(_=None):
    return T._row_threads()


def test_pool_workers_run_the_row_blocks_on_one_thread():
    parent = _runner_threads()
    with _pool_map(2) as pool_map:
        assert list(pool_map(_runner_threads, range(2))) == [1, 1]
    assert _runner_threads() == parent    # the pool leaves the parent as it was


def test_track_grads_csv(tmp_path, dataset_dir):
    cfg = supra_config(tmp_path)
    out = str(tmp_path / "grads.csv")
    doc = json.loads(open(cfg).read())
    doc["grads"] = {"epochs": 3,
                    "variants": [["supra-base", {"kind": "supra",
                                                 "supra_variant": "base"}]]}
    path = tmp_path / "grads_cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["track-grads", "--config", str(path), "--data", dataset_dir,
                 "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "epoch,variant,branch,grad_l2"
    assert len(lines) == 1 + 3 * 3   # 3 epochs x (2 projectors + synergy)


def test_corrupt_csv_and_harmonic_column(tmp_path, dataset_dir, capsys):
    cfg = supra_config(tmp_path)
    out = str(tmp_path / "probe.csv")
    doc = json.loads(open(cfg).read())
    doc["probe"] = {"dominant": "text", "seeds": [0],
                    "kinds": [["supra-base", {"kind": "supra",
                                              "supra_variant": "base"}]]}
    path = tmp_path / "probe_cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["corrupt", "--config", str(path), "--data", dataset_dir,
                 "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "kind,seed,F,D,H"
    _, _, f, d, h = lines[1].split(",")
    f, d, h = float(f), float(d), float(h)
    expected = 0.0 if f + d == 0 else 2 * f * d / (f + d)
    assert abs(h - expected) < 1e-12
    assert "F=" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def test_theory_command_all_pass(capsys):
    assert main(["theory"]) == 0
    out = capsys.readouterr().out
    assert "4/4 properties PASS" in out
    assert out.count("PASS") >= 5


# ---------------------------------------------------------------------------
# golden files
# ---------------------------------------------------------------------------

def test_golden_sweep_csv(tmp_path, config_path, dataset_dir):
    _, out = run_sweep(tmp_path, config_path, dataset_dir)
    assert open(out, "rb").read() == \
        open(os.path.join(GOLDEN, "sweep.csv"), "rb").read()


def test_golden_meta_json(dataset_dir):
    got = open(os.path.join(dataset_dir, "meta.json"), "rb").read()
    want = open(os.path.join(GOLDEN, "meta.json"), "rb").read()
    assert got == want
