import contextlib
import importlib.util
import io
import json
import os
import random
import shutil
import struct
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from esikit import model as fm
from esikit import cli, nmm, sloreta
from esikit.cli import CONFIG_SCHEMA, load_config, main
from esikit.errors import ConfigError
from esikit.geometry import (build_lead_field, build_synthetic_source_space,
                             save_lead_field, save_source_space)
from esikit.nmm import load_manifest, load_sample
from esikit.tensorio import load_tensor, save_tensor


def make_config(tmp_path, **overrides):
    doc = {
        "seed": 3,
        "geometry": {"n_regions": 16, "k_neighbors": 3, "n_channels": 8},
        "simulation": {
            "n_timepoints": 32,
            "sample_rate": 100.0,
            "preset": "alpha",
            "grid": [{"snr_db": 5, "n_sources": 1, "extent": 1}],
            "n_samples_per_cell": 12,
        },
        "model": {"patch_len": 8, "overlap": 4, "attention_dim": 4,
                  "mlp_hidden": 8, "batch_size": 8, "lr": 1e-3},
        "training": {"epochs": 1},
        "evaluation": {},
        "paths": {"workdir": str(tmp_path / "run")},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """One tiny simulate -> train pipeline shared across CLI tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    config, doc = make_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    return tmp_path, config, doc


def test_simulate_outputs(experiment):
    tmp_path, config, doc = experiment
    run = Path(doc["paths"]["workdir"])
    entries = load_manifest(run / "manifest.json")
    assert len(entries) == 12
    assert (run / "space.json").exists()
    assert (run / "leadfield.esit").exists()


def test_simulate_rerun_byte_identical(experiment, tmp_path):
    _, config, doc = experiment
    run = Path(doc["paths"]["workdir"])
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "again")]) == 0
    for p in sorted((tmp_path / "again").iterdir()):
        assert p.read_bytes() == (run / p.name).read_bytes()


def test_seed_override_changes_data(experiment, tmp_path):
    _, config, doc = experiment
    run = Path(doc["paths"]["workdir"])
    assert main(["simulate", "--config", str(config), "--seed", "99",
                 "--out", str(tmp_path / "seeded")]) == 0
    a = load_tensor(run / "sample_000_000000.X.esit")
    b = load_tensor(tmp_path / "seeded" / "sample_000_000000.X.esit")
    assert not np.array_equal(a, b)


def test_train_outputs(experiment):
    _, _, doc = experiment
    run = Path(doc["paths"]["workdir"])
    log = (run / "train_log.csv").read_text().strip().splitlines()
    assert log[0] == "epoch,train_loss,val_loss,lr"
    assert len(log) == 2
    assert (run / "best" / "model.json").exists()


def test_train_resume_appends_to_log(experiment, tmp_path):
    _, _, doc = experiment
    run = Path(doc["paths"]["workdir"])
    resumed = tmp_path / "resumed"
    shutil.copytree(run / "best", resumed / "best")
    shutil.copy(run / "train_log.csv", resumed / "train_log.csv")
    start = json.loads((resumed / "best" / "model.json").read_text())["epoch"]
    config, _ = make_config(tmp_path, training={"epochs": 2})
    assert main(["train", "--config", str(config),
                 "--manifest", str(run / "manifest.json"),
                 "--checkpoint", str(resumed / "best"),
                 "--out", str(resumed)]) == 0
    log = (resumed / "train_log.csv").read_text().strip().splitlines()
    assert [line.startswith("epoch,") for line in log].count(True) == 1
    assert log[0] == "epoch,train_loss,val_loss,lr"
    assert len(log) == 1 + start + 2
    assert [int(row.split(",")[0]) for row in log[-2:]] == [start + 1, start + 2]


def test_train_resume_into_new_dir_starts_log_with_header(experiment, tmp_path):
    _, config, doc = experiment
    run = Path(doc["paths"]["workdir"])
    start = json.loads((run / "best" / "model.json").read_text())["epoch"]
    fresh = tmp_path / "fresh"
    assert main(["train", "--config", str(config),
                 "--manifest", str(run / "manifest.json"),
                 "--checkpoint", str(run / "best"), "--out", str(fresh)]) == 0
    log = (fresh / "train_log.csv").read_text().strip().splitlines()
    assert log[0] == "epoch,train_loss,val_loss,lr"
    assert [int(row.split(",")[0]) for row in log[1:]] == [start + 1]


def test_train_rejects_uncuttable_patches_before_writing(experiment, tmp_path,
                                                        capsys):
    _, _, doc = experiment
    run = Path(doc["paths"]["workdir"])
    config, _ = make_config(tmp_path, model={**doc["model"], "overlap": 8})
    out = tmp_path / "out"
    assert main(["train", "--config", str(config),
                 "--manifest", str(run / "manifest.json"),
                 "--out", str(out)]) == 2
    assert "overlap must be in [0, 8), got 8" in capsys.readouterr().err
    assert not (out / "train_log.csv").exists()
    # the config is checked before the manifest is read
    assert main(["train", "--config", str(config),
                 "--manifest", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 2


# one training sample cut to 9 of 16 regions or 5 of 8 channels: esi train
# checks each training and validation sample as esi eval checks a test sample
@pytest.mark.parametrize("tensor, rows, code, message", [
    ("S", 9, 3, "{sidecar}: 9 regions, not 16"),
    ("X", 5, 2, "fragment is 5x32, config expects 8x32"),
], ids=["regions", "channels"])
def test_train_checks_each_sample(experiment, tmp_path, capsys, tensor, rows,
                                  code, message):
    _, config, doc = experiment
    run = tmp_path / "run"
    shutil.copytree(doc["paths"]["workdir"], run)

    def meta(e):
        return json.loads((run / e["path"]).read_text())
    # a cut S must still hold the ground truth, or the sidecar check fires first
    sidecar = run / next(
        e["path"] for e in json.loads((run / "manifest.json").read_text())
        if e["split"] == "train"
        and (tensor == "X" or max(map(max, meta(e)["ground_truth"])) < rows))
    path = run / json.loads(sidecar.read_text())[tensor]
    save_tensor(load_tensor(path)[:rows], path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--manifest",
                 str(run / "manifest.json"), "--out", str(out)]) == code
    assert message.format(sidecar=sidecar) in capsys.readouterr().err
    assert not (out / "train_log.csv").exists()


def test_eval_both_solvers(experiment, tmp_path):
    _, config, doc = experiment
    run = Path(doc["paths"]["workdir"])
    out = tmp_path / "eval"
    assert main(["eval", "--config", str(config), "--solver", "both",
                 "--checkpoint", str(run / "best"), "--out", str(out)]) == 0
    summary = json.loads((out / "eval_summary.json").read_text())
    assert set(summary) == {"fair", "sloreta"}
    for name in ("fair", "sloreta"):
        rows = (out / f"eval_{name}.csv").read_text().strip().splitlines()
        assert len(rows) == 2        # header + 1 test sample (12 -> 1 test)
        assert summary[name]["nmse"]["n"] == 1


def _test_split(experiment, out_dir, n, fragments=None):
    """A manifest in ``out_dir`` whose test split is the experiment's first
    ``n`` samples, with the fragment of sample i replaced by
    ``fragments[i]`` where given."""
    run = Path(experiment[2]["paths"]["workdir"])
    out_dir.mkdir()
    for name in ("space.json", "leadfield.esit"):
        shutil.copy(run / name, out_dir / name)
    entries = json.loads((run / "manifest.json").read_text())[:n]
    for i, e in enumerate(entries):
        e["split"] = "test"
        if i in (fragments or {}):
            meta = run / e["path"]
            shutil.copy(meta, out_dir / meta.name)
            s_file = json.loads(meta.read_text())["S"]
            shutil.copy(run / s_file, out_dir / s_file)
            save_tensor(fragments[i], out_dir / json.loads(meta.read_text())["X"])
        else:
            e["path"] = str(run / e["path"])
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


def test_eval_both_reads_each_sample_once_and_writes_single_runs_bytes(
        experiment, tmp_path, monkeypatch, capsys):
    _, config, doc = experiment
    manifest = str(_test_split(experiment, tmp_path / "data", 5))
    reads = []
    load_sample = nmm.load_sample
    monkeypatch.setattr(nmm, "load_sample",
                        lambda path: reads.append(path) or load_sample(path))
    runs = {}
    for solver in ("both", "fair", "sloreta"):
        out = tmp_path / solver
        reads.clear()
        capsys.readouterr()
        assert main(["eval", "--config", str(config), "--manifest", manifest,
                     "--solver", solver, "--out", str(out), "--checkpoint",
                     str(Path(doc["paths"]["workdir"]) / "best")]) == 0
        runs[solver] = (len(reads), capsys.readouterr().out,
                        json.loads((out / "eval_summary.json").read_text()))
    assert [runs[solver][0] for solver in runs] == [5, 5, 5]
    assert runs["both"][1] == runs["fair"][1] + runs["sloreta"][1]
    for name in ("fair", "sloreta"):
        assert ((tmp_path / "both" / f"eval_{name}.csv").read_bytes()
                == (tmp_path / name / f"eval_{name}.csv").read_bytes())
        assert runs["both"][2][name] == runs[name][2][name]


def test_eval_fair_in_pairs_writes_per_sample_bytes(experiment, tmp_path,
                                                    monkeypatch):
    # an odd-sized split, so the last forward holds one fragment
    _, config, doc = experiment
    checkpoint = str(Path(doc["paths"]["workdir"]) / "best")
    manifest = str(_test_split(experiment, tmp_path / "data", 5))
    assert fm.SOLVE_BATCH > 1
    outs = []
    for batch in (fm.SOLVE_BATCH, 1):
        monkeypatch.setattr(fm, "SOLVE_BATCH", batch)
        out = tmp_path / f"b{batch}"
        assert main(["eval", "--config", str(config), "--manifest", manifest,
                     "--checkpoint", checkpoint, "--out", str(out)]) == 0
        outs.append([(out / n).read_bytes()
                     for n in ("eval_fair.csv", "eval_summary.json")])
    assert outs[0] == outs[1]
    assert len(outs[0][0].splitlines()) == 6


@pytest.mark.parametrize("fragments, code, message", [
    ({1: np.zeros((5, 32))}, 2, "fragment is 5x32, config expects 8x32"),
    ({1: np.full((8, 32), np.nan)}, 3, "fragment contains non-finite values"),
    # the first fragment's fault is the one reported, as one at a time
    ({0: np.full((8, 32), np.nan), 1: np.zeros((5, 32))}, 3, "non-finite"),
])
def test_eval_fair_checks_each_fragment_before_stacking(
        experiment, tmp_path, capsys, fragments, code, message):
    _, config, doc = experiment
    manifest = _test_split(experiment, tmp_path / "data", 3, fragments)
    argv = ["eval", "--config", str(config), "--manifest", str(manifest),
            "--out", str(tmp_path / "e")]
    checkpoint = ["--checkpoint", str(Path(doc["paths"]["workdir"]) / "best")]
    # fair's check covers sLORETA's, so with both solvers fair's message wins
    for solver in ("fair", "both"):
        assert main(argv + checkpoint + ["--solver", solver]) == code
        assert message in capsys.readouterr().err
    # sLORETA alone names the channel count against the lead field's; a
    # non-finite fragment is bad input to it too
    assert main(argv + ["--solver", "sloreta"]) == code
    assert (message if code == 3 else "fragment has 5 channels, lead field has 8") \
        in capsys.readouterr().err


def test_usage_errors_exit_2_on_every_call():
    for argv in (["eval"], ["eval", "--config", "c.json", "--solver", "x"],
                 ["nope"], ["eval"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_eval_fair_requires_checkpoint(experiment, tmp_path):
    _, config, _ = experiment
    assert main(["eval", "--config", str(config), "--solver", "fair",
                 "--out", str(tmp_path / "e")]) == 2


def test_eval_non_finite_estimate_is_numerical_error(experiment, tmp_path,
                                                    monkeypatch):
    _, config, _ = experiment

    def nan_kernel(lf, lam):
        return np.full(lf.matrix.T.shape, np.nan)

    monkeypatch.setattr(sloreta, "minimum_norm_kernel", nan_kernel)
    assert main(["eval", "--config", str(config), "--solver", "sloreta",
                 "--out", str(tmp_path / "e")]) == 4


# one NaN in a sample's S: the sample is malformed data, as a misfit S is,
# for every command that reads it, before any solver or loss sees it
@pytest.mark.parametrize("command, split", [
    ("eval_fair", "test"), ("eval_sloreta", "test"), ("train", "train"),
])
def test_non_finite_source_is_data_error(experiment, tmp_path, capsys, command,
                                         split):
    _, config, doc = experiment
    run = tmp_path / "run"
    shutil.copytree(doc["paths"]["workdir"], run)
    sidecar = run / next(e["path"] for e in json.loads((run / "manifest.json").read_text())
                         if e["split"] == split)
    path = run / json.loads(sidecar.read_text())["S"]
    S = load_tensor(path)
    S[0, 0] = np.nan
    save_tensor(S, path)
    argv = {"eval_fair": ["eval", "--solver", "fair", "--checkpoint", str(run / "best")],
            "eval_sloreta": ["eval", "--solver", "sloreta"], "train": ["train"]}[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv + ["--config", str(config), "--manifest",
                        str(run / "manifest.json"), "--out", str(out)]) == 3
    assert f"{sidecar}: S contains non-finite values" in capsys.readouterr().err
    assert not (out / "eval_summary.json").exists()
    assert not (out / "train_log.csv").exists()


def test_eval_sloreta_builds_kernel_once(experiment, tmp_path, monkeypatch):
    _, config, doc = experiment
    builds = []
    kernel = sloreta.minimum_norm_kernel

    def counted(lf, lam=sloreta.DEFAULT_LAMBDA):
        builds.append(lam)
        return kernel(lf, lam)

    monkeypatch.setattr(sloreta, "minimum_norm_kernel", counted)
    # more test samples than one, so a per-sample build would show
    sim = dict(doc["simulation"], n_samples_per_cell=40)
    config, _ = make_config(tmp_path, simulation=sim)
    assert main(["simulate", "--config", str(config)]) == 0
    assert main(["eval", "--config", str(config), "--solver", "sloreta"]) == 0
    rows = (tmp_path / "run" / "eval_sloreta.csv").read_text().splitlines()
    assert len(rows) > 2 and len(builds) == 1


def test_eval_sloreta_checks_each_fragment_once(experiment, tmp_path, monkeypatch):
    _, config, _ = experiment
    manifest = str(_test_split(experiment, tmp_path / "data", 5))
    checked = []
    check = sloreta.check_fragment
    monkeypatch.setattr(sloreta, "check_fragment",
                        lambda X, lf: checked.append(X.shape) or check(X, lf))
    assert main(["eval", "--config", str(config), "--manifest", manifest,
                 "--solver", "sloreta", "--out", str(tmp_path / "e")]) == 0
    assert len(checked) == 5


def test_eval_and_localize_do_not_read_adam_state(experiment, tmp_path, capsys):
    _, config, doc = experiment
    run = Path(doc["paths"]["workdir"])
    frag = tmp_path / "frag.esit"
    save_tensor(load_sample(load_manifest(run / "manifest.json")[0]["path"]).X, frag)
    broken = tmp_path / "broken"
    shutil.copytree(run / "best", broken)
    state = broken / "adam_state.json"
    state.write_text(state.read_text()[:20])
    written = {}
    for name, checkpoint in (("intact", run / "best"), ("truncated", broken)):
        out = tmp_path / name
        assert main(["eval", "--config", str(config), "--solver", "fair",
                     "--checkpoint", str(checkpoint), "--out", str(out / "eval")]) == 0
        assert main(["localize", "--config", str(config), "--fragment", str(frag),
                     "--checkpoint", str(checkpoint), "--out", str(out / "loc")]) == 0
        written[name] = {p.relative_to(out): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()}
    assert len(written["intact"]) == 4 and written["truncated"] == written["intact"]
    capsys.readouterr()
    assert main(["train", "--config", str(config),
                 "--manifest", str(run / "manifest.json"),
                 "--checkpoint", str(broken), "--out", str(tmp_path / "resumed")]) == 3
    assert "adam_state.json" in capsys.readouterr().err


def test_localize_outputs(experiment, tmp_path):
    _, config, doc = experiment
    run = Path(doc["paths"]["workdir"])
    entries = load_manifest(run / "manifest.json")
    sample = load_sample(entries[0]["path"])
    frag = tmp_path / "frag.esit"
    save_tensor(sample.X, frag)
    out = tmp_path / "loc"
    assert main(["localize", "--config", str(config),
                 "--checkpoint", str(run / "best"),
                 "--fragment", str(frag), "--out", str(out)]) == 0
    est = load_tensor(out / "estimate.esit")
    assert est.shape == (16, 32)
    xml.dom.minidom.parse(str(out / "estimate.svg"))


def test_localize_zero_fragment_gray_svg(experiment, tmp_path):
    _, config, doc = experiment
    run = Path(doc["paths"]["workdir"])
    frag = tmp_path / "zero.esit"
    save_tensor(np.zeros((8, 32)), frag)
    out = tmp_path / "loc0"
    assert main(["localize", "--config", str(config),
                 "--checkpoint", str(run / "best"),
                 "--fragment", str(frag), "--out", str(out)]) == 0
    svg = (out / "estimate.svg").read_text()
    xml.dom.minidom.parseString(svg)
    assert "rgb(160,160,160)" in svg


def test_localize_dim_mismatch(experiment, tmp_path, capsys):
    _, config, doc = experiment
    run = Path(doc["paths"]["workdir"])
    frag = tmp_path / "bad.esit"
    save_tensor(np.zeros((5, 32)), frag)
    assert main(["localize", "--config", str(config),
                 "--checkpoint", str(run / "best"),
                 "--fragment", str(frag), "--out", str(tmp_path / "x")]) == 2
    assert "fragment is 5x32, config expects 8x32" in capsys.readouterr().err


def test_localize_stacked_fragment_is_validation_error(experiment, tmp_path,
                                                       capsys):
    # a (1, n_c, n_t) stack is not one fragment; forward would take it as a
    # batch and the topography would index past its one row
    _, config, doc = experiment
    run = Path(doc["paths"]["workdir"])
    frag = tmp_path / "stack.esit"
    save_tensor(np.zeros((1, 8, 32)), frag)
    assert main(["localize", "--config", str(config),
                 "--checkpoint", str(run / "best"),
                 "--fragment", str(frag), "--out", str(tmp_path / "x")]) == 2
    assert "fragment is 1x8x32, config expects 8x32" in capsys.readouterr().err


def test_localize_non_finite_fragment_is_data_error(experiment, tmp_path,
                                                    capsys):
    _, config, doc = experiment
    run = Path(doc["paths"]["workdir"])
    frag = tmp_path / "nan.esit"
    x = np.zeros((8, 32))
    x[3, 7] = np.nan
    save_tensor(x, frag)
    assert main(["localize", "--config", str(config),
                 "--checkpoint", str(run / "best"),
                 "--fragment", str(frag), "--out", str(tmp_path / "x")]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_localize_requires_checkpoint(experiment, tmp_path):
    _, config, _ = experiment
    frag = tmp_path / "frag.esit"
    save_tensor(np.zeros((8, 32)), frag)
    assert main(["localize", "--config", str(config),
                 "--fragment", str(frag), "--out", str(tmp_path / "x")]) == 2


def test_missing_config_is_data_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 3


def test_malformed_json_is_validation_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["simulate", "--config", str(p)]) == 2


# json.loads takes these non-standard constants, and NaN passes every
# schema bound, so they are refused while the file is parsed
@pytest.mark.parametrize("command, section, key", [
    ("simulate", "simulation", "sample_rate"),
    ("train", "model", "tau"),
])
def test_nan_in_config_is_validation_error(experiment, tmp_path, capsys, command,
                                           section, key):
    _, _, doc = experiment
    config, _ = make_config(tmp_path, **{section: {**doc[section], key: float("nan")}})
    assert "NaN" in config.read_text()
    manifest = ["--manifest", str(Path(doc["paths"]["workdir"]) / "manifest.json")]
    capsys.readouterr()
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]
                + (manifest if command == "train" else [])) == 2
    assert capsys.readouterr().err.strip() == (
        "error: config is not valid JSON: NaN is not a JSON number")
    assert not (tmp_path / "out").exists()
    for constant in ("Infinity", "-Infinity"):
        config.write_text(config.read_text().replace("NaN", constant))
        with pytest.raises(ConfigError, match=f"{constant} is not a JSON number"):
            load_config(config)
        config.write_text(config.read_text().replace(constant, "NaN"))


def test_non_utf8_config_is_validation_error(tmp_path):
    p = tmp_path / "c.json"
    p.write_bytes(b"\xff\xfe")
    with pytest.raises(ConfigError):
        load_config(p)
    assert main(["eval", "--config", str(p)]) == 2


def _test_sidecar(run):
    entry = next(e for e in json.loads((run / "manifest.json").read_text())
                 if e["split"] == "test")
    return run / entry["path"]


# (the file in a copy of the run dir, the command that reads it)
JSON_INPUTS = {
    "model.json": (lambda run: run / "best" / "model.json", "eval_fair"),
    "adam_state.json": (lambda run: run / "best" / "adam_state.json", "train"),
    "index.json": (lambda run: run / "best" / "params" / "index.json", "eval_fair"),
    "manifest.json": (lambda run: run / "manifest.json", "eval_sloreta"),
    "sidecar": (_test_sidecar, "eval_sloreta"),
    "space.json": (lambda run: run / "space.json", "eval_sloreta"),
}


def _read_run(command, config, run, out):
    argv = {"eval_fair": ["eval", "--solver", "fair", "--checkpoint", str(run / "best")],
            "eval_sloreta": ["eval", "--solver", "sloreta"],
            "train": ["train", "--checkpoint", str(run / "best")]}[command]
    return main(argv + ["--config", str(config), "--manifest",
                        str(run / "manifest.json"), "--out", str(out)])


@pytest.mark.parametrize("name", sorted(JSON_INPUTS))
def test_truncated_json_input_is_data_error(experiment, tmp_path, capsys, name):
    _, config, doc = experiment
    run = tmp_path / "run"
    shutil.copytree(doc["paths"]["workdir"], run)
    locate, command = JSON_INPUTS[name]
    path = locate(run)
    path.write_text(path.read_text()[:-5])
    capsys.readouterr()
    assert _read_run(command, config, run, tmp_path / "out") == 3
    assert f"{path}: not valid JSON" in capsys.readouterr().err


def _drop_split(entries):
    del entries[1]["split"]
    return entries


@pytest.mark.parametrize("malform,message", [
    (_drop_split, "entry 1 lacks 'path' or 'split'"),
    (lambda entries: {"entries": entries}, "not a list of entries"),
])
def test_malformed_manifest_is_data_error(experiment, tmp_path, capsys, malform,
                                          message):
    _, config, doc = experiment
    run = tmp_path / "run"
    shutil.copytree(doc["paths"]["workdir"], run)
    manifest = run / "manifest.json"
    manifest.write_text(json.dumps(malform(json.loads(manifest.read_text()))))
    assert _read_run("eval_sloreta", config, run, tmp_path / "out") == 3
    assert message in capsys.readouterr().err


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _first(doc, change):
    """``doc`` with its first entry (a manifest's first item, an index's
    first name) passed through ``change``."""
    if isinstance(doc, list):
        return [change(doc[0])] + doc[1:]
    first = next(iter(doc))
    return {**doc, first: change(doc[first])}


# valid JSON of the wrong shape for each of JSON_INPUTS: a required key
# dropped, then a value retyped (the manifest's dropped key is already caught
# by test_malformed_manifest_is_data_error; its retyped path and split are not);
# for model.json also a NaN tau, which json writes and reads as a literal
WRONG_SHAPES = {
    "model.json": [lambda d: _without(d, "config"), lambda d: dict(d, config=[]),
                   lambda d: dict(d, epoch="3"),
                   lambda d: dict(d, config=dict(d["config"], tau=float("nan")))],
    "adam_state.json": [lambda d: _without(d, "step"), lambda d: dict(d, lr="fast")],
    "index.json": [lambda d: _first(d, lambda e: _without(e, "file")),
                   lambda d: _first(d, lambda e: dict(e, dims=5)),
                   lambda d: _first(d, lambda e: dict(e, dims=[float(n) for n in e["dims"]]))],
    "manifest.json": [lambda d: _first(d, lambda e: _without(e, "path")),
                      lambda d: _first(d, lambda e: dict(e, path=7)),
                      lambda d: _first(d, lambda e: dict(e, split=7))],
    "sidecar": [lambda d: _without(d, "X"), lambda d: dict(d, ground_truth=[["a"]])],
    "space.json": [lambda d: _without(d, "centroids"),
                   lambda d: dict(d, adjacency=[["x"]] + d["adjacency"][1:])],
}


@pytest.mark.parametrize("name", sorted(JSON_INPUTS))
def test_wrong_shape_json_input_is_data_error(experiment, tmp_path, capsys, name):
    _, config, doc = experiment
    locate, command = JSON_INPUTS[name]
    for k, malform in enumerate(WRONG_SHAPES[name]):
        run = tmp_path / f"run{k}"
        shutil.copytree(doc["paths"]["workdir"], run)
        path = locate(run)
        path.write_text(json.dumps(malform(json.loads(path.read_text()))))
        capsys.readouterr()
        assert _read_run(command, config, run, tmp_path / f"out{k}") == 3, k
        assert str(path) in capsys.readouterr().err, k


# an 8-region space.json (with or without its own 8-region lead field) next to
# the experiment's 16-region samples, lead field and checkpoint; each case
# names the file whose region count disagrees first
@pytest.mark.parametrize("command, own_lead_field, named", [
    ("eval_sloreta", False, lambda run: run / "leadfield.esit"),
    ("eval_sloreta", True, _test_sidecar),
    ("eval_fair", True, lambda run: run / "best" / "model.json"),
    ("localize", False, lambda run: run / "best" / "model.json"),
])
def test_region_count_mismatch_is_data_error(experiment, tmp_path, capsys, command,
                                             own_lead_field, named):
    _, _, doc = experiment
    run = tmp_path / "run"
    shutil.copytree(doc["paths"]["workdir"], run)
    config, _ = make_config(tmp_path, paths={"workdir": str(run)})
    space = build_synthetic_source_space(8, 3, seed=0)
    save_source_space(space, run / "space.json")
    if own_lead_field:
        save_lead_field(build_lead_field(space, 8, seed=1), run / "leadfield.esit")
    capsys.readouterr()
    if command == "localize":
        code = main(["localize", "--config", str(config), "--checkpoint",
                     str(run / "best"), "--fragment",
                     str(_test_sidecar(run).with_suffix(".X.esit")),
                     "--out", str(tmp_path / "out")])
    else:
        code = _read_run(command, config, run, tmp_path / "out")
    assert code == 3
    err = capsys.readouterr().err
    assert f"{named(run)}: " in err and "16 regions" in err, err


def test_config_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


def _bad_configs(tmp_path):
    _, doc = make_config(tmp_path)
    unknown_nested = json.loads(json.dumps(doc))
    unknown_nested["model"]["learning_rate"] = 1e-3
    del unknown_nested["geometry"]
    loud = json.loads(json.dumps(doc))
    loud["simulation"]["grid"][0]["snr_db"] = "loud"
    loud["seed"] = -1
    return [
        {"seed": -1},
        unknown_nested,
        loud,
        dict(doc, seed=-1, extra_section={}),
        dict(doc, evaluation={"threshold": 0, "sloreta_lambda": -1}),
        dict(doc, geometry={"n_regions": 4, "k_neighbors": 0}),
        [],
    ]


def test_invalid_config_message_matches_jsonschema_validate(tmp_path):
    path = tmp_path / "bad.json"
    for doc in _bad_configs(tmp_path):
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(doc, CONFIG_SCHEMA)
        expected = (f"config invalid at {list(ref.value.absolute_path)}: "
                    f"{ref.value.message}")
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as got:
            load_config(path)
        assert str(got.value) == expected


# jsonschema is the reference the config validator in cli is checked against;
# the program itself does not import it. Its "integer" also takes integral
# floats such as 2.0, which the program rejects.
_INT_ONLY = jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
    "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool))
_REFERENCE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, type_checker=_INT_ONLY)(CONFIG_SCHEMA)


def _reference_message(doc):
    err = jsonschema.exceptions.best_match(_REFERENCE.iter_errors(doc))
    if err is None:
        return None, None
    return (f"config invalid at {list(err.absolute_path)}: {err.message}",
            err.validator)


def _full_config(tmp_path):
    _, doc = make_config(tmp_path)
    doc["simulation"]["grid"].append({"snr_db": "inf", "n_sources": 2,
                                      "extent": 3})
    doc["model"].update(tau=0.5, alpha=0.3, n_blocks=1, weight_decay=0.0,
                        use_spectral=True, use_temporal=True, use_patch=False,
                        spectral_reweight=False)
    doc["training"].update(plateau_patience=2, lr_floor=1e-6)
    doc["evaluation"].update(sloreta_lambda=0.05, threshold=0.5)
    return doc


_FUZZ_VALUES = [-2, -1, 0, 1, 2, 3, 7, 8, 32, 100, 10**20, -0.5, 0.0, 0.5,
                1.0, 1.5, 2.0, 8.0, 99.5, 100.0, 1e-9, float("nan"),
                float("inf"), float("-inf"), True, False, None, "", "inf",
                "alpha", "spike", "loud", "1", [], [1], {}, {"x": 1},
                {"snr_db": 5, "n_sources": 1, "extent": 1}]
_FUZZ_KEYS = ["extra", "learning_rate", "gru_hidden", "seed", "grid", "lr",
              "snr_db", "workdir", "1"]


def _nodes(value, path=()):
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate(doc, rng):
    """Replace, delete, add or duplicate at one random place in ``doc``."""
    nodes = list(_nodes(doc))
    path, node = rng.choice(nodes)
    op = rng.randrange(4)

    def pick(pool):
        return json.loads(json.dumps(rng.choice(pool)))  # a copy

    if op == 2 and isinstance(node, dict):
        node[rng.choice(_FUZZ_KEYS)] = pick(_FUZZ_VALUES)
    elif op == 2 and isinstance(node, list):
        node.append(pick(_FUZZ_VALUES + node))
    elif not path:
        return pick(_FUZZ_VALUES) if op == 0 else doc
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == 1 and isinstance(parent, dict):
            del parent[path[-1]]
        elif op == 1:
            parent.clear()
        else:
            pool = _FUZZ_VALUES if op == 0 else [v for _, v in nodes]
            parent[path[-1]] = pick(pool)
    return doc


def test_config_errors_match_reference_on_fuzzed_configs(tmp_path):
    # mutated full configs: the validator must accept exactly the documents
    # the reference accepts and report the error best_match picks
    rng = random.Random(20261019)
    base = _full_config(tmp_path)
    valid, keywords = 0, set()
    for _ in range(3000):
        doc = json.loads(json.dumps(base))
        for _ in range(rng.randrange(1, 4)):
            doc = _mutate(doc, rng)
        text = json.dumps(doc)
        expected, keyword = _reference_message(json.loads(text))
        assert cli._config_error(json.loads(text)) == expected, text
        valid += expected is None
        keywords.add(keyword)
    assert 200 < valid < 2800
    assert keywords >= {None, "type", "required", "additionalProperties",
                        "minItems", "minimum", "maximum", "exclusiveMinimum",
                        "enum", "anyOf"}


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])
    for sub in schema.get("anyOf", []):
        yield from _subschemas(sub)


def test_validator_implements_every_schema_keyword():
    # a keyword the walker does not know (say "pattern") must fail here
    # rather than be ignored; walking each subschema visits all its keys
    for schema in _subschemas(CONFIG_SCHEMA):
        list(cli._schema_errors(None, schema))
        # the walker's == is jsonschema's equality for strings only
        for value in schema.get("enum", []) + [schema.get("const", "")]:
            assert isinstance(value, str)
        assert schema.get("additionalProperties", False) is False
        # best_match reports an anyOf error itself only while the errors of
        # its branches tie: two or more branches, each with one keyword that
        # fails at the branch's own instance and is not itself an anyOf
        branches = schema.get("anyOf", [{}, {}])
        assert len(branches) >= 2
        for branch in branches:
            assert len(branch) <= 1
            assert not {"properties", "items", "anyOf"} & set(branch)
    with pytest.raises(ValueError, match="'pattern' is not implemented"):
        list(cli._schema_errors("x", {"type": "string", "pattern": "^x"}))


@pytest.mark.parametrize("x", [2, 7, "a", [2]])
def test_any_of_error_yields_to_others_at_its_path(monkeypatch, x):
    # CONFIG_SCHEMA has no keyword beside its anyOf, so this schema checks
    # that an anyOf error loses to another error at the same path, as in
    # best_match, even when the anyOf comes first
    schema = {"type": "object", "properties": {"x": {
        "anyOf": [{"type": "string"}, {"const": "one"}], "minimum": 5}}}
    monkeypatch.setattr(cli, "CONFIG_SCHEMA", schema)
    err = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(schema).iter_errors({"x": x}))
    expected = (None if err is None else
                f"config invalid at {list(err.absolute_path)}: {err.message}")
    assert cli._config_error({"x": x}) == expected


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_seed_override_is_validated(experiment, tmp_path, capsys, command):
    _, config, _ = experiment
    assert main([command, "--config", str(config), "--seed", "-1",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: config invalid at ['seed']: -1 is less than the minimum of 0")


@pytest.mark.parametrize("section,key,value", [
    ("simulation", "n_samples_per_cell", 2.0),
    ("geometry", "n_regions", 16.0),
    (None, "seed", 3.0),
])
def test_integral_float_in_integer_slot_rejected(tmp_path, capsys, section,
                                                 key, value):
    config, doc = make_config(tmp_path)
    (doc[section] if section else doc)[key] = value
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 2
    where = [section, key] if section else [key]
    assert capsys.readouterr().err.strip() == (
        f"error: config invalid at {where}: {value!r} is not of type 'integer'")


def test_program_runs_without_jsonschema(tmp_path):
    # a fresh import and a whole simulate run leave jsonschema unimported
    config, doc = make_config(tmp_path)
    doc["simulation"]["n_samples_per_cell"] = 1
    config.write_text(json.dumps(doc))
    script = ("import contextlib, io, json, sys\n"
              "import esikit.cli\n"
              "fresh = 'jsonschema' in sys.modules\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = esikit.cli.main(['simulate', '--config', {str(config)!r}])\n"
              "print(json.dumps([fresh, code, 'jsonschema' in sys.modules]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, 0, False]


def test_unknown_key_rejected(tmp_path):
    config, doc = make_config(tmp_path)
    doc["extra_section"] = {}
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 2


def test_unknown_nested_key_rejected(tmp_path):
    config, doc = make_config(tmp_path)
    doc["model"]["learning_rate"] = 1e-3      # typo for "lr"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 2


def test_missing_section_rejected(tmp_path):
    config, doc = make_config(tmp_path)
    del doc["geometry"]
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 2


def test_snr_db_accepts_numbers_and_inf(tmp_path):
    config, doc = make_config(tmp_path)
    doc["simulation"]["grid"] = [{"snr_db": "inf", "n_sources": 1, "extent": 1},
                                 {"snr_db": -5.5, "n_sources": 1, "extent": 1}]
    config.write_text(json.dumps(doc))
    assert load_config(config)["simulation"]["grid"][0]["snr_db"] == "inf"


def test_non_numeric_snr_db_rejected(tmp_path):
    config, doc = make_config(tmp_path)
    doc["simulation"]["grid"][0]["snr_db"] = "loud"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 2


def test_gru_hidden_key_rejected(tmp_path):
    config, doc = make_config(tmp_path)
    doc["model"]["gru_hidden"] = 8        # fixed at n_regions // 2
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 2


# ---------------------------------------------------------------------------
# bit-reproducible runs: the same-bytes scenario, twice in one process


def _load_samebytes():
    path = Path(__file__).resolve().parent.parent / "tools" / "samebytes.py"
    spec = importlib.util.spec_from_file_location("samebytes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rerun_writes_identical_bytes(tmp_path, monkeypatch):
    # simulate, train, a resume into the same and into a new directory, eval
    # with both solvers and localize, run twice: every file and every stdout
    # must be the same, so a rerun reproduces a run bit for bit
    samebytes = _load_samebytes()
    runs = {}
    for label in ("a", "b"):
        root = tmp_path / label
        root.mkdir()
        monkeypatch.chdir(root)

        def esi(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            return code, out.getvalue()

        transcript = samebytes.run_scenario(root, esi)
        runs[label] = (transcript, samebytes.output_files(root))
    (trans_a, files_a), (trans_b, files_b) = runs["a"], runs["b"]
    assert [code for code, _ in trans_a] == [0] * len(samebytes.STEPS)
    assert "resumed at epoch 3" in trans_a[2][1]
    assert {"train/best/model.json", "resumed/train_log.csv",
            "eval/eval_fair.csv", "eval/eval_sloreta.csv",
            "localize/estimate.esit"} <= set(files_a)
    assert samebytes.differences(files_a, files_b, trans_a, trans_b) == []


def test_differences_quantify_numeric_changes():
    samebytes = _load_samebytes()
    value = 0.1 + 0.2
    ulp = np.nextafter(value, 1.0)
    header = b"ESIT" + struct.pack("<BB2I", 1, 2, 1, 3)
    files_a = {
        "summary.json": json.dumps({"n": 3, "mean": value}).encode(),
        "estimate.esit": header + struct.pack("<3f", 1.0, -2.0, 4.0),
        "log.csv": b"epoch,loss\n1,0.5\n",
        "map.svg": b"<svg>a</svg>",
        "same.json": b"[1]",
    }
    files_b = dict(files_a, **{
        "summary.json": json.dumps({"n": 3, "mean": ulp}).encode(),
        "estimate.esit": header + struct.pack("<3f", 1.0, -2.5, 4.0),
        "log.csv": b"epoch,val\n1,0.5\n",
        "map.svg": b"<svg>b</svg>",
    })
    rel = (ulp - value) / ulp
    assert samebytes.differences(files_a, files_b, [], []) == [
        "differs: estimate.esit (largest relative difference 0.2)",
        "differs: log.csv (non-numeric)",
        "differs: map.svg (non-numeric)",
        f"differs: summary.json (largest relative difference {rel:.2g})",
    ]


# ---------------------------------------------------------------------------
# exit codes under corrupted inputs: a seeded fuzz over the input files of
# the same-bytes experiment


@pytest.fixture(scope="module")
def trained_scenario(tmp_path_factory):
    """A directory holding the same-bytes experiment's config and zero
    fragment, after its simulate and first train step."""
    samebytes = _load_samebytes()
    root = tmp_path_factory.mktemp("fuzz") / "base"
    root.mkdir()
    (root / "config.json").write_text(json.dumps(samebytes.CONFIG))
    (root / "zero.X.esit").write_bytes(samebytes.ZERO_FRAGMENT)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in samebytes.STEPS[:2]:
            assert main(argv) == 0
    return root


# the corrupted files, each with whether only `esi train` reads it; the
# others are read by `esi eval` or `esi localize`
FUZZ_TARGETS = {
    "config.json": False,
    "zero.X.esit": False,
    "data/manifest.json": False,
    "data/space.json": False,
    "data/leadfield.esit": False,
    "data/sample_000_000011.json": False,     # test split, and the fragment
    "data/sample_000_000011.X.esit": False,   # localize reads
    "data/sample_001_000011.json": False,
    "data/sample_001_000011.S.esit": False,
    "data/sample_000_000000.json": True,      # train split
    "data/sample_000_000003.X.esit": True,
    "data/sample_001_000010.json": True,      # val split
    "train/best/model.json": False,
    "train/best/params/index.json": False,
    "train/best/params/gru.fw.u.esit": False,
    "train/best/params/head.res_w.esit": False,
    "train/best/adam_state.json": True,
    "train/best/adam_moments/index.json": True,
    "train/best/adam_moments/m_head.res_w.esit": True,
}
FUZZ_CASES = 80
_RETYPED = [None, True, "x", 2.5, 3, -1, [], [1], {}, {"a": 1}]


def _json_nodes(value, where=()):
    """(path, value) of ``value`` and of everything nested in it."""
    yield where, value
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _json_nodes(child, where + (key,))


def _corrupt(path, rng):
    """Corrupt ``path`` in place one seeded way: truncate it, flip bytes,
    drop or retype a JSON key, or rewrite an ESIT header's rank and dims
    (most keep the payload's size). Returns what was done."""
    data = path.read_bytes()
    extra = ["drop", "retype"] if path.suffix == ".json" else ["dims"]
    kind = rng.choice(["truncate", "flip"] + 2 * extra)
    if kind == "truncate":
        path.write_bytes(data[:rng.randrange(len(data))])
        return kind
    if kind == "flip":
        flipped = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            flipped[rng.randrange(len(flipped))] ^= rng.randint(1, 255)
        path.write_bytes(bytes(flipped))
        return kind
    if kind == "dims":
        rank = data[5]
        dims = list(struct.unpack_from(f"<{rank}I", data, 6))
        new = rng.choice([dims[::-1], [int(np.prod(dims))], [1] + dims, dims + [1],
                          [dims[0] + 1] + dims[1:]])
        path.write_bytes(data[:4] + struct.pack(f"<BB{len(new)}I", data[4], len(new), *new)
                         + data[6 + 4 * rank:])
        return f"dims {dims} -> {new}"
    doc = json.loads(data)
    nodes = list(_json_nodes(doc))
    if kind == "drop":
        where, parent = rng.choice([(w, v) for w, v in nodes if isinstance(v, dict) and v])
        key = rng.choice(sorted(parent))
        del parent[key]
        how = f"drop {list(where) + [key]}"
    else:
        where, value = rng.choice(nodes)
        new = rng.choice([v for v in _RETYPED if type(v) is not type(value)])
        if where:
            parent = doc
            for key in where[:-1]:
                parent = parent[key]
            parent[where[-1]] = new
        else:
            doc = new
        how = f"retype {list(where)} to {new!r}"
    path.write_text(json.dumps(doc))
    return how


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # corrupted values overflow
def test_corrupted_inputs_exit_with_documented_codes(trained_scenario, tmp_path,
                                                     monkeypatch):
    # each case corrupts one input file of a copy of the experiment and runs
    # the commands that read it: resume training, or eval with both solvers
    # and both localize steps, which here localize with `train/best` as the
    # checkpoint; each must return 0, 2, 3 or 4, never raise
    steps = [[a.replace("resumed/best", "train/best") for a in argv]
             for argv in _load_samebytes().STEPS]
    readers = {True: steps[3:4], False: steps[4:]}
    bad = []
    for case in range(FUZZ_CASES):
        rng = random.Random(case)
        root = tmp_path / f"case{case}"
        shutil.copytree(trained_scenario, root)
        target = rng.choice(sorted(FUZZ_TARGETS))
        how = _corrupt(root / target, rng)
        monkeypatch.chdir(root)
        for argv in readers[FUZZ_TARGETS[target]]:
            try:
                code = main(argv)
            except Exception as err:
                code = repr(err)
            if code not in (0, 2, 3, 4):
                bad.append(f"case {case}, {target} ({how}): "
                           f"esi {' '.join(argv)} -> {code}")
        monkeypatch.chdir(tmp_path)
        shutil.rmtree(root)
    assert bad == []
