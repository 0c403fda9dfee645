import hashlib
import importlib.metadata
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hodgecover
from hodgecover.builder import stage_a_candidates
from hodgecover.cli import METHODS, SCHEMA, main
from hodgecover.moe import CalibCorpus, MoeLayer, synth_layer
from hodgecover.pipeline import SelectorParams, analyze_layer
from hodgecover.wanda import residual_sparsity

FAST = ["--set", "model.layers=2", "--set", "model.n=8", "--set", "model.clusters=2",
        "--set", "corpus.size=512"]


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def model_dir(tmp_path):
    out = tmp_path / "run"
    assert run(["synth", "--out", out] + FAST) == 0
    return out / "model"


class TestSynth:
    def test_writes_layer_files_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert run(["synth", "--out", out] + FAST) == 0
        files = sorted((out / "model").glob("layer_*.json"))
        assert len(files) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["model"]["n"] == 8
        assert len(manifest["config_sha256"]) == 64

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["synth", "--out", a] + FAST)
        run(["synth", "--out", b] + FAST)
        for name in ("model/layer_000.json", "model/layer_001.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["synth", "--out", a] + FAST)
        run(["synth", "--out", b, "--set", "model.seed=9"] + FAST)
        assert (a / "model/layer_000.json").read_bytes() != \
               (b / "model/layer_000.json").read_bytes()

    def test_config_file_and_override_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"n": 8, "clusters": 2, "layers": 1}}))
        out = tmp_path / "run"
        assert run(["synth", "--config", cfg, "--out", out,
                    "--set", "model.layers=2", "--set", "corpus.size=512"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model"]["layers"] == 2  # flag beats file

    def test_bad_override_is_usage_error(self, tmp_path):
        assert run(["synth", "--out", tmp_path / "x", "--set", "nonsense"]) == 1
        assert run(["synth", "--out", tmp_path / "x", "--set", "model.bogus=1"]) == 1

    def test_unknown_allocator_is_data_error(self, tmp_path, model_dir, capsys):
        out = tmp_path / "c"
        assert run(["compress", "--out", out, "--model-dir", model_dir,
                    "--set", "selector.allocator=bogus"] + FAST) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "'bogus'" in err
        assert "uniform" in err and "weighted" in err
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        'model.n="abc"', "model.n=0", "model.n=8.5", "model.layers=-1", "model.layers=true",
        "model.fanout=0", "model.fanout=9", 'model.fanout="2"', "corpus.size=0",
        "corpus.size=null"])
    def test_bad_count_is_data_error(self, tmp_path, model_dir, capsys, override):
        out = tmp_path / "c"
        assert run(["compress", "--out", out, "--model-dir", model_dir]
                   + FAST + ["--set", override]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and override.split("=")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        'model.ctx="abc"', "model.ctx=0", "model.vocab=1", "model.vocab=4.0",
        "model.clusters=0", "model.clusters=99", "model.clusters=true", 'model.seed="x"',
        "model.seed=-1", "corpus.seed=1.5", "corpus.seed=null",
        "selector.triangle_seed=false", 'model.noise="x"', "model.noise=-1",
        "model.noise=NaN", "model.spread=-0.5", "model.spread=Infinity",
        "model.router_scale=null", "model.router_scale=-1e-9", 'model.router_bias="2.5"',
        "model.router_bias=-Infinity", "model.router_bias=true", "wanda.r1=1",
        "wanda.r1=-0.1",
        # too deeply nested for json.loads, and a long value echoed in the error
        pytest.param("model.n=" + "[" * 100_000, id="model.n=<100,000 nested [>"),
        pytest.param('model.n="' + "x" * 5_000 + '"', id="model.n=<5,000 characters>")])
    def test_bad_model_key_exits_before_synth_writes(self, tmp_path, capsys, override):
        out = tmp_path / "s"
        assert run(["synth", "--out", out, "--set", override]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "Traceback" not in err and len(err) < 200
        assert override.split("=")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        'selector.alpha="x"', "selector.alpha=null", "selector.alpha_t=Infinity",
        'selector.triangle_cap="x"', "selector.triangle_cap=-1", "selector.triangle_cap=2.5",
        "selector.lambda_e=nan", "selector.lambda_e=NaN", "selector.lambda_t=-0.5",
        "selector.p=-1", "selector.p=100.5", "selector.q_t=true", "selector.q_t=[20]",
        "wanda.r1=5", "wanda.r1=NaN", 'wanda.r1="0.2"', "model.noise=-1",
        "selector.rate=true", "selector.rate=1", 'wanda.hybrid="no"', "selector.method=5"])
    def test_bad_selector_key_exits_before_compress_writes(self, tmp_path, model_dir, capsys,
                                                          override):
        out = tmp_path / "c"
        assert run(["compress", "--out", out, "--model-dir", model_dir]
                   + FAST + ["--set", override]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "Traceback" not in err
        assert override.split("=")[0] in err
        assert not out.exists()

    def test_selector_keys_at_their_bounds_run(self, tmp_path, model_dir):
        bounds = ["selector.p=0", "selector.q_t=100", "selector.lambda_e=0",
                  "selector.lambda_t=0.0", "selector.alpha=-1.5", "selector.alpha_t=0",
                  "selector.triangle_cap=0", "model.noise=0", "model.spread=0",
                  "model.router_scale=0.0", "model.router_bias=-3", "wanda.r1=0.999"]
        assert run(["compress", "--out", tmp_path / "c", "--model-dir", model_dir] + FAST
                   + [arg for b in bounds for arg in ("--set", b)]) == 0

    def test_unreadable_config_is_data_error(self, tmp_path, capsys):
        # the second text nests too deep for the JSON parser
        for text in ("{not json", "[" * 100_000):
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            out = tmp_path / "x"
            assert run(["synth", "--config", bad, "--out", out]) == 2
            err = capsys.readouterr().err.strip()
            assert "\n" not in err and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("text", ["[1]", '{"selector": {"rtae": 0.5}}'])
    def test_config_not_an_object_or_with_unknown_key_is_data_error(self, tmp_path, capsys,
                                                                    text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "x"
        assert run(["synth", "--config", bad, "--out", out]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "Traceback" not in err
        assert not out.exists()


class TestBarriersAndDiagnose:
    def test_barriers_artifacts(self, tmp_path, model_dir):
        out = tmp_path / "bar"
        assert run(["barriers", "--out", out, "--model-dir", model_dir] + FAST) == 0
        assert (out / "barriers/layer_000.json").exists()
        csv = (out / "barriers/layer_000_pairwise.csv").read_text()
        assert len(csv.strip().split("\n")) == 8

    def test_differing_seeds_give_differing_barrier_tables(self, tmp_path, model_dir):
        import hashlib

        other = tmp_path / "other"
        run(["synth", "--out", other, "--set", "model.seed=77"] + FAST)
        out_a, out_b = tmp_path / "ba", tmp_path / "bb"
        run(["barriers", "--out", out_a, "--model-dir", model_dir] + FAST)
        run(["barriers", "--out", out_b, "--model-dir", other / "model"] + FAST)
        digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()  # noqa: E731
        assert digest(out_a / "barriers/layer_000_pairwise.csv") != \
               digest(out_b / "barriers/layer_000_pairwise.csv")

    def test_diagnose_artifacts(self, tmp_path, model_dir):
        out = tmp_path / "diag"
        assert run(["diagnose", "--out", out, "--model-dir", model_dir] + FAST) == 0
        csv = (out / "diagnostics.csv").read_text().strip().split("\n")
        assert csv[0] == "layer,rho_harm,rho_grad,rho_curl,delta,beta1"
        assert len(csv) == 3
        assert (out / "betti_curve_layer_001.csv").exists()
        assert (out / "diagnostics_series.json").exists()

    def test_malformed_model_file_is_data_error(self, tmp_path, capsys):
        broken = tmp_path / "model"
        broken.mkdir()
        # the second text nests too deep for the JSON parser
        for text in ("{broken", "[" * 100_000):
            (broken / "layer_000.json").write_text(text)
            out = tmp_path / "d"
            assert run(["diagnose", "--out", out, "--model-dir", broken] + FAST) == 2
            err = capsys.readouterr().err.strip()
            assert "\n" not in err and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("fanout", 2.5), ("n", 6.0), ("seed", "x"), ("fanout", True),
        ("expert_logits", "1.5"), ("router_logits", None), ("router_logits", False)])
    def test_malformed_model_field_exits_before_compress_writes(self, tmp_path, capsys,
                                                                field, value):
        src = tmp_path / "src"
        assert run(["synth", "--out", src, "--set", "model.layers=1", "--set", "model.n=6",
                    "--set", "model.clusters=2"]) == 0
        path = src / "model" / "layer_000.json"
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "c"
        assert run(["compress", "--out", out, "--model-dir", src / "model",
                    "--set", "corpus.size=512"]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "Traceback" not in err and field in err
        assert not out.exists()

    def test_model_file_in_the_old_layout_exits_before_compress_writes(self, tmp_path, capsys):
        # an earlier version wrote each logit table as nested lists of decimal floats
        src = tmp_path / "src"
        assert run(["synth", "--out", src, "--set", "model.layers=1", "--set", "model.n=6",
                    "--set", "model.clusters=2"]) == 0
        path = src / "model" / "layer_000.json"
        layer = MoeLayer.from_json(path.read_text())
        doc = json.loads(path.read_text())
        doc.update(expert_logits=layer.expert_logits.tolist(),
                   router_logits=layer.router_logits.tolist())
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "c"
        assert run(["compress", "--out", out, "--model-dir", src / "model",
                    "--set", "corpus.size=512"]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "Traceback" not in err
        assert "expert_logits" in err and "hodgecover synth" in err
        assert not out.exists()

    @pytest.mark.parametrize("ctx", [8, 300])
    def test_layer_ctx_other_than_model_ctx_exits_before_compress_writes(self, tmp_path,
                                                                         capsys, ctx):
        src = tmp_path / "src"
        assert run(["synth", "--out", src, "--set", "model.layers=1", "--set", "model.n=6",
                    "--set", "model.clusters=2", "--set", f"model.ctx={ctx}"]) == 0
        capsys.readouterr()
        out = tmp_path / "c"
        assert run(["compress", "--out", out, "--model-dir", src / "model",
                    "--set", "corpus.size=512"]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "Traceback" not in err
        assert "layer_000.json" in err and f"ctx {ctx}" in err
        assert not out.exists()

    def test_missing_model_dir_is_data_error(self, tmp_path):
        assert run(["diagnose", "--out", tmp_path / "d",
                    "--model-dir", tmp_path / "nope"] + FAST) == 2


class TestCompress:
    def test_rate_zero_identity_plans(self, tmp_path, model_dir):
        out = tmp_path / "c0"
        assert run(["compress", "--out", out, "--model-dir", model_dir,
                    "--rate", 0.0] + FAST) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["heldout_loss"] == pytest.approx(0.0, abs=1e-12)
        plan = json.loads((out / "plans/plan_layer_000.json").read_text())
        assert len(plan["survivors"]) == 8 and plan["redirect"] == {}

    def test_compress_writes_plans_and_summary(self, tmp_path, model_dir):
        out = tmp_path / "c"
        assert run(["compress", "--out", out, "--model-dir", model_dir,
                    "--rate", 0.5, "--method", "hodgecover"] + FAST) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "hodgecover"
        assert summary["per_layer_k"] == [4, 4]
        assert summary["heldout_loss"] >= 0.0
        assert len(summary["per_layer_phi"]) == 2

    def test_methods_all_run(self, tmp_path, model_dir):
        for method in ("random", "greedy_barrier", "triplet_penalty",
                       "triplet_hypergraph", "no_triangle"):
            out = tmp_path / f"m_{method}"
            assert run(["compress", "--out", out, "--model-dir", model_dir,
                        "--rate", 0.5, "--method", method] + FAST) == 0

    def test_invalid_method_and_rate_are_usage_errors(self, tmp_path, model_dir):
        assert run(["compress", "--out", tmp_path / "x", "--model-dir", model_dir,
                    "--method", "alchemy"] + FAST) == 1
        assert run(["compress", "--out", tmp_path / "x", "--model-dir", model_dir,
                    "--rate", 1.5] + FAST) == 1
        assert run(["compress", "--out", tmp_path / "x", "--model-dir", model_dir,
                    "--method", "greedy_barrier", "--hybrid"] + FAST) == 1

    def test_hybrid_applies_residual_sparsity_then_pruning(self, tmp_path, model_dir):
        out = tmp_path / "h"
        assert run(["compress", "--out", out, "--model-dir", model_dir,
                    "--rate", 0.66, "--hybrid"] + FAST) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["hybrid"] is True
        assert summary["r1"] == 0.20
        assert summary["r2"] == pytest.approx(0.575, abs=1e-12)
        # stage 1 runs at r1 = 0.2: R = 3 drops, remainder to the first layer
        assert summary["per_layer_k"] == [6, 7]
        assert (out / "masks_layer_000.json").exists()
        assert summary["heldout_loss"] >= 0.0

    def test_deterministic_rerun(self, tmp_path, model_dir):
        a, b = tmp_path / "r1", tmp_path / "r2"
        for out in (a, b):
            assert run(["compress", "--out", out, "--model-dir", model_dir,
                        "--rate", 0.5] + FAST) == 0
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
        assert (a / "plans/plan_layer_000.json").read_bytes() == \
               (b / "plans/plan_layer_000.json").read_bytes()


class TestAblateVerifyReport:
    def test_ablate_grid(self, tmp_path, model_dir):
        out = tmp_path / "ab"
        assert run(["ablate", "--out", out, "--model-dir", model_dir,
                    "--rate", 0.5] + FAST) == 0
        grid = json.loads((out / "ablation_grid.json").read_text())
        assert set(grid["grid"]) == {"hodgecover", "random", "no_triangle",
                                     "greedy_barrier", "triplet_penalty",
                                     "triplet_hypergraph"}
        dev = grid["deviation_from_hodgecover"]["hodgecover"]
        assert all(v == 0.0 for v in dev.values())
        csv = (out / "ablation_grid.csv").read_text().strip().split("\n")
        assert len(csv) == 7

    @pytest.mark.parametrize("arg, code", [
        ("--rate=1.5", 1), ("--set=selector.rate=1.5", 2), ("--set=selector.method=5", 2),
        ("--set=wanda.hybrid=true", 1)])
    def test_bad_rate_or_method_exits_before_ablate_writes(self, tmp_path, model_dir, capsys,
                                                           arg, code):
        out = tmp_path / "ab"
        assert run(["ablate", "--out", out, "--model-dir", model_dir] + FAST + [arg]) == code
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "Traceback" not in err
        assert not out.exists()

    def test_verify_subset_and_artifact(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert run(["verify", "--only", "1,6,8", "--out", out]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert sum("PASS" in line for line in lines) == 3
        doc = json.loads((out / "verify.json").read_text())
        assert [entry["number"] for entry in doc] == [1, 6, 8]

    def test_verify_bad_only_list(self, capsys):
        for only in ("one,two", "99", "0", "3,99"):
            assert run(["verify", "--only", only]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "numbered 1-12" in err

    def test_report_bundles_run_dir(self, tmp_path, model_dir, capsys):
        out = tmp_path / "c"
        run(["compress", "--out", out, "--model-dir", model_dir, "--rate", 0.5] + FAST)
        assert run(["report", "--run-dir", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "manifest" in report and "summary" in report

    def test_report_missing_dir(self, tmp_path):
        assert run(["report", "--run-dir", tmp_path / "ghost"]) == 2

    def test_report_reads_a_directory_with_one_artifact(self, tmp_path, model_dir):
        verified = tmp_path / "v"
        assert run(["verify", "--only", "8", "--out", verified]) == 0
        assert run(["report", "--run-dir", verified]) == 0
        assert list(json.loads((verified / "report.json").read_text())) == ["verify"]
        summary_only = tmp_path / "s"
        run(["compress", "--out", tmp_path / "c", "--model-dir", model_dir] + FAST)
        summary_only.mkdir()
        shutil.copy(tmp_path / "c" / "summary.json", summary_only)
        assert run(["report", "--run-dir", summary_only]) == 0
        assert list(json.loads((summary_only / "report.json").read_text())) == ["summary"]

    def test_report_refuses_a_directory_without_artifacts(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert run(["report", "--run-dir", tmp_path / "empty"]) == 2
        assert "no recognized artifacts" in capsys.readouterr().err
        assert not (tmp_path / "empty" / "report.json").exists()

    @pytest.mark.parametrize("command", [["compress", "--rate", "0.33"], ["ablate"]])
    def test_failure_after_analysis_leaves_no_run_directory(self, tmp_path, capsys, command):
        # one expert per layer leaves nothing to drop: the budget fails once every
        # layer is analysed, and nothing may have been written by then
        one = ["--set", "model.n=1", "--set", "model.fanout=1", "--set", "model.clusters=1",
               "--set", "corpus.size=256"]
        assert run(["synth", "--out", tmp_path / "m"] + one) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([*command, "--out", out, "--model-dir", tmp_path / "m" / "model"] + one) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "budget" in err and "Traceback" not in err
        assert not out.exists()


def test_entry_point_installed():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads(
        (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())["project"]
    assert project["version"] == hodgecover.__version__  # what --version prints
    target = project["scripts"]["hodgecover"]
    assert target == "hodgecover.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    try:
        importlib.metadata.distribution("hodgecover")
    except importlib.metadata.PackageNotFoundError:
        return  # source checkout: no console script to load
    (script,) = importlib.metadata.entry_points(group="console_scripts", name="hodgecover")
    assert script.load() is main


def fresh_python(*args):
    """``sys.executable`` with ``args`` in a new process that imports this checkout."""
    env = dict(os.environ)
    root = str(Path(hodgecover.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_python_dash_m_runs_cli():
    def python_m(*args):
        return fresh_python("-m", "hodgecover", *args)

    passed = python_m("verify", "--only", "1")
    assert passed.returncode == 0, passed.stderr
    assert "[PASS] criterion  1" in passed.stdout
    assert python_m("verify", "--only", "one").returncode == 1
    version = python_m("--version")
    assert version.returncode == 0
    assert version.stdout.strip() == hodgecover.__version__


def test_benchmark_tracer_sites_resolve(monkeypatch):
    # perfbench/tracing.py patches hodgecover names from outside; a dropped or
    # renamed name stops every traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    tracing = importlib.import_module("tracing")
    assert len(tracing.resolve_sites()) == len(tracing.SITES)


def test_schema_defaults_are_the_library_defaults():
    # verify's criteria run on the library's defaults and the CLI on SCHEMA's;
    # the library side is read off the signatures, so a default changed in
    # one place alone fails here
    def defaults(fn):
        return {name: p.default for name, p in inspect.signature(fn).parameters.items()
                if p.default is not inspect.Parameter.empty}

    def schema(section, keys):
        return {key: SCHEMA[section][key][0] for key in keys}

    params = {"p": "p", "q_t": "q_t", "lambda_e": "lam_e", "lambda_t": "lam_t",
              "alpha": "alpha", "alpha_t": "alpha_t"}
    selector = defaults(SelectorParams)
    assert set(selector) == set(params.values())
    assert schema("selector", params) == {key: selector[name] for key, name in params.items()}
    for fn in (analyze_layer, stage_a_candidates):
        assert schema("selector", ["triangle_cap", "triangle_seed"]) == \
            {"triangle_cap": defaults(fn)["cap"], "triangle_seed": defaults(fn)["seed"]}
    # a model's layer count is the one model key with no library default
    model = [key for key in SCHEMA["model"] if key != "layers"]
    synth = defaults(synth_layer)
    assert schema("model", model) == {key: synth[key] for key in model}
    corpus = defaults(CalibCorpus.sample)
    assert schema("corpus", SCHEMA["corpus"]) == {key: corpus[key] for key in SCHEMA["corpus"]}
    assert SCHEMA["wanda"]["r1"][0] == defaults(residual_sparsity)["r1"]


def test_package_root_loads_no_submodule():
    # the root exports only __version__; callers import the submodules they use
    done = fresh_python("-c", "import sys, hodgecover; print(sorted(m for m in sys.modules "
                              "if m.startswith('hodgecover.'))); "
                              "from hodgecover import cli, moe, pipeline, selector")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_loads_no_scipy():
    # the runtime is numpy only; scipy stays a test dependency (the kernels' oracle)
    done = fresh_python("-c", "import sys, hodgecover.cli; print([m for m in sys.modules "
                              "if m == 'scipy' or m.startswith('scipy.')])")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# sha256 of every artifact on the default 4 x 16 model, recorded before the
# triplet table and the selector moved onto arrays.  The diagnostics and the
# ablation grid were recorded again when the curl moved onto Stage B's pivot
# triangles: their numbers moved by at most 1.1e-16, and no plan moved.  The
# synth layer files, here and in the shape digests, were recorded again when
# their logit tables became base64 float64; no other digest moved.  These
# artifacts do not move with the BLAS thread count; those of a 1 x 64 model's
# diagnose and ablate do.
GOLDEN = Path(__file__).with_name("golden_artifacts.json")
GOLDEN_RUNS = {
    "barriers": ["barriers"],
    "diagnose": ["diagnose"],
    "ablate": ["ablate", "--rate", "0.5"],
    **{f"compress_{m}": ["compress", "--rate", "0.66", "--method", m] for m in METHODS},
    "compress_hybrid": ["compress", "--rate", "0.66", "--hybrid"],
}


def artifact_digests(root: Path, options: tuple[str, ...] = ()) -> dict[str, str]:
    """Run every golden command in-process under ``root``, each with the
    ``--set`` ``options``; relative path -> sha256."""
    assert run(["synth", "--out", root / "synth", *options]) == 0
    for name, args in GOLDEN_RUNS.items():
        assert run([*args, "--out", root / name, "--model-dir", root / "synth" / "model",
                    *options]) == 0
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_artifacts_match_golden_digests(tmp_path):
    assert artifact_digests(tmp_path) == json.loads(GOLDEN.read_text())


# sha256 of the same commands on three more model shapes, which take the sweep's
# wide-fanout and 64-expert branches that the default model never does.  They run
# in one fresh process at one OpenBLAS thread, set before numpy loads: the ablation
# grids of all three, and the diagnostics of 2 x 32 and fanout 8, move with it.
GOLDEN_SHAPES = Path(__file__).with_name("golden_shape_artifacts.json")
SHAPES = {
    "1x64": ("model.layers=1", "model.n=64"),
    "2x32": ("model.layers=2", "model.n=32"),
    "1x64_fanout8": ("model.layers=1", "model.n=64", "model.fanout=8"),
}


def shape_digests(root: Path) -> dict[str, dict[str, str]]:
    """:func:`artifact_digests` of every shape in ``SHAPES`` under ``root``."""
    return {shape: artifact_digests(root / shape, tuple(a for s in sets for a in ("--set", s)))
            for shape, sets in SHAPES.items()}


def test_artifacts_match_golden_digests_on_more_shapes(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    done = fresh_python("-c", "import json, sys; from pathlib import Path; "
                              "sys.path.insert(0, sys.argv[1]); "
                              "from test_cli import shape_digests; "
                              "print(json.dumps(shape_digests(Path(sys.argv[2]))))",
                        str(Path(__file__).parent), str(tmp_path))
    assert done.returncode == 0, done.stderr
    # the commands print their summaries first; the digests are the last line
    assert json.loads(done.stdout.splitlines()[-1]) == json.loads(GOLDEN_SHAPES.read_text())


# ---------------------------------------------------------------------------
# fuzzed inputs: any --set value and any damaged model file exits 0 or 2 with
# one message line, never a traceback, and leaves no run directory on failure

TINY = ["--set", "model.layers=1", "--set", "model.n=5", "--set", "model.vocab=4",
        "--set", "model.ctx=8", "--set", "model.clusters=2", "--set", "corpus.size=64"]
# integers between 41 and 2**62 are left out: as a corpus size they are valid and
# allocate memory in proportion (up to exabytes); beyond it numpy refuses the size
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.integers(min_value=2**62),
    st.integers(max_value=-2**62), st.floats(),
    st.text(max_size=6), st.lists(st.integers(-2, 6), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1))


@pytest.fixture(scope="module")
def tiny_layer(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    assert run(["synth", "--out", out] + TINY) == 0
    return (out / "model" / "layer_000.json").read_text()


def run_fuzzed(tmp_path, capsys, args):
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    code = run([*args, "--out", out])
    text = capsys.readouterr()
    assert code in (0, 2), (code, text.err)
    assert "Traceback" not in text.out + text.err
    if code:
        assert len(text.err.strip().splitlines()) == 1, text.err
        assert not out.exists()


@given(key=st.sampled_from([f"{s}.{f}" for s, fields in SCHEMA.items() for f in fields]),
       value=st.one_of(JSON_VALUES.map(json.dumps), st.text(max_size=8)))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_set_values(tmp_path, capsys, tiny_layer, key, value):
    model = tmp_path / "model"
    model.mkdir(exist_ok=True)
    (model / "layer_000.json").write_text(tiny_layer)
    run_fuzzed(tmp_path, capsys, ["barriers", "--model-dir", model, *TINY,
                                  "--set", f"{key}={value}"])


@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_model_files(tmp_path, capsys, tiny_layer, data):
    doc = json.loads(tiny_layer)
    how = data.draw(st.sampled_from(["truncate", "field", "drop", "char", "cut"]))
    if how == "truncate":
        text = tiny_layer[:data.draw(st.integers(0, len(tiny_layer) - 1))]
    else:
        key = data.draw(st.sampled_from(sorted(doc)))
        if how == "field":
            doc[key] = data.draw(JSON_VALUES)
        elif how == "drop":
            del doc[key]
        else:
            table = data.draw(st.sampled_from(["expert_logits", "router_logits"]))
            b64 = doc[table]
            at = data.draw(st.integers(0, len(b64) - 1))
            if how == "char":
                # one base64 character replaced by any character, or deleted
                char = data.draw(st.one_of(st.just(""), st.characters()))
                doc[table] = b64[:at] + char + b64[at + 1:]
            else:
                doc[table] = b64[:at]
        text = json.dumps(doc)
    model = tmp_path / "model"
    model.mkdir(exist_ok=True)
    (model / "layer_000.json").write_text(text)
    run_fuzzed(tmp_path, capsys, ["barriers", "--model-dir", model, *TINY])


def test_size_too_large_to_hold_is_data_error(tmp_path, capsys, tiny_layer, monkeypatch):
    # CalibCorpus.sample raises MemoryError on a corpus.size such as 1121654963
    def sample(*args):
        raise MemoryError("Unable to allocate 8.36 GiB for an array")

    model = tmp_path / "model"
    model.mkdir()
    (model / "layer_000.json").write_text(tiny_layer)
    monkeypatch.setattr("hodgecover.cli.CalibCorpus.sample", sample)
    out = tmp_path / "out"
    assert run(["barriers", "--model-dir", model, "--out", out, *TINY,
                "--set", "corpus.size=1121654963"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hodgecover: out of memory: ") and err.count("\n") == 1
    assert not out.exists()


# fuzzed run directories: `report` over a damaged artifact exits 0 or 2 with one
# message line and no traceback

REPORTED = ("manifest.json", "summary.json", "ablation_grid.json", "verify.json")


@pytest.fixture(scope="module")
def reported_run(tmp_path_factory):
    """A run directory holding every artifact `report` reads, from tiny real runs."""
    root = tmp_path_factory.mktemp("reported")
    assert run(["synth", "--out", root / "synth"] + TINY) == 0
    model = root / "synth" / "model"
    assert run(["compress", "--out", root / "c", "--model-dir", model, "--rate", 0.4]
               + TINY) == 0
    assert run(["ablate", "--out", root / "a", "--model-dir", model, "--rate", 0.4]
               + TINY) == 0
    assert run(["diagnose", "--out", root / "d", "--model-dir", model] + TINY) == 0
    assert run(["verify", "--only", "1", "--out", root / "v"]) == 0
    out = root / "run"
    out.mkdir()
    for src in (root / "c" / "manifest.json", root / "c" / "summary.json",
                root / "a" / "ablation_grid.json", root / "v" / "verify.json",
                root / "d" / "diagnostics.csv"):
        shutil.copy(src, out / src.name)
    return out


@given(data=st.data())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_report_artifacts(tmp_path, capsys, reported_run, data):
    out = tmp_path / "run"
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(reported_run, out)
    path = out / data.draw(st.sampled_from(REPORTED))
    raw = path.read_bytes()
    how = data.draw(st.sampled_from(["truncate", "byte", "non_utf8", "directory"]))
    if how == "directory":
        path.unlink()
        path.mkdir()
    else:
        at = data.draw(st.integers(0, len(raw) - 1))
        if how == "truncate":
            raw = raw[:at]
        elif how == "byte":
            raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
        else:
            raw = raw[:at] + b"\xff\xfe" + raw[at:]
        path.write_bytes(raw)
    capsys.readouterr()
    code = run(["report", "--run-dir", out])
    text = capsys.readouterr()
    assert code in (0, 2), (code, text.err)
    assert "Traceback" not in text.out + text.err
    if code:
        assert len(text.err.strip().splitlines()) == 1, text.err
        assert text.err.startswith(f"hodgecover: error: cannot read artifact {path}")
    else:
        assert json.loads((out / "report.json").read_text())


@pytest.mark.parametrize("name", REPORTED + ("diagnostics.csv",))
def test_report_on_a_directory_named_as_an_artifact(tmp_path, capsys, reported_run, name):
    out = tmp_path / "run"
    shutil.copytree(reported_run, out)
    (out / name).unlink()
    (out / name).mkdir()
    capsys.readouterr()
    assert run(["report", "--run-dir", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hodgecover: error: cannot read artifact {out / name}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unwritable_artifact_is_data_error(tmp_path, capsys, reported_run):
    # synth into a path that is a file; report over a run directory whose
    # report.json is a directory
    taken = tmp_path / "taken"
    taken.write_text("")
    run_dir = tmp_path / "run"
    shutil.copytree(reported_run, run_dir)
    (run_dir / "report.json").mkdir()
    for args, path in ((["synth", "--out", taken] + TINY, taken / "manifest.json"),
                       (["report", "--run-dir", run_dir], run_dir / "report.json")):
        capsys.readouterr()
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hodgecover: error: cannot write {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
