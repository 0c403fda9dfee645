"""End-to-end driver: synth, barriers, diagnose, compress, ablate, verify, report.

Every command is deterministic given its config: model files, barrier
tables, plans, and summaries are byte-identical across reruns.  Artifacts
land under a run directory together with a manifest recording the config
and its hash.  Exit codes: 0 success, 1 usage error, 2 data/validation
error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (diagnostics_csv, discordance, mechanism_table, retained_mass,
                          series_json)
from .moe import CalibCorpus, MoeLayer, synth_layer
# plan_layer is unused here but stays importable: the benchmark's tracer
# (perfbench/tracing.py) patches hodgecover.cli.plan_layer by name.
from .pipeline import (METHODS, SelectorParams, analyze_layer, compress_model,  # noqa: F401
                       hybrid_prune, model_loss, plan_layer)
from .selector import allocate_uniform, allocate_weighted
from .verification import run_checks
# prune_survivors is unused here but stays importable: the benchmark's tracer
# (perfbench/tracing.py) patches hodgecover.cli.prune_survivors by name.
from .wanda import masks_to_json, prune_survivors  # noqa: F401

USAGE_ERROR = 1
DATA_ERROR = 2
ALLOCATORS = ("uniform", "weighted")
# integer keys and their least value; the generators reject negative seeds
INT_KEYS = {("model", "n"): 1, ("model", "layers"): 1, ("model", "fanout"): 1,
            ("model", "ctx"): 1, ("model", "vocab"): 2, ("model", "clusters"): 1,
            ("corpus", "size"): 1, ("model", "seed"): 0, ("corpus", "seed"): 0,
            ("selector", "triangle_seed"): 0}

DEFAULT_CONFIG = {
    "model": {"layers": 4, "n": 16, "vocab": 32, "ctx": 256, "fanout": 2,
              "clusters": 4, "seed": 0, "noise": 0.35, "spread": 2.0,
              "router_scale": 3.0, "router_bias": 2.5},
    "corpus": {"size": 2048, "seed": 42},
    "selector": {"method": "hodgecover", "rate": 0.33, "allocator": "uniform",
                 "p": 20.0, "q_t": 20.0, "lambda_e": 1.0, "lambda_t": 0.5,
                 "alpha": 3.0, "alpha_t": 1.0, "triangle_cap": 500,
                 "triangle_seed": 42},
    "wanda": {"r1": 0.20, "hybrid": False},
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config {path}: {exc}", DATA_ERROR)
        for section, values in loaded.items():
            if section not in cfg or not isinstance(values, dict):
                raise CliError(f"unknown config section {section!r}", DATA_ERROR)
            cfg[section].update(values)
    for item in overrides:
        try:
            key, raw = item.split("=", 1)
            section, field = key.split(".", 1)
            current = cfg[section]
            if field not in current:
                raise KeyError(field)
        except (ValueError, KeyError):
            raise CliError(f"bad override {item!r}; use section.key=value", USAGE_ERROR)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        current[field] = value
    if cfg["selector"]["allocator"] not in ALLOCATORS:
        raise CliError(f"invalid selector.allocator {cfg['selector']['allocator']!r}; "
                       f"choose from {', '.join(ALLOCATORS)}", DATA_ERROR)
    for (section, field), least in INT_KEYS.items():
        value = cfg[section][field]
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise CliError(f"invalid {section}.{field} {value!r}; need an integer >= {least}",
                           DATA_ERROR)
    for field in ("fanout", "clusters"):
        if cfg["model"][field] > cfg["model"]["n"]:
            raise CliError(f"invalid model.{field} {cfg['model'][field]!r}; need at most "
                           f"model.n = {cfg['model']['n']}", DATA_ERROR)
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(out: Path, command: str, cfg: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    doc = {"tool": "hodgecover", "version": __version__, "command": command,
           "config": cfg, "config_sha256": config_hash(cfg)}
    (out / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model(model_dir: str) -> list[MoeLayer]:
    folder = Path(model_dir)
    files = sorted(folder.glob("layer_*.json"))
    if not files:
        raise CliError(f"no layer_*.json files under {model_dir}", DATA_ERROR)
    layers = []
    for path in files:
        try:
            layers.append(MoeLayer.from_json(path.read_text()))
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise CliError(f"malformed model file {path}: {exc}", DATA_ERROR)
    return layers


def selector_params(cfg: dict) -> SelectorParams:
    sel = cfg["selector"]
    return SelectorParams(p=sel["p"], q_t=sel["q_t"], lam_e=sel["lambda_e"],
                          lam_t=sel["lambda_t"], alpha=sel["alpha"],
                          alpha_t=sel["alpha_t"])


def corpora(cfg: dict) -> tuple[CalibCorpus, CalibCorpus]:
    """Calibration corpus plus the held-out corpus at seed + 1."""
    c = cfg["corpus"]
    ctx = cfg["model"]["ctx"]
    return (CalibCorpus.sample(ctx, c["size"], c["seed"]),
            CalibCorpus.sample(ctx, c["size"], c["seed"] + 1))


def model_layers(cfg: dict) -> list[MoeLayer]:
    m = cfg["model"]
    return [synth_layer(m["n"], m["vocab"], m["ctx"], m["fanout"], m["clusters"],
                        m["seed"] + idx, noise=m["noise"], spread=m["spread"],
                        router_scale=m["router_scale"], router_bias=m["router_bias"])
            for idx in range(m["layers"])]


def analyses_for(layers, cfg, corpus):
    sel = cfg["selector"]
    return [analyze_layer(layer, corpus, cap=sel["triangle_cap"],
                          seed=sel["triangle_seed"]) for layer in layers]


def allocate(cfg: dict, rate: float, analyses) -> tuple[int, ...]:
    sizes = [a.layer.n for a in analyses]
    if cfg["selector"]["allocator"] == "weighted":
        rho = [a.decomp.energy_harm for a in analyses]
        return allocate_weighted(rate, sizes, rho).survivors
    return allocate_uniform(rate, sizes).survivors


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: dict, out: Path) -> int:
    write_manifest(out, "synth", cfg)
    model_dir = out / "model"
    model_dir.mkdir(parents=True, exist_ok=True)
    for idx, layer in enumerate(model_layers(cfg)):
        (model_dir / f"layer_{idx:03d}.json").write_text(layer.to_json() + "\n")
    print(f"wrote {cfg['model']['layers']} layer files under {model_dir}")
    return 0


def cmd_barriers(cfg: dict, out: Path, model_dir: str) -> int:
    layers = load_model(model_dir)
    corpus, _ = corpora(cfg)
    write_manifest(out, "barriers", cfg)
    barrier_dir = out / "barriers"
    barrier_dir.mkdir(parents=True, exist_ok=True)
    for idx, analysis in enumerate(analyses_for(layers, cfg, corpus)):
        (barrier_dir / f"layer_{idx:03d}.json").write_text(analysis.table.to_json() + "\n")
        (barrier_dir / f"layer_{idx:03d}_pairwise.csv").write_text(
            analysis.table.pairwise_csv())
    print(f"wrote barrier tables for {len(layers)} layers under {barrier_dir}")
    return 0


def cmd_diagnose(cfg: dict, out: Path, model_dir: str) -> int:
    from .diagnostics import LayerDiagnostics

    layers = load_model(model_dir)
    corpus, _ = corpora(cfg)
    write_manifest(out, "diagnose", cfg)
    diags = []
    for idx, analysis in enumerate(analyses_for(layers, cfg, corpus)):
        delta = discordance(analysis.table, analysis.candidates) \
            if len(analysis.candidates) else 0.0
        diags.append(LayerDiagnostics(
            layer=idx, rho_harm=analysis.decomp.energy_harm,
            rho_grad=analysis.decomp.energy_grad, rho_curl=analysis.decomp.energy_curl,
            delta=delta, beta1=analysis.beta1))
        (out / f"betti_curve_layer_{idx:03d}.csv").write_text(
            analysis.filtration.curve_csv())
    (out / "diagnostics.csv").write_text(diagnostics_csv(diags))
    (out / "diagnostics_series.json").write_text(series_json(diags) + "\n")
    print(f"wrote diagnostics for {len(diags)} layers under {out}")
    return 0


def _compress(cfg: dict, layers, corpus, heldout, method: str, rate: float,
              analyses=None):
    params = selector_params(cfg)
    if analyses is None:
        analyses = analyses_for(layers, cfg, corpus)
    hybrid = bool(cfg["wanda"]["hybrid"])
    r1 = float(cfg["wanda"]["r1"])
    stage1_rate = r1 if hybrid else rate
    ks = allocate(cfg, stage1_rate, analyses)
    plans = compress_model(analyses, ks, method, params, seed=cfg["model"]["seed"])
    summary = {
        "method": method,
        "rate": rate,
        "allocator": cfg["selector"]["allocator"],
        "per_layer_k": list(ks),
        "per_layer_phi": [p.phi for p in plans],
        "hybrid": hybrid,
    }
    pruned_all = masks = None
    if hybrid:
        r2, pruned_all, masks = hybrid_prune(layers, corpus, plans, rate, r1)
        summary.update(r1=r1, r2=r2)
    summary["heldout_loss"] = model_loss(layers, heldout, plans, pruned_all)
    return analyses, plans, summary, masks


def cmd_compress(cfg: dict, out: Path, model_dir: str) -> int:
    method = cfg["selector"]["method"]
    rate = float(cfg["selector"]["rate"])
    if method not in METHODS:
        raise CliError(f"invalid method {method!r}; choose from {METHODS}", USAGE_ERROR)
    if not (0.0 <= rate < 1.0):
        raise CliError(f"invalid rate {rate!r}; need [0, 1)", USAGE_ERROR)
    if cfg["wanda"]["hybrid"] and method not in ("hodgecover", "no_triangle", "random"):
        raise CliError(f"hybrid stage 2 needs bit-exact survivors; {method!r} merges "
                       "expert groups instead", USAGE_ERROR)
    layers = load_model(model_dir)
    corpus, heldout = corpora(cfg)
    write_manifest(out, "compress", cfg)
    _, plans, summary, masks = _compress(cfg, layers, corpus, heldout, method, rate)
    plan_dir = out / "plans"
    plan_dir.mkdir(parents=True, exist_ok=True)
    for idx, plan in enumerate(plans):
        (plan_dir / f"plan_layer_{idx:03d}.json").write_text(plan.to_json() + "\n")
    if masks is not None:
        for idx, mask in enumerate(masks):
            (out / f"masks_layer_{idx:03d}.json").write_text(masks_to_json(mask) + "\n")
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_ablate(cfg: dict, out: Path, model_dir: str) -> int:
    rate = float(cfg["selector"]["rate"])
    layers = load_model(model_dir)
    corpus, heldout = corpora(cfg)
    write_manifest(out, "ablate", cfg)
    grid = {}
    retained = {}
    shared = analyses_for(layers, cfg, corpus)
    for method in METHODS:
        analyses, plans, summary, _ = _compress(cfg, layers, corpus, heldout, method,
                                                rate, analyses=shared)
        grid[method] = summary
        per_layer = []
        for analysis, plan in zip(analyses, plans):
            tri = {tuple(int(v) for v in t): analysis.table.triplet[tuple(int(v) for v in t)]
                   for t in analysis.complex.triangles}
            per_layer.append(retained_mass(analysis.complex, analysis.decomp,
                                           tri, plan.survivors))
        macro = {key: float(np.mean([m.as_dict()[key] for m in per_layer]))
                 for key in ("harm", "grad", "curl", "triplet")}
        retained[method] = macro
    from .diagnostics import RetainedMass

    deviations = mechanism_table(
        {m: RetainedMass(**vals) for m, vals in retained.items()})
    doc = {"rate": rate, "grid": grid, "retained_mass": retained,
           "deviation_from_hodgecover": deviations}
    (out / "ablation_grid.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    lines = ["method,heldout_loss,ret_harm,ret_grad,ret_curl,ret_triplet"]
    for method in METHODS:
        r = retained[method]
        lines.append(f"{method},{grid[method]['heldout_loss']!r},"
                     f"{r['harm']!r},{r['grad']!r},{r['curl']!r},{r['triplet']!r}")
    (out / "ablation_grid.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote ablation grid over {len(METHODS)} methods at rate {rate} under {out}")
    return 0


def cmd_verify(only: list[int] | None, out: Path | None) -> int:
    results = run_checks(only)
    for result in results:
        print(result.line())
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        doc = [{"number": r.number, "name": r.name, "passed": r.passed,
                "detail": r.detail, "seconds": round(r.seconds, 3)} for r in results]
        (out / "verify.json").write_text(json.dumps(doc, indent=2) + "\n")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else DATA_ERROR


def cmd_report(run_dir: str) -> int:
    folder = Path(run_dir)
    if not folder.is_dir():
        raise CliError(f"run directory {run_dir} does not exist", DATA_ERROR)
    report: dict = {}
    manifest = folder / "manifest.json"
    if manifest.exists():
        report["manifest"] = json.loads(manifest.read_text())
    for name in ("summary.json", "ablation_grid.json", "verify.json"):
        path = folder / name
        if path.exists():
            report[name.removesuffix(".json")] = json.loads(path.read_text())
    diagnostics = folder / "diagnostics.csv"
    if diagnostics.exists():
        report["diagnostics_csv"] = diagnostics.read_text().strip().split("\n")
    if len(report) <= 1 and "manifest" not in report:
        raise CliError(f"no recognized artifacts under {run_dir}", DATA_ERROR)
    (folder / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for key in report:
        print(f"report section: {key}")
    print(f"wrote {folder / 'report.json'}")
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="hodgecover",
                    description="Topology-driven learning-free MoE compression toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=False):
        p.add_argument("--config", help="JSON config file; defaults are built in")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override one config value")
        p.add_argument("--out", required=True, help="run directory for artifacts")
        if model:
            p.add_argument("--model-dir", required=True,
                           help="directory holding layer_*.json files")

    common(sub.add_parser("synth", help="generate a synthetic model"))
    common(sub.add_parser("barriers", help="sweep pairwise + triplet barriers"), model=True)
    common(sub.add_parser("diagnose", help="per-layer diagnostics and betti curves"),
           model=True)
    compress = sub.add_parser("compress", help="select survivors and evaluate loss")
    common(compress, model=True)
    compress.add_argument("--method", help="selector method override")
    compress.add_argument("--rate", type=float, help="global drop rate override")
    compress.add_argument("--hybrid", action="store_true",
                          help="stage-1 at wanda.r1 then weight pruning to the rate")
    ablate = sub.add_parser("ablate", help="run every selector at one rate")
    common(ablate, model=True)
    ablate.add_argument("--rate", type=float, help="global drop rate override")
    verify = sub.add_parser("verify", help="run the structural acceptance suite")
    verify.add_argument("--only", help="comma-separated criterion numbers")
    verify.add_argument("--out", help="optional directory for verify.json")
    report = sub.add_parser("report", help="bundle one run directory into report.json")
    report.add_argument("--run-dir", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            only = None
            if args.only:
                try:
                    only = [int(x) for x in args.only.split(",")]
                except ValueError:
                    raise CliError(f"bad --only list {args.only!r}", USAGE_ERROR)
            return cmd_verify(only, Path(args.out) if args.out else None)
        if args.command == "report":
            return cmd_report(args.run_dir)

        cfg = load_config(args.config, args.overrides)
        if args.command == "compress":
            if args.method is not None:
                cfg["selector"]["method"] = args.method
            if args.rate is not None:
                cfg["selector"]["rate"] = args.rate
            if args.hybrid:
                cfg["wanda"]["hybrid"] = True
        if args.command == "ablate" and args.rate is not None:
            cfg["selector"]["rate"] = args.rate

        out = Path(args.out)
        if args.command == "synth":
            return cmd_synth(cfg, out)
        if args.command == "barriers":
            return cmd_barriers(cfg, out, args.model_dir)
        if args.command == "diagnose":
            return cmd_diagnose(cfg, out, args.model_dir)
        if args.command == "compress":
            return cmd_compress(cfg, out, args.model_dir)
        if args.command == "ablate":
            return cmd_ablate(cfg, out, args.model_dir)
        raise CliError(f"unhandled command {args.command}", USAGE_ERROR)
    except CliError as exc:
        print(f"hodgecover: error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, KeyError) as exc:
        print(f"hodgecover: invalid data: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
