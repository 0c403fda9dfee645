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
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
# discordance, plan_layer and prune_survivors are unused here but stay importable:
# the benchmark's tracer (perfbench/tracing.py) patches them as hodgecover.cli.<name>.
from .diagnostics import (diagnose_model, diagnostics_csv, discordance,  # noqa: F401
                          mechanism_table, retained_mass, series_json)
from .moe import CalibCorpus, MoeLayer, synth_layer
from .pipeline import (METHODS, REDIRECT_METHODS, SelectorParams, analyze_layer,  # noqa: F401
                       compress_model, hybrid_prune, model_loss, plan_layer)
from .selector import allocate_uniform, allocate_weighted
from .verification import CHECKS, run_checks
from .wanda import masks_to_json, prune_survivors  # noqa: F401

USAGE_ERROR = 1
DATA_ERROR = 2
# an unreadable input file: decode and JSON errors are ValueErrors, deep nesting a RecursionError
UNREADABLE = (OSError, ValueError, RecursionError)
ECHO_LIMIT = 60  # characters of a bad value an error message echoes


class Num(NamedTuple):
    """An integer (``kind`` int) or a finite number in [lo, hi], or in
    [lo, hi) when ``open_hi``."""

    kind: type
    lo: float = -math.inf
    hi: float = math.inf
    open_hi: bool = False


# Every config key with its default and its one check: a Num, bool, or a
# tuple of the allowed values.  The generators reject negative seeds, and
# wanda.residual_sparsity needs r1 < 1.
SCHEMA = {
    "model": {"layers": (4, Num(int, 1)), "n": (16, Num(int, 1)), "vocab": (32, Num(int, 2)),
              "ctx": (256, Num(int, 1)), "fanout": (2, Num(int, 1)),
              "clusters": (4, Num(int, 1)), "seed": (0, Num(int, 0)),
              "noise": (0.35, Num(float, 0.0)), "spread": (2.0, Num(float, 0.0)),
              "router_scale": (3.0, Num(float, 0.0)), "router_bias": (2.5, Num(float))},
    "corpus": {"size": (2048, Num(int, 1)), "seed": (42, Num(int, 0))},
    "selector": {"method": ("hodgecover", METHODS),
                 "rate": (0.33, Num(float, 0.0, 1.0, open_hi=True)),
                 "allocator": ("uniform", ("uniform", "weighted")),
                 "p": (20.0, Num(float, 0.0, 100.0)), "q_t": (20.0, Num(float, 0.0, 100.0)),
                 "lambda_e": (1.0, Num(float, 0.0)), "lambda_t": (0.5, Num(float, 0.0)),
                 "alpha": (3.0, Num(float)), "alpha_t": (1.0, Num(float)),
                 "triangle_cap": (500, Num(int, 0)), "triangle_seed": (42, Num(int, 0))},
    "wanda": {"r1": (0.20, Num(float, 0.0, 1.0, open_hi=True)), "hybrid": (False, bool)},
}
DEFAULT_CONFIG = {section: {field: default for field, (default, _) in fields.items()}
                  for section, fields in SCHEMA.items()}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def check_keys(cfg: dict, keys, code: int) -> None:
    """Raise ``CliError(code)`` at the first (section, field) in ``keys``
    whose value fails its check in ``SCHEMA``."""
    for section, field in keys:
        value, rule = cfg[section][field], SCHEMA[section][field][1]
        if rule is bool:
            ok, need = isinstance(value, bool), "need true or false"
        elif isinstance(rule, Num):
            kind, lo, hi, open_hi = rule
            # abs(value) <= float max rejects nan, +-inf and ints beyond float range
            ok = (not isinstance(value, bool) and isinstance(value, (int, kind))
                  and lo <= value and (value < hi if open_hi else value <= hi)
                  and abs(value) <= sys.float_info.max)
            need = (f"need an integer >= {lo}" if kind is int else
                    f"need a finite number in [{lo:g}, {hi:g}{')' if open_hi else ']'}")
        else:
            ok, need = value in rule, f"choose from {', '.join(rule)}"
        if not ok:
            raise CliError(f"invalid {section}.{field} {clipped(value)}; {need}", code)


def clipped(value) -> str:
    """``repr(value)``, cut to ``ECHO_LIMIT`` characters: an error stays one short line."""
    text = repr(value)
    return text if len(text) <= ECHO_LIMIT else f"{text[:ECHO_LIMIT]}... ({len(text)} characters)"


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except UNREADABLE as exc:
            raise CliError(f"cannot read config {path}: {exc}", DATA_ERROR)
        if not isinstance(loaded, dict):
            raise CliError(f"config {path} is not a JSON object", DATA_ERROR)
        for section, values in loaded.items():
            if section not in cfg or not isinstance(values, dict):
                raise CliError(f"unknown config section {section!r}", DATA_ERROR)
            unknown = sorted(values.keys() - cfg[section].keys())
            if unknown:
                raise CliError(f"unknown config key {section}.{unknown[0]}", DATA_ERROR)
            cfg[section].update(values)
    for item in overrides:
        try:
            key, raw = item.split("=", 1)
            section, field = key.split(".", 1)
            current = cfg[section]
            if field not in current:
                raise KeyError(field)
        except (ValueError, KeyError):
            raise CliError(f"bad override {clipped(item)}; use section.key=value", USAGE_ERROR)
        try:
            value = json.loads(raw)
        except (json.JSONDecodeError, RecursionError):  # too deeply nested to parse
            value = raw
        current[field] = value
    check_keys(cfg, [(s, f) for s, fields in SCHEMA.items() for f in fields], DATA_ERROR)
    for field in ("fanout", "clusters"):
        if cfg["model"][field] > cfg["model"]["n"]:
            raise CliError(f"invalid model.{field} {cfg['model'][field]!r}; need at most "
                           f"model.n = {cfg['model']['n']}", DATA_ERROR)
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_artifact(path: Path, text: str) -> None:
    """Write one artifact and the directories above it; a path that cannot
    be written is a data error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", DATA_ERROR)


def write_manifest(out: Path, command: str, cfg: dict) -> None:
    doc = {"tool": "hodgecover", "version": __version__, "command": command,
           "config": cfg, "config_sha256": config_hash(cfg)}
    write_artifact(out / "manifest.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model(model_dir: str, ctx: int | None = None) -> list[MoeLayer]:
    """The layers under ``model_dir``, in file-name order.  Given ``ctx``,
    every layer must route that many contexts: the corpora sample below it."""
    files = sorted(Path(model_dir).glob("layer_*.json"))
    if not files:
        raise CliError(f"no layer_*.json files under {model_dir}", DATA_ERROR)
    layers = []
    for path in files:
        try:
            layers.append(MoeLayer.from_json(path.read_text()))
        except (*UNREADABLE, KeyError) as exc:
            raise CliError(f"malformed model file {path}: {exc}", DATA_ERROR)
        if ctx is not None and layers[-1].ctx != ctx:
            raise CliError(f"model file {path} has ctx {layers[-1].ctx}; need model.ctx = "
                           f"{ctx}", DATA_ERROR)
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


def allocate(cfg: dict, rate: float, analyses) -> tuple[int, ...]:
    sizes = [a.layer.n for a in analyses]
    if cfg["selector"]["allocator"] == "weighted":
        rho = [a.decomp.energy_harm for a in analyses]
        return allocate_weighted(rate, sizes, rho).survivors
    return allocate_uniform(rate, sizes).survivors


# ---------------------------------------------------------------------------
# commands

# what a command returns: its artifacts (path -> text) and the line to print.  No
# command writes; main writes once the command has returned, so a command that
# fails leaves no run directory.
Output = tuple[dict[Path, str], str]


def cmd_synth(cfg: dict, out: Path) -> Output:
    model_dir = out / "model"
    artifacts = {model_dir / f"layer_{idx:03d}.json": layer.to_json() + "\n"
                 for idx, layer in enumerate(model_layers(cfg))}
    return artifacts, f"wrote {cfg['model']['layers']} layer files under {model_dir}"


def cmd_barriers(cfg: dict, out: Path, analyses, corpus, heldout) -> Output:
    barrier_dir = out / "barriers"
    artifacts = {}
    for idx, analysis in enumerate(analyses):
        artifacts[barrier_dir / f"layer_{idx:03d}.json"] = analysis.table.to_json() + "\n"
        artifacts[barrier_dir / f"layer_{idx:03d}_pairwise.csv"] = analysis.table.pairwise_csv()
    return artifacts, f"wrote barrier tables for {len(analyses)} layers under {barrier_dir}"


def cmd_diagnose(cfg: dict, out: Path, analyses, corpus, heldout) -> Output:
    diags = diagnose_model(analyses)
    artifacts = {out / f"betti_curve_layer_{idx:03d}.csv": analysis.filtration.curve_csv()
                 for idx, analysis in enumerate(analyses)}
    artifacts[out / "diagnostics.csv"] = diagnostics_csv(diags)
    artifacts[out / "diagnostics_series.json"] = series_json(diags) + "\n"
    return artifacts, f"wrote diagnostics for {len(diags)} layers under {out}"


def _compress(cfg: dict, analyses, corpus, heldout, method: str, rate: float):
    layers = [a.layer for a in analyses]
    hybrid = cfg["wanda"]["hybrid"]
    r1 = float(cfg["wanda"]["r1"])
    ks = allocate(cfg, r1 if hybrid else rate, analyses)
    plans = compress_model(analyses, ks, method, selector_params(cfg),
                           seed=cfg["model"]["seed"])
    summary = {
        "method": method,
        "rate": rate,
        "allocator": cfg["selector"]["allocator"],
        "per_layer_k": list(ks),
        "per_layer_phi": [p.phi for p in plans],
        "hybrid": hybrid,
    }
    masks = None
    if hybrid:
        r2, masks = hybrid_prune(layers, corpus, plans, rate, r1)
        summary.update(r1=r1, r2=r2)
    summary["heldout_loss"] = model_loss(layers, heldout, plans, masks)
    return plans, summary, masks


def check_hybrid(cfg: dict, methods) -> None:
    """Refuse the hybrid recipe for a merge method before anything is written."""
    merging = [m for m in methods if m not in REDIRECT_METHODS]
    if cfg["wanda"]["hybrid"] and merging:
        raise CliError(f"hybrid stage 2 needs bit-exact survivors; {merging[0]!r} merges "
                       "expert groups instead", USAGE_ERROR)


def cmd_compress(cfg: dict, out: Path, analyses, corpus, heldout) -> Output:
    plans, summary, masks = _compress(cfg, analyses, corpus, heldout,
                                      cfg["selector"]["method"],
                                      float(cfg["selector"]["rate"]))
    artifacts = {out / "plans" / f"plan_layer_{idx:03d}.json": plan.to_json() + "\n"
                 for idx, plan in enumerate(plans)}
    for idx, mask in enumerate(masks or ()):
        artifacts[out / f"masks_layer_{idx:03d}.json"] = masks_to_json(mask) + "\n"
    text = json.dumps(summary, indent=2, sort_keys=True)
    artifacts[out / "summary.json"] = text + "\n"
    return artifacts, text


def cmd_ablate(cfg: dict, out: Path, analyses, corpus, heldout) -> Output:
    rate = float(cfg["selector"]["rate"])
    grid = {}
    retained = {}
    for method in METHODS:
        plans, grid[method], _ = _compress(cfg, analyses, corpus, heldout, method, rate)
        per_layer = [retained_mass(a.complex, a.decomp, a.table, plan.survivors)
                     for a, plan in zip(analyses, plans)]
        retained[method] = {key: float(np.mean([m[key] for m in per_layer]))
                            for key in ("harm", "grad", "curl", "triplet")}
    deviations = mechanism_table(retained)
    doc = {"rate": rate, "grid": grid, "retained_mass": retained,
           "deviation_from_hodgecover": deviations}
    lines = ["method,heldout_loss,ret_harm,ret_grad,ret_curl,ret_triplet"]
    for method in METHODS:
        r = retained[method]
        lines.append(f"{method},{grid[method]['heldout_loss']!r},"
                     f"{r['harm']!r},{r['grad']!r},{r['curl']!r},{r['triplet']!r}")
    artifacts = {out / "ablation_grid.json": json.dumps(doc, indent=2, sort_keys=True) + "\n",
                 out / "ablation_grid.csv": "\n".join(lines) + "\n"}
    return artifacts, f"wrote ablation grid over {len(METHODS)} methods at rate {rate} under {out}"


# the commands that analyse a model: each gets every layer's analysis and both corpora
MODEL_COMMANDS = {"barriers": cmd_barriers, "diagnose": cmd_diagnose,
                  "compress": cmd_compress, "ablate": cmd_ablate}


def cmd_verify(only: list[int] | None, out: Path | None) -> int:
    results = run_checks(only)
    for result in results:
        print(result.line())
    if out is not None:
        doc = [{"number": r.number, "name": r.name, "passed": r.passed,
                "detail": r.detail, "seconds": round(r.seconds, 3)} for r in results]
        write_artifact(out / "verify.json", json.dumps(doc, indent=2) + "\n")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else DATA_ERROR


def read_artifact(path: Path, parse):
    """``parse`` of one run-directory artifact's text; a file that cannot be
    read or parsed is a data error."""
    try:
        return parse(path.read_text())
    except UNREADABLE as exc:
        raise CliError(f"cannot read artifact {path}: {exc}", DATA_ERROR)


def cmd_report(run_dir: str) -> int:
    folder = Path(run_dir)
    if not folder.is_dir():
        raise CliError(f"run directory {run_dir} does not exist", DATA_ERROR)
    report: dict = {}
    for name in ("manifest.json", "summary.json", "ablation_grid.json", "verify.json"):
        path = folder / name
        if path.exists():
            report[name.removesuffix(".json")] = read_artifact(path, json.loads)
    diagnostics = folder / "diagnostics.csv"
    if diagnostics.exists():
        report["diagnostics_csv"] = read_artifact(
            diagnostics, lambda text: text.strip().split("\n"))
    if not report:
        raise CliError(f"no recognized artifacts under {run_dir}", DATA_ERROR)
    write_artifact(folder / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
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
    compress.add_argument("--hybrid", action="store_const", const=True,
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
                numbers = {str(number): number for number, _, _ in CHECKS}
                try:
                    only = [numbers[x.strip()] for x in args.only.split(",")]
                except KeyError:
                    raise CliError(f"bad --only list {args.only!r}: criteria are numbered "
                                   f"1-{len(CHECKS)}", USAGE_ERROR)
            return cmd_verify(only, Path(args.out) if args.out else None)
        if args.command == "report":
            return cmd_report(args.run_dir)

        cfg = load_config(args.config, args.overrides)
        # a flag overrides the config key of its name; a bad flag value is a usage error
        flags = {(section, field): getattr(args, field, None) for section, field in
                 (("selector", "method"), ("selector", "rate"), ("wanda", "hybrid"))}
        flags = {key: value for key, value in flags.items() if value is not None}
        for (section, field), value in flags.items():
            cfg[section][field] = value
        check_keys(cfg, flags, USAGE_ERROR)

        out = Path(args.out)
        if args.command == "synth":
            artifacts, message = cmd_synth(cfg, out)
        else:
            if args.command in ("compress", "ablate"):
                check_hybrid(cfg, [cfg["selector"]["method"]] if args.command == "compress"
                             else METHODS)
            layers = load_model(args.model_dir, cfg["model"]["ctx"])
            corpus, heldout = corpora(cfg)
            sel = cfg["selector"]
            analyses = [analyze_layer(layer, corpus, cap=sel["triangle_cap"],
                                      seed=sel["triangle_seed"]) for layer in layers]
            artifacts, message = MODEL_COMMANDS[args.command](cfg, out, analyses, corpus,
                                                              heldout)
        write_manifest(out, args.command, cfg)
        for path, text in artifacts.items():
            write_artifact(path, text)
        print(message)
        return 0
    except CliError as exc:
        print(f"hodgecover: error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, KeyError) as exc:
        print(f"hodgecover: invalid data: {exc}", file=sys.stderr)
        return DATA_ERROR
    except MemoryError as exc:  # a size too large to hold, such as corpus.size
        print(f"hodgecover: out of memory: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
