"""The ``esi`` command line: simulate | train | eval | localize.

Experiments are driven by a strict JSON config (unknown keys rejected).
Every command is deterministic under a fixed seed. Exit codes: 0 success,
2 validation, 3 data/IO, 4 numerical.
"""

import argparse
import json
import sys
from pathlib import Path

from . import model as fm
from . import metrics as mx
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    NumericalError,
    ParameterError,
)
from .geometry import (
    build_lead_field,
    build_synthetic_source_space,
    load_lead_field,
    load_source_space,
    save_lead_field,
    save_source_space,
)
from .nmm import SimulationConfig, generate_dataset, load_manifest
from .plotting import topography_svg
from .sloreta import DEFAULT_LAMBDA, sloreta_solver
from .tensorio import load_tensor, save_tensor

EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_GRID_CELL = {
    "type": "object",
    "additionalProperties": False,
    "required": ["snr_db", "n_sources", "extent"],
    "properties": {
        "snr_db": {"anyOf": [{"type": "number"}, {"const": "inf"}]},
        "n_sources": {"type": "integer", "minimum": 1},
        "extent": {"type": "integer", "minimum": 1},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["seed", "geometry", "simulation", "model", "training",
                 "evaluation", "paths"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_regions", "k_neighbors", "n_channels"],
            "properties": {
                "n_regions": {"type": "integer", "minimum": 8},
                "k_neighbors": {"type": "integer", "minimum": 1},
                "n_channels": {"type": "integer", "minimum": 2},
            },
        },
        "simulation": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_timepoints", "sample_rate", "grid",
                         "n_samples_per_cell"],
            "properties": {
                "n_timepoints": {"type": "integer", "minimum": 32},
                "sample_rate": {"type": "number", "minimum": 100},
                "preset": {"enum": ["alpha", "spike"]},
                "grid": {"type": "array", "minItems": 1, "items": _GRID_CELL},
                "n_samples_per_cell": {"type": "integer", "minimum": 1},
            },
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "patch_len": {"type": "integer", "minimum": 2},
                "overlap": {"type": "integer", "minimum": 0},
                "tau": {"type": "number", "exclusiveMinimum": 0},
                "alpha": {"type": "number", "minimum": 0, "maximum": 1},
                "n_blocks": {"type": "integer", "minimum": 1},
                "attention_dim": {"type": "integer", "minimum": 1},
                "mlp_hidden": {"type": "integer", "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 1},
                "lr": {"type": "number", "exclusiveMinimum": 0},
                "weight_decay": {"type": "number", "minimum": 0},
                "use_spectral": {"type": "boolean"},
                "use_temporal": {"type": "boolean"},
                "use_patch": {"type": "boolean"},
                "spectral_reweight": {"type": "boolean"},
            },
        },
        "training": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "epochs": {"type": "integer", "minimum": 1},
                "plateau_patience": {"type": "integer", "minimum": 1},
                "lr_floor": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "evaluation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sloreta_lambda": {"type": "number", "minimum": 0},
                "threshold": {"type": "number", "exclusiveMinimum": 0,
                              "maximum": 1},
            },
        },
        "paths": {
            "type": "object",
            "additionalProperties": False,
            "required": ["workdir"],
            "properties": {"workdir": {"type": "string"}},
        },
    },
}

# JSON types as jsonschema checks them, except that an integer must be an
# int: jsonschema's "integer" also takes 2.0, which then breaks a range() or
# a seed. A bool is neither an integer nor a number.
_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}

# The type each type-specific keyword applies to: jsonschema skips the
# keyword for a value of any other type.
_APPLIES_TO = {
    "required": "object", "additionalProperties": "object",
    "properties": "object", "items": "array", "minItems": "array",
    "minimum": "number", "maximum": "number", "exclusiveMinimum": "number",
}


def _schema_errors(value, schema, path=()):
    """Yield ``(path, keyword, message)`` for each rule of ``schema`` that
    ``value`` breaks, in jsonschema's order and words (4.26). Only the
    keywords ``CONFIG_SCHEMA`` uses are implemented."""
    for key, rule in schema.items():
        if key in _APPLIES_TO and not _IS_TYPE[_APPLIES_TO[key]](value):
            continue
        message = None
        if key == "type":
            if not _IS_TYPE[rule](value):
                message = f"{value!r} is not of type {rule!r}"
        elif key == "required":
            for name in rule:
                if name not in value:
                    yield path, key, f"{name!r} is a required property"
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            extras = sorted((name for name in value if name not in known),
                            key=str)
            if extras and not rule:
                message = (f"Additional properties are not allowed "
                           f"({', '.join(map(repr, extras))} "
                           f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif key == "properties":
            for name, sub in rule.items():
                if name in value:
                    yield from _schema_errors(value[name], sub, path + (name,))
        elif key == "items":
            for i, item in enumerate(value):
                yield from _schema_errors(item, rule, path + (i,))
        elif key == "minItems":
            if len(value) < rule:
                short = "should be non-empty" if rule == 1 else "is too short"
                message = f"{value!r} {short}"
        elif key == "minimum":
            if value < rule:
                message = f"{value!r} is less than the minimum of {rule!r}"
        elif key == "maximum":
            if value > rule:
                message = f"{value!r} is greater than the maximum of {rule!r}"
        elif key == "exclusiveMinimum":
            if value <= rule:
                message = (f"{value!r} is less than or equal to "
                           f"the minimum of {rule!r}")
        elif key == "enum":
            if value not in rule:
                message = f"{value!r} is not one of {rule!r}"
        elif key == "const":
            if value != rule:
                message = f"{rule!r} was expected"
        elif key == "anyOf":
            if all(next(_schema_errors(value, sub, path), None)
                   for sub in rule):
                message = (f"{value!r} is not valid under any "
                           f"of the given schemas")
        else:
            raise ValueError(f"schema keyword {key!r} is not implemented")
        if message is not None:
            yield path, key, message


def _config_error(doc):
    """The message of the error ``jsonschema.exceptions.best_match`` picks
    for ``doc`` against ``CONFIG_SCHEMA``, or None if ``doc`` is valid: the
    shallowest error, then the greatest path, then any keyword but anyOf;
    the first of equals wins. An anyOf error stands for itself, since its
    branches' errors tie in that ranking."""
    err = max(_schema_errors(doc, CONFIG_SCHEMA), default=None,
              key=lambda e: (-len(e[0]), e[0], e[1] != "anyOf"))
    if err is not None:
        return f"config invalid at {list(err[0])}: {err[2]}"


def _no_constant(name):
    raise ConfigError(f"config is not valid JSON: {name} is not a JSON number")


def load_config(path, seed_override=None):
    try:
        doc = json.loads(Path(path).read_text(), parse_constant=_no_constant)
    except FileNotFoundError as err:
        raise DataError(f"config not found: {path}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"config cannot be decoded: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    # before validation, so that the schema's seed rule sees the override
    if seed_override is not None and isinstance(doc, dict):
        doc["seed"] = seed_override
    message = _config_error(doc)
    if message:
        raise ConfigError(message)
    return doc


def _model_config(doc):
    geo, sim = doc["geometry"], doc["simulation"]
    return fm.FairConfig(n_channels=geo["n_channels"],
                         n_regions=geo["n_regions"],
                         n_timepoints=sim["n_timepoints"],
                         **doc["model"])


def _build_geometry(doc):
    geo = doc["geometry"]
    space = build_synthetic_source_space(geo["n_regions"], geo["k_neighbors"],
                                         seed=doc["seed"])
    lf = build_lead_field(space, geo["n_channels"], seed=doc["seed"] + 1)
    return space, lf


def _workdir(doc, out):
    return Path(out) if out else Path(doc["paths"]["workdir"])


def cmd_simulate(doc, out):
    out_dir = _workdir(doc, out)
    out_dir.mkdir(parents=True, exist_ok=True)
    space, lf = _build_geometry(doc)
    save_source_space(space, out_dir / "space.json")
    save_lead_field(lf, out_dir / "leadfield.esit")
    sim = doc["simulation"]
    grid = [SimulationConfig(
        snr_db=float(cell["snr_db"]), n_sources=cell["n_sources"],
        extent=cell["extent"], n_timepoints=sim["n_timepoints"],
        sample_rate=sim["sample_rate"], seed=0,
        preset=sim.get("preset", "alpha")) for cell in sim["grid"]]
    manifest = generate_dataset(space, lf, grid, sim["n_samples_per_cell"],
                                out_dir, seed_base=doc["seed"] * 100003)
    for i, cell in enumerate(sim["grid"]):
        print(f"cell {i} {cell}: {sim['n_samples_per_cell']} samples")
    print(f"manifest: {manifest}")
    return manifest


def cmd_train(doc, manifest_path, out, checkpoint=None):
    """Train from scratch, or continue from ``checkpoint``'s epoch, params
    and Adam state, appending to the loss log."""
    if checkpoint:
        params, cfg, epoch, adam_state = fm.load_checkpoint(checkpoint)
        resume = {"start_epoch": epoch or 0, "params": params,
                  "adam_state": adam_state}
    else:
        cfg, resume = _model_config(doc), {}
    entries = load_manifest(manifest_path)
    result = fm.train(entries, cfg, seed=doc["seed"],
                      out_dir=_workdir(doc, out), **resume, **doc["training"])
    resumed = f"resumed at epoch {epoch}; " if checkpoint else ""
    print(f"{resumed}best val loss: {result.best_val:.6e}")
    print(f"checkpoint: {result.checkpoint_dir}")
    print(f"log: {result.log_path}")
    return result


def _check_regions(path, n, space, space_path):
    if n != space.n_regions:
        raise FormatError(f"{path}: {n} regions, but {space_path} has {space.n_regions}")


def _load_fair(checkpoint, space, space_path):
    params, cfg, _ = fm.load_model(checkpoint)
    _check_regions(Path(checkpoint) / "model.json", cfg.n_regions, space, space_path)
    return params, cfg


def _solver(name, doc, space, space_path, lf, checkpoint):
    if name == "sloreta":
        return sloreta_solver(lf, doc["evaluation"].get("sloreta_lambda", DEFAULT_LAMBDA))
    if not checkpoint:
        raise ParameterError("fair solver needs --checkpoint")
    return fm.fair_solver(*_load_fair(checkpoint, space, space_path))


def cmd_eval(doc, manifest_path, out, solvers, checkpoint):
    out_dir = _workdir(doc, out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = Path(manifest_path)
    entries = load_manifest(manifest_path)
    space_path = manifest_path.parent / "space.json"
    lf_path = manifest_path.parent / "leadfield.esit"
    space, lf = load_source_space(space_path), load_lead_field(lf_path)
    _check_regions(lf_path, lf.matrix.shape[1], space, space_path)
    built = [_solver(name, doc, space, space_path, lf, checkpoint) for name in solvers]
    threshold = doc["evaluation"].get("threshold", mx.DEFAULT_THRESHOLD)
    reports = {name: [] for name in solvers}
    for sample, estimates in fm.solve_split(entries, built, space.n_regions):
        for name, s_hat in zip(solvers, estimates):
            reports[name].append(mx.evaluate(s_hat, sample, space, threshold))
    paths = [out_dir / f"eval_{name}.csv" for name in reports] + [out_dir / "eval_summary.json"]
    for path, solver_reports in zip(paths, reports.values()):
        mx.write_report_csv(solver_reports, path)
    summaries = {name: mx.aggregate(r) for name, r in reports.items()}
    mx.write_summary_json(summaries, paths[-1])
    for name, summary in summaries.items():
        le = summary["le_mm"]["mean"]
        print(f"{name}: precision {summary['precision']['mean']:.2f}% "
              f"recall {summary['recall']['mean']:.2f}% "
              f"LE {'n/a' if le is None else f'{le:.2f}'} mm "
              f"nMSE {summary['nmse']['mean']:.4f}")
    return paths


def cmd_localize(doc, checkpoint, fragment_path, out):
    out_dir = _workdir(doc, out)
    if not checkpoint:
        raise ParameterError("localize needs --checkpoint")
    out_dir.mkdir(parents=True, exist_ok=True)
    space_path = Path(doc["paths"]["workdir"]) / "space.json"
    space = load_source_space(space_path)
    params, cfg = _load_fair(checkpoint, space, space_path)
    fragment = load_tensor(fragment_path)
    fm.check_fragment(fragment, cfg)
    s_hat = fm.forward(fragment, params, cfg).data
    est_path = out_dir / "estimate.esit"
    save_tensor(s_hat, est_path)
    svg_path = out_dir / "estimate.svg"
    svg_path.write_text(topography_svg(space, s_hat))
    print(f"estimate: {est_path}")
    print(f"topography: {svg_path}")
    return est_path, svg_path


def build_parser():
    parser = argparse.ArgumentParser(
        prog="esi",
        description="Simulate paired source/scalp data, train the learned "
                    "solver, and evaluate against sLORETA.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "train", "eval", "localize"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name in ("train", "eval"):
            p.add_argument("--manifest", default=None)
        if name in ("train", "eval", "localize"):
            p.add_argument("--checkpoint", default=None)
        if name == "eval":
            p.add_argument("--solver", choices=["fair", "sloreta", "both"],
                           default="fair")
        if name == "localize":
            p.add_argument("--fragment", required=True)
    return parser


# Built once: building it costs about 0.65 ms a call.
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        doc = load_config(args.config, seed_override=args.seed)
        workdir = Path(doc["paths"]["workdir"])
        manifest = getattr(args, "manifest", None) or workdir / "manifest.json"
        if args.command == "simulate":
            cmd_simulate(doc, args.out)
        elif args.command == "train":
            cmd_train(doc, manifest, args.out, args.checkpoint)
        elif args.command == "eval":
            solvers = ["fair", "sloreta"] if args.solver == "both" else [args.solver]
            cmd_eval(doc, manifest, args.out, solvers, args.checkpoint)
        elif args.command == "localize":
            cmd_localize(doc, args.checkpoint, args.fragment, args.out)
    except (ConfigError, ParameterError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DataError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
