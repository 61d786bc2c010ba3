"""Command-line entry point: config loading, dispatch and artifact output.

Machine output goes to stdout as JSON under --json and is a pure function of
(config, seed); stderr carries error messages, the paths of written files and,
for `experiment`, the runtime.  Exit codes: 0 ok, 2 invalid config, 3 nothing
found / inconclusive, 4 resource or capability limit.
"""

import argparse
import copy
import functools
import json
import math
import os
import sys
from typing import NamedTuple

import jsonschema
import numpy as np

from .symbolic import (CapabilityError, DegenerateSampleError, FiniteTree,
                       InvalidInputError, ResourceLimitError)
from .branching import (Binomial, extinction_prob, labeled_seed,
                        mc_extinction_frequency, offspring_from_json,
                        sample_gw)
from .fixpoint import (GFunction, collection_from_json, g_k_a_curve,
                       smallest_fixed_point)
from .geometry import (MeasuredCloud, _csv_rows, _csv_text, ahlfors_ratio_check,
                       box_dimension, cloud_from_csv, cloud_to_csv, cloud_to_pgm,
                       diffuseness_constant, empirical_diffuse_check,
                       ifs_from_json, moran_exponent, percolation_ifs, render)
from .extraction import (NotFoundError, _attractor_cloud, general_pipeline,
                         percolation_pipeline)
from .experiments import EXPERIMENTS


class Opt(NamedTuple):
    """One option of a command: the flag `--name` (underscores as dashes) and
    the key `name` under the config's params."""
    name: str
    kind: object  # int, float, bool (a switch), a tuple of choices, [int] or
    #               [float] (a comma list), or the metavar of a text value
    default: object = None
    bound: str = None  # "> x" or ">= x"
    help: str = ""
    key: str = None  # the library keyword, where it differs from `name`
    flag: bool = True  # False: a params key with no flag


_PIXELS = Opt("pixels", int, 512, ">= 1", "raster side")
_SAMPLE = Opt("sample", bool, False, help="sample a tree at --depth, not the full grid")

# Each command's help and options; `experiment` has one option list per id.
COMMANDS = {
    "simulate": ("sample a tree and optionally render it", (
        Opt("depth", int, 4, ">= 1"), Opt("render", "OUT.pgm"),
        Opt("tree_out", "OUT.txt"), Opt("cloud_out", "OUT.csv"), _PIXELS)),
    "extinction": ("smallest fixed point of the offspring pgf", (
        Opt("trials", int, 0, ">= 0", "also run this many Monte-Carlo trials"),
        Opt("mc_depth", int, 30, ">= 0"))),
    "moran": ("similarity exponent of the expected construction", ()),
    "fixpoint": ("tau and s0 for a monotone collection", (
        Opt("strategy", ("auto", "closed_form", "enum", "mc"), "auto"),
        Opt("trials", int, 100_000, ">= 1"), Opt("tol", float, 1e-10, "> 0"))),
    "gk-curve": ("undershoot curve g_{k,a_k}(s)", (
        Opt("c", float), Opt("s", float, 0.5, ">= 0"), Opt("k_max", int, 6, ">= 1"),
        Opt("k", int, None, ">= 1", "single k (with --a or --c)"), Opt("a", int),
        Opt("trials", int, 100_000, ">= 1"))),
    "extract": ("run a pipeline and trim a regular witness subtree", (
        Opt("pipeline", ("block", "section")), Opt("c", float),
        Opt("k", int, None, ">= 2"), Opt("rho", float, None, "> 0"), Opt("alpha", float),
        Opt("levels", int, None, ">= 1"), Opt("depth", int, None, ">= 1"),
        Opt("scan_budget", int, None, ">= 1"), Opt("node_budget", int, None, ">= 1"),
        Opt("tree_out", "OUT.txt"), Opt("cloud_out", "OUT.csv"),
        Opt("measured_out", "OUT.csv"), Opt("measure_out", "OUT.csv"),
        Opt("render", "OUT.pgm"), _PIXELS)),
    "diffuse-cert": ("diffuseness constant of the one-step family", (
        Opt("directions", int, 2000, ">= 1"), Opt("points", int, 2000, ">= 1"))),
    "check-diffuse": ("sampled ball test against a flatness bound", (
        Opt("cloud", "IN.csv"), Opt("eps", float, 0.0, ">= 0"),
        Opt("beta", float, None, "> 0"), Opt("balls", int, 200, ">= 1"),
        Opt("scales", int, 3, ">= 1"), Opt("depth", int, None, ">= 0"))),
    "check-ahlfors": ("two-sided regularity ratios of a measured cloud", (
        Opt("measured", "IN.csv", help="x...,mass,radius rows, as extract --measured-out"),
        Opt("alpha", float, None, "> 0"), Opt("balls", int, 1000, ">= 1"),
        Opt("r_count", int, 6, ">= 1"), Opt("max_spread", float, None, "> 0"))),
    "boxdim": ("box-counting slope of a cloud", (
        Opt("cloud", "IN.csv"), Opt("eps", float, 0.0, ">= 0"), Opt("depth", int, None, ">= 0"),
        _SAMPLE,
        Opt("scales", [float], help="box sizes"), Opt("scale_count", int, 12, ">= 3"),
        Opt("anchor", ("min", "origin"), "min"))),
    "experiment": ("run a named validation suite", {
        "convergence-g-k": (
            Opt("c", float, None, "> 1"), Opt("s", float, None, ">= 0"),
            Opt("k_max", int, None, ">= 1", key="k_range"),
            Opt("trials", int, None, ">= 1"), Opt("conv_tol", float, flag=False)),
        "dimension-ladder": (
            Opt("c_seq", [int], key="c_sequence"), Opt("seeds", [int]), Opt("depth", int),
            Opt("pipeline", ("auto", "percolation", "general")), Opt("c_diffuse", float),
            Opt("dim_tol", float, flag=False)),
        "non-diffuseness": (
            Opt("budget", int, None, ">= 1", key="search_budget"), Opt("depth", int),
            Opt("control_depth", int), Opt("c_diffuse", float),
            Opt("beta_ladder", [float])),
    }),
    "render": ("raster or CSV of a cloud", (
        Opt("depth", int, None, ">= 0"), _SAMPLE, Opt("tree", "IN.txt"),
        Opt("out", "OUT.pgm", "render.pgm"), Opt("cloud_out", "OUT.csv"), _PIXELS)),
}

# Published contract for --config documents; flags override file values.
CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://example.invalid/gwfract/runconfig.schema.json",
    "title": "gwfract run configuration",
    "type": "object",
    "required": ["command"],
    "additionalProperties": False,
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "percolation": {
            "type": "object",
            "required": ["b", "d", "p"],
            "additionalProperties": False,
            "properties": {
                "b": {"type": "integer", "minimum": 2},
                "d": {"type": "integer", "minimum": 1},
                "p": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            },
        },
        "ifs": {"type": "object"},
        "offspring": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": ["binomial", "bernoulli", "table"]}},
        },
        "collection": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": ["ary", "generators",
                                             "diffuse_block"]}},
        },
        "seed": {"type": "integer"},
        "outdir": {"type": "string"},
        "json": {"type": "boolean"},
        "params": {"type": "object"},
    },
}


def config_schema():
    return copy.deepcopy(CONFIG_SCHEMA)


@functools.cache
def _config_validator():
    """CONFIG_SCHEMA's validator, its schema checked once per process."""
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


def _validate_config(cfg):
    """What jsonschema.validate raises: the best match of all errors."""
    error = jsonschema.exceptions.best_match(_config_validator().iter_errors(cfg))
    if error is not None:
        raise error


def _jsonify(obj):
    """Plain JSON types only; numpy scalars unwrapped, tuples become lists."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if hasattr(obj, "normal") and hasattr(obj, "offset"):  # hyperplane witness
        return {"normal": [float(x) for x in obj.normal],
                "offset": float(obj.offset)}
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _say(line):
    sys.stderr.write(line + "\n")


# ---------------------------------------------------------------------------
# shorthand parsing


def _cast(cast, val, what):
    """cast(val); a value that `cast` rejects is bad input."""
    try:
        return cast(val)
    except (TypeError, ValueError):
        raise InvalidInputError("bad %s value %r" % (what, val)) from None


def _load_json_file(path):
    with open(path) as fh:
        return json.load(fh)


def parse_percolation(text):
    """Shorthand 'b=3,d=2,p=0.6'."""
    out = {}
    for part in text.split(","):
        key, sep, val = part.partition("=")
        key = key.strip()
        if not sep or key not in ("b", "d", "p"):
            raise InvalidInputError("percolation shorthand wants b=,d=,p=")
        out[key] = _cast(float if key == "p" else int, val, "percolation")
    missing = [k for k in ("b", "d", "p") if k not in out]
    if missing:
        raise InvalidInputError("percolation shorthand missing %s"
                                % ",".join(missing))
    return out


def parse_offspring_spec(text):
    if text.startswith("bin:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidInputError("binomial shorthand is bin:N:p")
        return {"kind": "binomial", "n": _cast(int, parts[1], "offspring"),
                "p": _cast(float, parts[2], "offspring")}
    if text.startswith("bern:"):
        probs = [_cast(float, x, "offspring") for x in text[5:].split(",") if x.strip()]
        return {"kind": "bernoulli", "p": probs}
    if os.path.exists(text):
        return _load_json_file(text)
    raise InvalidInputError("offspring spec %r is neither shorthand nor a file"
                            % text)


def parse_collection_spec(text):
    if text.startswith("ary:"):
        return {"kind": "ary", "a": _cast(int, text[4:], "collection")}
    if text.startswith("diffuse-block:"):
        parts = text.split(":")[1:]
        if len(parts) not in (2, 3):
            raise InvalidInputError("shorthand is diffuse-block:b:k[:d]")
        nums = [_cast(int, x, "collection") for x in parts]
        return dict(zip(("kind", "b", "k", "d"), ["diffuse_block"] + nums))
    if os.path.exists(text):
        return _load_json_file(text)
    raise InvalidInputError("collection spec %r is neither shorthand nor a "
                            "file" % text)


# Model flags fill the config's top level; --collection is fixpoint's alone.
_MODEL_FLAGS = (
    ("percolation", parse_percolation, "b=3,d=2,p=0.6", "grid IFS plus binomial offspring"),
    ("ifs", _load_json_file, "PATH", "IFS JSON file"),
    ("offspring", parse_offspring_spec, "SPEC", "bin:N:p, bern:p0,p1,..., or a JSON file"),
    ("collection", parse_collection_spec, "SPEC", "ary:a, diffuse-block:b:k[:d], or a JSON file"))


# ---------------------------------------------------------------------------
# the option table read: parser, merged config and typed params


def _declared(command):
    """The options `command` declares, each name once (over every experiment)."""
    opts = COMMANDS[command][1]
    if isinstance(opts, dict):
        return {o.name: o for group in opts.values() for o in group}.values()
    return opts


def _dashed(o):
    return "--" + o.name.replace("_", "-")


@functools.cache
def _parser():
    """The argparse parser the table describes, built once per process."""
    ap = argparse.ArgumentParser(prog="gwfract", description="Galton-Watson fractal sampling, "
                                 "fixed-point solving and subset extraction.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    for command, (text, opts) in COMMANDS.items():
        sp = sub.add_parser(command, help=text, description=text)
        sp.add_argument("--config", help="JSON run config; flags override")
        sp.add_argument("--json", action="store_true", help="machine JSON on stdout")
        sp.add_argument("--seed", type=int, help="master seed (default 0)")
        sp.add_argument("--outdir", help="directory for artifact files")
        for name, _, metavar, help_text in _MODEL_FLAGS:
            if name != "collection" or command == "fixpoint":
                sp.add_argument("--" + name, metavar=metavar, help=help_text)
        if isinstance(opts, dict):
            sp.add_argument("id", choices=sorted(opts))
            sp.epilog = "; ".join("%s takes %s" % (i, ", ".join(_dashed(o) for o in g if o.flag))
                                  for i, g in opts.items())
        for o in filter(lambda o: o.flag, _declared(command)):
            shown = o.default is not None and o.kind is not bool
            notes = [x for x in (o.help, o.bound, shown and "default %s" % o.default) if x]
            if o.kind is bool:
                how = {"action": "store_true"}
            elif isinstance(o.kind, tuple):
                how = {"choices": o.kind}
            else:
                how = {"metavar": "A,B,..." if isinstance(o.kind, list) else
                       {int: "N", float: "X"}.get(o.kind, o.kind)}
            sp.add_argument(_dashed(o), help="; ".join(notes), **how)
    return ap


def merge_config(args):
    """Config file under the CLI flags; any flag present wins."""
    cfg = {}
    if args.config:
        cfg = _load_json_file(args.config)
        if not isinstance(cfg, dict):
            raise InvalidInputError("config root must be a JSON object")
    cfg["command"] = args.command
    ns = vars(args)
    for name, parse, _, _ in _MODEL_FLAGS:
        if ns.get(name):
            cfg[name] = parse(ns[name])
    params = dict(cfg.get("params", {}))
    flags = [(cfg, key) for key in ("seed", "outdir", "json")]
    flags += [(params, o.name) for o in _declared(args.command)] + [(params, "id")]
    for into, key in flags:
        # by identity: 0 == False, and an explicit --seed 0 must still win
        if ns.get(key) is not None and ns.get(key) is not False:
            into[key] = ns[key]
    if params:
        cfg["params"] = params
    return cfg


def _value(o, val):
    """`val` as option `o` reads it, within its bound; None is its default."""
    if val is None:
        return o.default
    if isinstance(o.kind, tuple):
        if val not in o.kind:
            raise InvalidInputError("bad %s value %r: want one of %s"
                                    % (o.name, val, ", ".join(o.kind)))
        return val
    if isinstance(o.kind, list):
        return [_cast(o.kind[0], x, o.name) for x in str(val).split(",")]
    val = _cast(str if isinstance(o.kind, str) else o.kind, val, o.name)
    if o.bound:
        op, low = o.bound.split()
        if not (val > float(low) if op == ">" else val >= float(low)):
            raise InvalidInputError("%s must be %s, got %r" % (o.name, o.bound, val))
    return val


def _params(cfg):
    """The command's params: every declared option read by `_value`, under its
    library keyword, plus the seed; a key the command (or the experiment) does
    not declare is bad input."""
    given = dict(cfg.get("params", {}))
    what = cfg["command"]
    opts = COMMANDS[what][1]
    out = {"seed": int(cfg.get("seed", 0))}
    if isinstance(opts, dict):
        out["id"] = given.pop("id")
        opts = opts[out["id"]]
        what = "experiment " + out["id"]
    extra = sorted(set(given) - {o.name for o in opts})
    if extra:
        raise InvalidInputError("%s takes no %s" % (what, ", ".join(extra)))
    for o in opts:
        out[o.key or o.name] = _value(o, given.get(o.name))
    return out


def resolve_model(cfg, need_ifs=True, need_offspring=True):
    """The percolation shorthand expands to the grid IFS plus a binomial law;
    explicit --ifs / --offspring documents override either half."""
    ifs = offspring = None
    perc = cfg.get("percolation")
    if perc:
        ifs = percolation_ifs(perc["b"], perc["d"])
        offspring = Binomial(perc["b"] ** perc["d"], perc["p"])
    if cfg.get("ifs") is not None:
        ifs = ifs_from_json(cfg["ifs"])
    if cfg.get("offspring") is not None:
        offspring = offspring_from_json(cfg["offspring"])
    if need_ifs and ifs is None:
        raise InvalidInputError("need --percolation or --ifs")
    if need_offspring and offspring is None:
        raise InvalidInputError("need --percolation or --offspring")
    return ifs, offspring


def _write(path, make):
    """Write the text or bytes `make()` returns to `path`, if one is given."""
    if path:
        data = make()
        with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        _say("wrote %s" % path)


def measured_to_csv(mc):
    return _csv_text(np.column_stack((mc.points, mc.masses, mc.cell_radii)))


def measured_from_csv(text):
    cells = _csv_rows(text, "measured")
    if not len(cells):
        raise InvalidInputError("measured CSV is empty")
    if cells.shape[1] < 4:
        raise InvalidInputError("measured CSV rows are x...,mass,radius")
    # contiguous columns: numpy sums a strided column buffer by buffer,
    # which can round differently
    return MeasuredCloud(cells[:, :-2].copy(), cells[:, -2].copy(), cells[:, -1].copy())


# ---------------------------------------------------------------------------
# handlers: each takes the config and its typed params, and returns
# (payload, human text, exit code)


def cmd_simulate(cfg, p):
    ifs, offspring = resolve_model(cfg)
    sample = sample_gw(offspring, p["depth"], p["seed"])
    cloud = render(ifs, tree=sample.tree)
    _write(p["render"], lambda: cloud_to_pgm(cloud, pixels=p["pixels"]))
    _write(p["tree_out"], sample.tree.to_text)
    _write(p["cloud_out"], lambda: cloud_to_csv(cloud))
    payload = {"command": "simulate", "depth": p["depth"], "seed": p["seed"],
               "level_sizes": sample.tree.level_sizes(),
               "extinct_at": sample.extinct_at,
               "points": int(len(cloud.points)), "eps": float(cloud.eps)}
    human = ("level sizes: %s\nleaf points: %d (eps %.3g)%s\n"
             % (sample.tree.level_sizes(), len(cloud.points), cloud.eps,
                "\nextinct at level %d" % sample.extinct_at
                if sample.extinct_at is not None else ""))
    return payload, human, 0


def cmd_extinction(cfg, p):
    _, offspring = resolve_model(cfg, need_ifs=False)
    q = extinction_prob(offspring)
    payload = {"command": "extinction", "q": q}
    human = "extinction probability q = %.12g\n" % q
    if p["trials"]:
        mc = mc_extinction_frequency(offspring, p["mc_depth"], p["trials"], p["seed"])
        payload["mc"] = mc
        human += ("frequency by depth %d: %.6g +- %.2g (%d trials)\n"
                  % (mc["depth"], mc["frequency"], mc["se"], mc["trials"]))
    return payload, human, 0


def cmd_moran(cfg, p):
    ifs, offspring = resolve_model(cfg)
    delta = moran_exponent(offspring, ifs.weights)
    return {"command": "moran", "delta": delta}, "moran exponent = %.9f\n" % delta, 0


def cmd_fixpoint(cfg, p):
    _, offspring = resolve_model(cfg, need_ifs=False)
    if cfg.get("collection") is None:
        raise InvalidInputError("need --collection")
    gf = GFunction(offspring, collection_from_json(cfg["collection"]),
                   strategy=p["strategy"], sample_size=p["trials"], seed=p["seed"])
    res = smallest_fixed_point(gf, tol=p["tol"])
    payload = {"command": "fixpoint", "strategy": gf.strategy}
    payload.update({k: v for k, v in res.items() if k != "iterates"})
    payload["iterates_head"] = res["iterates"][:8]
    human = ("tau = %.10g\ns0 = %.10g in [%.10g, %.10g]\nstrategy %s, converged %s, "
             "%d evaluations\n" % (res["tau"], res["s0"], *res["interval"], gf.strategy,
                                   res["converged"], res["iterations"]))
    human += "first iterates: %s\n" % ", ".join("%.6g" % v for v in res["iterates"][:6])
    if res["ci"]:
        human += "sampling interval: [%.6g, %.6g]\n" % tuple(res["ci"])
    return payload, human, 0


def cmd_gk_curve(cfg, p):
    _, offspring = resolve_model(cfg, need_ifs=False)
    c, a = p["c"], p["a"]
    if p["k"] is not None:
        if a is None and c is None:
            raise InvalidInputError("single-point mode wants --a or --c")
        points = [(p["k"], math.ceil(c ** p["k"]) if a is None else a)]
    else:
        if c is None:
            raise InvalidInputError("need --c (or --k with --a)")
        points = [(k, math.ceil(c ** k)) for k in range(1, p["k_max"] + 1)]
    rows = [g_k_a_curve(offspring, k, a_k, p["s"], trials=p["trials"],
                        seed=labeled_seed(p["seed"], "gk%d" % k)) for k, a_k in points]
    payload = {"command": "gk-curve", "s": p["s"], "curve": rows}
    lines = ["k=%d a_k=%d  g=%.9g  (%s%s)"
             % (r["k"], r["a_k"], r["value"], r["method"],
                ", flagged" if r.get("flagged") else "") for r in rows]
    if cfg.get("outdir"):
        os.makedirs(cfg["outdir"], exist_ok=True)
        csv = ["k,a_k,value,se,method"] + ["%d,%d,%r,%r,%s" % (
            r["k"], r["a_k"], r["value"], r.get("se", 0.0), r["method"]) for r in rows]
        _write(os.path.join(cfg["outdir"], "gk_curve.csv"), lambda: "\n".join(csv) + "\n")
    return payload, "\n".join(lines) + "\n", 0


def cmd_extract(cfg, p):
    kwargs = {k: p[k] for k in ("depth", "scan_budget", "node_budget") if p[k] is not None}
    if p["pipeline"] == "block":
        perc = cfg.get("percolation")
        if not perc:
            raise InvalidInputError("block pipeline wants --percolation")
        if p["c"] is None or p["k"] is None:
            raise InvalidInputError("block pipeline wants --c and --k")
        if p["levels"] is not None:
            raise InvalidInputError("block pipeline takes --depth, not --levels")
        es = percolation_pipeline(perc["b"], perc["d"], perc["p"], c=p["c"], k=p["k"],
                                  seed=p["seed"], **kwargs)
    elif p["pipeline"] == "section":
        ifs, offspring = resolve_model(cfg)
        if None in (p["rho"], p["alpha"], p["c"]):
            raise InvalidInputError("section pipeline wants --rho, --alpha and --c")
        es = general_pipeline(ifs, offspring, rho=p["rho"], alpha=p["alpha"], c=p["c"],
                              seed=p["seed"], n_levels=p["levels"], **kwargs)
    else:
        raise InvalidInputError("need --pipeline block or section")
    _write(p["tree_out"], es.tree_text)
    _write(p["cloud_out"], lambda: cloud_to_csv(es.cloud()))
    _write(p["measured_out"], lambda: measured_to_csv(es.measured_cloud()))
    _write(p["measure_out"], es.measure_csv)
    _write(p["render"], lambda: cloud_to_pgm(es.cloud(), pixels=p["pixels"]))
    payload = {"command": "extract"}
    payload.update(es.to_json())
    pred = es.stats.get("predicted")
    human = ("%s pipeline: witness at root %r\n"
             "arity %d, levels %d, alpha %.6g, beta %.6g, %d leaves\n"
             % (es.pipeline, es.root_word.text, es.arity, es.levels(),
                es.alpha, es.beta, payload["leaf_count"]))
    if pred:
        human += ("predicted per-vertex presence %.3g (witness root at depth "
                  "%d)\n" % (pred["tau"], len(es.root_word)))
    return payload, human, 0


def cmd_diffuse_cert(cfg, p):
    ifs, _ = resolve_model(cfg, need_offspring=False)
    res = diffuseness_constant(ifs.maps, _attractor_cloud(ifs, target=p["points"]),
                               directions=p["directions"])
    payload = {"command": "diffuse-cert", "c_low": res.c_low,
               "raw_min": res.raw_min, "tol": res.tol, "note": res.note,
               "witness": res.witness}
    human = "one-step diffuseness constant c_low = %.6g\n" % res.c_low
    if res.note:
        human += res.note + "\n"
    return payload, human, 0


def _cloud_from_cfg(cfg, p):
    """The cloud a command reads: a CSV (--cloud), the render of a tree file
    (--tree), or the render at --depth of a sampled tree (--sample) or of the
    full grid."""
    if p.get("cloud"):
        with open(p["cloud"]) as fh:
            return cloud_from_csv(fh.read(), eps=p["eps"])
    ifs, offspring = resolve_model(cfg, need_offspring=False)
    if p.get("tree"):
        with open(p["tree"]) as fh:
            return render(ifs, tree=FiniteTree.from_text(fh.read()))
    if p["depth"] is None:
        raise InvalidInputError("need %s or a model with --depth"
                                % ("--tree" if "tree" in p else "--cloud"))
    if p.get("sample"):
        if offspring is None:
            raise InvalidInputError("--sample wants an offspring law")
        return render(ifs, tree=sample_gw(offspring, p["depth"], p["seed"]).tree)
    return render(ifs, depth=p["depth"])


def cmd_check_diffuse(cfg, p):
    if p["beta"] is None:
        raise InvalidInputError("need --beta")
    cloud = _cloud_from_cfg(cfg, p)
    res = empirical_diffuse_check(cloud, p["beta"], scale_count=p["scales"],
                                  sample_count=p["balls"], seed=p["seed"])
    payload = {"command": "check-diffuse"}
    payload.update(res)
    human = ("%s: worst ratio %.6g over %d balls at beta %.3g\n"
             % ("pass" if res["pass"] else "FAIL", res["worst_ratio"], res["tested"],
                p["beta"]))
    return payload, human, 0 if res["pass"] else 3


def cmd_check_ahlfors(cfg, p):
    if not p["measured"]:
        raise InvalidInputError("need --measured CSV (x...,mass,radius)")
    if p["alpha"] is None:
        raise InvalidInputError("need --alpha")
    with open(p["measured"]) as fh:
        mc = measured_from_csv(fh.read())
    res = ahlfors_ratio_check(mc, p["alpha"], sample_count=p["balls"], seed=p["seed"],
                              r_count=p["r_count"])
    payload = {"command": "check-ahlfors", "alpha": p["alpha"],
               "c1_hat": res.c1_hat, "c2_hat": res.c2_hat,
               "spread": res.spread, "samples": len(res.samples)}
    human = ("c1_hat %.6g, c2_hat %.6g, spread %.6g over %d sampled balls\n"
             % (res.c1_hat, res.c2_hat, res.spread, len(res.samples)))
    exceeds = p["max_spread"] is not None and res.spread > p["max_spread"]
    if exceeds:
        human += "spread exceeds %.3g\n" % p["max_spread"]
    return payload, human, 3 if exceeds else 0


def cmd_boxdim(cfg, p):
    cloud = _cloud_from_cfg(cfg, p)
    dim, table = box_dimension(cloud, scale_count=p["scale_count"], scales=p["scales"],
                               anchor=p["anchor"])
    payload = {"command": "boxdim", "dim": dim,
               "table": [[float(s), int(c)] for s, c in table]}
    human = "box dimension slope = %.6g over %d scales\n" % (dim, len(table))
    return payload, human, 0


def cmd_experiment(cfg, p):
    perc = cfg.get("percolation")
    if not perc:
        raise InvalidInputError("experiments want --percolation b=,d=,p=")
    exp_id = p.pop("id")
    if exp_id == "convergence-g-k" and p["c"] is None:
        raise InvalidInputError("convergence-g-k wants --c")
    if exp_id == "dimension-ladder":
        del p["seed"]
    if p.get("k_range") is not None:
        p["k_range"] = tuple(range(1, p["k_range"] + 1))
    rep = EXPERIMENTS[exp_id](perc["b"], perc["d"], perc["p"],
                              **{k: v for k, v in p.items() if v is not None})
    if cfg.get("outdir"):
        path = rep.save(cfg["outdir"])
        _say("report saved to %s" % path)
    _say("runtime: %.1fs" % rep.runtime)
    payload = rep.payload()
    lines = ["experiment %s: %s" % (rep.experiment, rep.verdict)]
    for e in rep.estimates:
        lines.append("  %-28s %.6g  ci [%.6g, %.6g]  n=%d"
                     % (e["name"], e["value"], e["ci"][0], e["ci"][1], e["n"]))
    lines.extend("  note: " + n for n in rep.notes)
    return payload, "\n".join(lines) + "\n", 3 if rep.verdict == "inconclusive" else 0


def cmd_render(cfg, p):
    cloud = _cloud_from_cfg(cfg, p)
    _write(p["out"], lambda: cloud_to_pgm(cloud, pixels=p["pixels"]))
    _write(p["cloud_out"], lambda: cloud_to_csv(cloud))
    payload = {"command": "render", "points": int(len(cloud.points)),
               "eps": float(cloud.eps), "out": p["out"]}
    return payload, "%d points -> %s\n" % (len(cloud.points), p["out"]), 0


HANDLERS = {name: globals()["cmd_" + name.replace("-", "_")] for name in COMMANDS}


def _emit_error(as_json, kind, exc, extra=None):
    _say("error: %s" % exc)
    if as_json:
        doc = {"error": kind, "message": str(exc)}
        if extra:
            doc.update(extra)
        sys.stdout.write(json.dumps(_jsonify(doc), indent=2, sort_keys=True)
                         + "\n")


def main(argv=None):
    args = _parser().parse_args(argv)
    as_json = bool(args.json)
    try:
        cfg = merge_config(args)
        _validate_config(cfg)
        as_json = bool(cfg.get("json", False))
        payload, human, code = HANDLERS[cfg["command"]](cfg, _params(cfg))
    except (InvalidInputError, jsonschema.ValidationError, json.JSONDecodeError,
            FileNotFoundError) as e:
        _emit_error(as_json, "invalid-config", getattr(e, "message", None) or e)
        return 2
    except (NotFoundError, DegenerateSampleError) as e:
        _emit_error(as_json, "not-found", e,
                    {"stats": e.stats} if isinstance(e, NotFoundError) else None)
        return 3
    except (ResourceLimitError, CapabilityError) as e:
        _emit_error(as_json, "resource-limit", e)
        return 4
    if as_json:
        sys.stdout.write(json.dumps(_jsonify(payload), indent=2,
                                    sort_keys=True, allow_nan=False) + "\n")
    else:
        sys.stdout.write(human)
    return code


if __name__ == "__main__":
    sys.exit(main())
