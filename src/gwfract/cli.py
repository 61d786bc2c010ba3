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


COMMANDS = ("simulate", "extinction", "moran", "fixpoint", "gk-curve",
            "extract", "diffuse-cert", "check-diffuse", "check-ahlfors",
            "boxdim", "experiment", "render")

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
        "threads": {"type": "integer", "minimum": 1},
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


def _split(cast, text, what):
    """The comma list `text`, each item cast."""
    return [_cast(cast, x, what) for x in str(text).split(",")]


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
        with open(text) as fh:
            return json.load(fh)
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
        with open(text) as fh:
            return json.load(fh)
    raise InvalidInputError("collection spec %r is neither shorthand nor a "
                            "file" % text)


def _load_json_file(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# parser


def build_parser():
    ap = argparse.ArgumentParser(
        prog="gwfract",
        description="Galton-Watson fractal sampling, fixed-point solving and "
                    "subset extraction.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON run config; flags override")
        sp.add_argument("--json", action="store_true",
                        help="machine JSON on stdout")
        sp.add_argument("--seed", type=int, help="master seed (default 0)")
        sp.add_argument("--threads", type=int,
                        help="has no effect: gwfract runs on one thread")
        sp.add_argument("--percolation", metavar="b=3,d=2,p=0.6",
                        help="grid IFS plus binomial offspring shorthand")
        sp.add_argument("--ifs", metavar="PATH", help="IFS JSON file")
        sp.add_argument("--offspring", metavar="SPEC",
                        help="bin:N:p, bern:p0,p1,..., or a JSON file")
        sp.add_argument("--outdir", help="directory for artifact files")
        return sp

    sp = add("simulate", "sample a tree and optionally render it")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--render", metavar="OUT.pgm")
    sp.add_argument("--tree-out", metavar="OUT.txt")
    sp.add_argument("--cloud-out", metavar="OUT.csv")
    sp.add_argument("--pixels", type=int)

    sp = add("extinction", "smallest fixed point of the offspring pgf")
    sp.add_argument("--trials", type=int,
                    help="also run a Monte-Carlo frequency with this many trials")
    sp.add_argument("--mc-depth", type=int)

    add("moran", "similarity exponent of the expected construction")

    sp = add("fixpoint", "tau and s0 for a monotone collection")
    sp.add_argument("--collection", metavar="SPEC",
                    help="ary:a, diffuse-block:b:k[:d], or a JSON file")
    sp.add_argument("--strategy",
                    choices=["auto", "closed_form", "enum", "mc"])
    sp.add_argument("--trials", type=int)
    sp.add_argument("--tol", type=float)

    sp = add("gk-curve", "undershoot curve g_{k,a_k}(s)")
    sp.add_argument("--c", type=float)
    sp.add_argument("--s", type=float)
    sp.add_argument("--k-max", type=int)
    sp.add_argument("--k", type=int, help="single k (with --a)")
    sp.add_argument("--a", type=int)
    sp.add_argument("--trials", type=int)

    sp = add("extract", "run a pipeline and trim a regular witness subtree")
    sp.add_argument("--pipeline", choices=["block", "section"])
    sp.add_argument("--c", type=float)
    sp.add_argument("--k", type=int)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--levels", type=int)
    sp.add_argument("--depth", type=int)
    sp.add_argument("--scan-budget", type=int)
    sp.add_argument("--node-budget", type=int)
    sp.add_argument("--tree-out", metavar="OUT.txt")
    sp.add_argument("--cloud-out", metavar="OUT.csv")
    sp.add_argument("--measured-out", metavar="OUT.csv")
    sp.add_argument("--measure-out", metavar="OUT.csv")
    sp.add_argument("--render", metavar="OUT.pgm")
    sp.add_argument("--pixels", type=int)

    sp = add("diffuse-cert", "diffuseness constant of the one-step family")
    sp.add_argument("--directions", type=int)
    sp.add_argument("--points", type=int)

    sp = add("check-diffuse", "sampled ball test against a flatness bound")
    sp.add_argument("--cloud", metavar="IN.csv")
    sp.add_argument("--eps", type=float)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--balls", type=int)
    sp.add_argument("--scales", type=int)
    sp.add_argument("--depth", type=int)

    sp = add("check-ahlfors", "two-sided regularity ratios of a measured cloud")
    sp.add_argument("--measured", metavar="IN.csv",
                    help="columns x...,mass,radius (see extract --measured-out)")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--balls", type=int)
    sp.add_argument("--r-count", type=int)
    sp.add_argument("--max-spread", type=float)

    sp = add("boxdim", "box-counting slope of a cloud")
    sp.add_argument("--cloud", metavar="IN.csv")
    sp.add_argument("--eps", type=float)
    sp.add_argument("--depth", type=int)
    sp.add_argument("--sample", action="store_true",
                    help="sample a tree at --depth instead of the full grid")
    sp.add_argument("--scales", help="comma list of box sizes")
    sp.add_argument("--scale-count", type=int)
    sp.add_argument("--anchor", choices=["min", "origin"])

    sp = add("experiment", "run a named validation suite")
    sp.add_argument("id", choices=sorted(EXPERIMENTS))
    sp.add_argument("--c", type=float)
    sp.add_argument("--s", type=float)
    sp.add_argument("--k-max", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--c-seq", metavar="2,3,4")
    sp.add_argument("--seeds", metavar="0,1,2,3")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--pipeline", choices=["auto", "percolation", "general"])
    sp.add_argument("--c-diffuse", type=float)
    sp.add_argument("--beta-ladder", metavar="0.1,0.03,0.01")
    sp.add_argument("--budget", type=int)
    sp.add_argument("--control-depth", type=int)

    sp = add("render", "raster or CSV of a cloud")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--sample", action="store_true")
    sp.add_argument("--tree", metavar="IN.txt")
    sp.add_argument("--out", metavar="OUT.pgm")
    sp.add_argument("--cloud-out", metavar="OUT.csv")
    sp.add_argument("--pixels", type=int)

    return ap


_TOP_KEYS = ("seed", "threads", "outdir", "json")


def merge_config(args):
    """Config file under the CLI flags; any flag present wins."""
    cfg = {}
    if args.config:
        cfg = _load_json_file(args.config)
        if not isinstance(cfg, dict):
            raise InvalidInputError("config root must be a JSON object")
    cfg["command"] = args.command
    ns = vars(args)
    if ns.get("percolation"):
        cfg["percolation"] = parse_percolation(ns["percolation"])
    if ns.get("ifs"):
        cfg["ifs"] = _load_json_file(ns["ifs"])
    if ns.get("offspring"):
        cfg["offspring"] = parse_offspring_spec(ns["offspring"])
    if ns.get("collection"):
        cfg["collection"] = parse_collection_spec(ns["collection"])
    for key in _TOP_KEYS:
        # by identity: 0 == False, and an explicit --seed 0 must still win
        if ns.get(key) is not None and ns.get(key) is not False:
            cfg[key] = ns[key]
    params = dict(cfg.get("params", {}))
    skip = set(_TOP_KEYS) | {"command", "config", "percolation", "ifs",
                             "offspring", "collection"}
    for key, val in ns.items():
        if key in skip or val is None or val is False:
            continue
        params[key] = val
    if params:
        cfg["params"] = params
    return cfg


def resolve_model(cfg, need_ifs=True, need_offspring=True):
    """The percolation shorthand expands to the grid IFS plus a binomial law;
    explicit --ifs / --offspring documents override either half."""
    ifs = None
    offspring = None
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


def _p(cfg, key, default=None, cast=None):
    """params[key], or `default`; passed through `cast` when one is given."""
    val = cfg.get("params", {}).get(key, default)
    return val if cast is None or val is None else _cast(cast, val, key)


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    _say("wrote %s" % path)


def _write_bytes(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)
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
# handlers: each returns (payload, human text, exit code)


def cmd_simulate(cfg):
    ifs, offspring = resolve_model(cfg)
    depth = _p(cfg, "depth", 4, int)
    seed = int(cfg.get("seed", 0))
    sample = sample_gw(offspring, depth, seed)
    cloud = render(ifs, tree=sample.tree)
    if _p(cfg, "render"):
        _write_bytes(_p(cfg, "render"),
                     cloud_to_pgm(cloud, pixels=_p(cfg, "pixels", 512, int)))
    if _p(cfg, "tree_out"):
        _write_text(_p(cfg, "tree_out"), sample.tree.to_text())
    if _p(cfg, "cloud_out"):
        _write_text(_p(cfg, "cloud_out"), cloud_to_csv(cloud))
    payload = {"command": "simulate", "depth": depth, "seed": seed,
               "level_sizes": sample.tree.level_sizes(),
               "extinct_at": sample.extinct_at,
               "points": int(len(cloud.points)), "eps": float(cloud.eps)}
    human = ("level sizes: %s\nleaf points: %d (eps %.3g)%s\n"
             % (sample.tree.level_sizes(), len(cloud.points), cloud.eps,
                "\nextinct at level %d" % sample.extinct_at
                if sample.extinct_at is not None else ""))
    return payload, human, 0


def cmd_extinction(cfg):
    _, offspring = resolve_model(cfg, need_ifs=False)
    q = extinction_prob(offspring)
    payload = {"command": "extinction", "q": q}
    human = "extinction probability q = %.12g\n" % q
    trials = _p(cfg, "trials", cast=int)
    if trials:
        mc = mc_extinction_frequency(offspring, _p(cfg, "mc_depth", 30, int),
                                     trials, int(cfg.get("seed", 0)))
        payload["mc"] = mc
        human += ("frequency by depth %d: %.6g +- %.2g (%d trials)\n"
                  % (mc["depth"], mc["frequency"], mc["se"], mc["trials"]))
    return payload, human, 0


def cmd_moran(cfg):
    ifs, offspring = resolve_model(cfg)
    delta = moran_exponent(offspring, ifs.weights)
    payload = {"command": "moran", "delta": delta}
    return payload, "moran exponent = %.9f\n" % delta, 0


def cmd_fixpoint(cfg):
    _, offspring = resolve_model(cfg, need_ifs=False)
    if cfg.get("collection") is None:
        raise InvalidInputError("need --collection")
    coll = collection_from_json(cfg["collection"])
    gf = GFunction(offspring, coll,
                   strategy=_p(cfg, "strategy", "auto"),
                   sample_size=_p(cfg, "trials", 100_000, int),
                   seed=int(cfg.get("seed", 0)))
    tol = _p(cfg, "tol", cast=float)
    res = smallest_fixed_point(gf, **({"tol": tol} if tol else {}))
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


def cmd_gk_curve(cfg):
    _, offspring = resolve_model(cfg, need_ifs=False)
    s = _p(cfg, "s", 0.5, float)
    trials = _p(cfg, "trials", 100_000, int)
    seed = int(cfg.get("seed", 0))
    rows = []
    if _p(cfg, "k") is not None:
        k = _p(cfg, "k", cast=int)
        a = _p(cfg, "a", cast=int)
        if a is None:
            c = _p(cfg, "c", cast=float)
            if c is None:
                raise InvalidInputError("single-point mode wants --a or --c")
            a = math.ceil(c ** k)
        rows.append(g_k_a_curve(offspring, k, a, s, trials=trials,
                                seed=labeled_seed(seed, "gk%d" % k)))
    else:
        c = _p(cfg, "c", cast=float)
        if c is None:
            raise InvalidInputError("need --c (or --k with --a)")
        k_max = _p(cfg, "k_max", 6, int)
        if k_max < 1:
            raise InvalidInputError("--k-max must be >= 1")
        for k in range(1, k_max + 1):
            rows.append(g_k_a_curve(offspring, k, math.ceil(c ** k), s,
                                    trials=trials,
                                    seed=labeled_seed(seed, "gk%d" % k)))
    payload = {"command": "gk-curve", "s": s, "curve": rows}
    lines = ["k=%d a_k=%d  g=%.9g  (%s%s)"
             % (r["k"], r["a_k"], r["value"], r["method"],
                ", flagged" if r.get("flagged") else "") for r in rows]
    if cfg.get("outdir"):
        os.makedirs(cfg["outdir"], exist_ok=True)
        csv = ["k,a_k,value,se,method"]
        csv += ["%d,%d,%r,%r,%s" % (r["k"], r["a_k"], r["value"],
                                    r.get("se", 0.0), r["method"])
                for r in rows]
        _write_text(os.path.join(cfg["outdir"], "gk_curve.csv"),
                    "\n".join(csv) + "\n")
    return payload, "\n".join(lines) + "\n", 0


def cmd_extract(cfg):
    seed = int(cfg.get("seed", 0))
    pipeline = _p(cfg, "pipeline")
    kwargs = {}
    for key in ("depth", "scan_budget", "node_budget"):
        if _p(cfg, key) is not None:
            kwargs[key] = _p(cfg, key, cast=int)
    if pipeline == "block":
        perc = cfg.get("percolation")
        if not perc:
            raise InvalidInputError("block pipeline wants --percolation")
        for key in ("c", "k"):
            if _p(cfg, key) is None:
                raise InvalidInputError("block pipeline wants --c and --k")
        if _p(cfg, "levels") is not None:
            raise InvalidInputError("block pipeline takes --depth, not --levels")
        es = percolation_pipeline(perc["b"], perc["d"], perc["p"],
                                  c=_p(cfg, "c", cast=float), k=_p(cfg, "k", cast=int),
                                  seed=seed, **kwargs)
    elif pipeline == "section":
        ifs, offspring = resolve_model(cfg)
        for key in ("rho", "alpha", "c"):
            if _p(cfg, key) is None:
                raise InvalidInputError(
                    "section pipeline wants --rho, --alpha and --c")
        if _p(cfg, "levels") is not None:
            kwargs["n_levels"] = _p(cfg, "levels", cast=int)
        es = general_pipeline(ifs, offspring, rho=_p(cfg, "rho", cast=float),
                              alpha=_p(cfg, "alpha", cast=float),
                              c=_p(cfg, "c", cast=float), seed=seed, **kwargs)
    else:
        raise InvalidInputError("need --pipeline block or section")
    if _p(cfg, "tree_out"):
        _write_text(_p(cfg, "tree_out"), es.tree_text())
    if _p(cfg, "cloud_out"):
        _write_text(_p(cfg, "cloud_out"), cloud_to_csv(es.cloud()))
    if _p(cfg, "measured_out"):
        _write_text(_p(cfg, "measured_out"), measured_to_csv(es.measured_cloud()))
    if _p(cfg, "measure_out"):
        _write_text(_p(cfg, "measure_out"), es.measure_csv())
    if _p(cfg, "render"):
        _write_bytes(_p(cfg, "render"),
                     cloud_to_pgm(es.cloud(), pixels=_p(cfg, "pixels", 512, int)))
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


def cmd_diffuse_cert(cfg):
    ifs, _ = resolve_model(cfg, need_offspring=False)
    F = _attractor_cloud(ifs, target=_p(cfg, "points", 2000, int))
    res = diffuseness_constant(ifs.maps, F,
                               directions=_p(cfg, "directions", 2000, int))
    payload = {"command": "diffuse-cert", "c_low": res.c_low,
               "raw_min": res.raw_min, "tol": res.tol, "note": res.note,
               "witness": res.witness}
    human = "one-step diffuseness constant c_low = %.6g\n" % res.c_low
    if res.note:
        human += res.note + "\n"
    return payload, human, 0


def _cloud_from_cfg(cfg, allow_sample=False):
    if _p(cfg, "cloud"):
        with open(_p(cfg, "cloud")) as fh:
            return cloud_from_csv(fh.read(), eps=_p(cfg, "eps", 0.0, float))
    ifs, offspring = resolve_model(cfg, need_offspring=False)
    depth = _p(cfg, "depth", cast=int)
    if depth is None:
        raise InvalidInputError("need --cloud or a model with --depth")
    if allow_sample and _p(cfg, "sample"):
        if offspring is None:
            raise InvalidInputError("--sample wants an offspring law")
        tree = sample_gw(offspring, depth, int(cfg.get("seed", 0))).tree
        return render(ifs, tree=tree)
    return render(ifs, depth=depth)


def cmd_check_diffuse(cfg):
    beta = _p(cfg, "beta", cast=float)
    if beta is None:
        raise InvalidInputError("need --beta")
    cloud = _cloud_from_cfg(cfg)
    res = empirical_diffuse_check(cloud, beta,
                                  scale_count=_p(cfg, "scales", 3, int),
                                  sample_count=_p(cfg, "balls", 200, int),
                                  seed=int(cfg.get("seed", 0)))
    payload = {"command": "check-diffuse"}
    payload.update(res)
    human = ("%s: worst ratio %.6g over %d balls at beta %.3g\n"
             % ("pass" if res["pass"] else "FAIL", res["worst_ratio"], res["tested"],
                beta))
    return payload, human, 0 if res["pass"] else 3


def cmd_check_ahlfors(cfg):
    if not _p(cfg, "measured"):
        raise InvalidInputError("need --measured CSV (x...,mass,radius)")
    alpha = _p(cfg, "alpha", cast=float)
    if alpha is None:
        raise InvalidInputError("need --alpha")
    cap = _p(cfg, "max_spread", cast=float)
    if cap is not None and not cap > 0:
        raise InvalidInputError("--max-spread must be positive")
    with open(_p(cfg, "measured")) as fh:
        mc = measured_from_csv(fh.read())
    res = ahlfors_ratio_check(mc, alpha,
                              sample_count=_p(cfg, "balls", 1000, int),
                              seed=int(cfg.get("seed", 0)),
                              r_count=_p(cfg, "r_count", 6, int))
    payload = {"command": "check-ahlfors", "alpha": alpha,
               "c1_hat": res.c1_hat, "c2_hat": res.c2_hat,
               "spread": res.spread, "samples": len(res.samples)}
    human = ("c1_hat %.6g, c2_hat %.6g, spread %.6g over %d sampled balls\n"
             % (res.c1_hat, res.c2_hat, res.spread, len(res.samples)))
    code = 0
    if cap is not None and res.spread > cap:
        human += "spread exceeds %.3g\n" % cap
        code = 3
    return payload, human, code


def cmd_boxdim(cfg):
    cloud = _cloud_from_cfg(cfg, allow_sample=True)
    kwargs = {}
    if _p(cfg, "scales"):
        kwargs["scales"] = _split(float, _p(cfg, "scales"), "scales")
    elif _p(cfg, "scale_count"):
        kwargs["scale_count"] = _p(cfg, "scale_count", cast=int)
    if _p(cfg, "anchor"):
        kwargs["anchor"] = _p(cfg, "anchor")
    dim, table = box_dimension(cloud, **kwargs)
    payload = {"command": "boxdim", "dim": dim,
               "table": [[float(s), int(c)] for s, c in table]}
    human = "box dimension slope = %.6g over %d scales\n" % (dim, len(table))
    return payload, human, 0


_EXP_PARAM_KEYS = {
    "convergence-g-k": {"c": float, "s": float, "trials": int,
                        "conv_tol": float},
    "dimension-ladder": {"depth": int, "pipeline": str, "c_diffuse": float,
                         "dim_tol": float},
    "non-diffuseness": {"budget": int, "depth": int, "control_depth": int,
                        "c_diffuse": float},
}


def cmd_experiment(cfg):
    exp_id = _p(cfg, "id")
    fn = EXPERIMENTS[exp_id]
    perc = cfg.get("percolation")
    if not perc:
        raise InvalidInputError("experiments want --percolation b=,d=,p=")
    kwargs = {"b": perc["b"], "d": perc["d"], "p": perc["p"]}
    for key, cast in _EXP_PARAM_KEYS[exp_id].items():
        if _p(cfg, key) is not None:
            kwargs[key] = _p(cfg, key, cast=cast)
    if "budget" in kwargs:
        kwargs["search_budget"] = kwargs.pop("budget")
    if exp_id == "convergence-g-k":
        if "c" not in kwargs:
            raise InvalidInputError("convergence-g-k wants --c")
        if _p(cfg, "k_max") is not None:
            kwargs["k_range"] = tuple(range(1, _p(cfg, "k_max", cast=int) + 1))
        kwargs["seed"] = int(cfg.get("seed", 0))
    elif exp_id == "dimension-ladder":
        if _p(cfg, "c_seq"):
            kwargs["c_sequence"] = _split(int, _p(cfg, "c_seq"), "c_seq")
        if _p(cfg, "seeds"):
            kwargs["seeds"] = _split(int, _p(cfg, "seeds"), "seeds")
    else:
        if _p(cfg, "beta_ladder"):
            kwargs["beta_ladder"] = _split(float, _p(cfg, "beta_ladder"), "beta_ladder")
        kwargs["seed"] = int(cfg.get("seed", 0))
    rep = fn(**kwargs)
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


def cmd_render(cfg):
    ifs, offspring = resolve_model(cfg, need_offspring=False)
    if _p(cfg, "tree"):
        with open(_p(cfg, "tree")) as fh:
            tree = FiniteTree.from_text(fh.read())
        cloud = render(ifs, tree=tree)
    elif _p(cfg, "sample"):
        if offspring is None:
            raise InvalidInputError("--sample wants an offspring law")
        if _p(cfg, "depth") is None:
            raise InvalidInputError("--sample wants --depth")
        tree = sample_gw(offspring, _p(cfg, "depth", cast=int),
                         int(cfg.get("seed", 0))).tree
        cloud = render(ifs, tree=tree)
    else:
        if _p(cfg, "depth") is None:
            raise InvalidInputError("need --depth, --sample or --tree")
        cloud = render(ifs, depth=_p(cfg, "depth", cast=int))
    out = _p(cfg, "out", "render.pgm")
    _write_bytes(out, cloud_to_pgm(cloud, pixels=_p(cfg, "pixels", 512, int)))
    if _p(cfg, "cloud_out"):
        _write_text(_p(cfg, "cloud_out"), cloud_to_csv(cloud))
    payload = {"command": "render", "points": int(len(cloud.points)),
               "eps": float(cloud.eps), "out": out}
    return payload, "%d points -> %s\n" % (len(cloud.points), out), 0


HANDLERS = {
    "simulate": cmd_simulate,
    "extinction": cmd_extinction,
    "moran": cmd_moran,
    "fixpoint": cmd_fixpoint,
    "gk-curve": cmd_gk_curve,
    "extract": cmd_extract,
    "diffuse-cert": cmd_diffuse_cert,
    "check-diffuse": cmd_check_diffuse,
    "check-ahlfors": cmd_check_ahlfors,
    "boxdim": cmd_boxdim,
    "experiment": cmd_experiment,
    "render": cmd_render,
}


def _emit_error(as_json, kind, exc, extra=None):
    _say("error: %s" % exc)
    if as_json:
        doc = {"error": kind, "message": str(exc)}
        if extra:
            doc.update(extra)
        sys.stdout.write(json.dumps(_jsonify(doc), indent=2, sort_keys=True)
                         + "\n")


def main(argv=None):
    args = build_parser().parse_args(argv)
    as_json = bool(getattr(args, "json", False))
    try:
        cfg = merge_config(args)
        _validate_config(cfg)
        as_json = bool(cfg.get("json", False))
        payload, human, code = HANDLERS[cfg["command"]](cfg)
    except (InvalidInputError, jsonschema.ValidationError,
            json.JSONDecodeError) as e:
        msg = getattr(e, "message", None) or str(e)
        _emit_error(as_json, "invalid-config", msg)
        return 2
    except FileNotFoundError as e:
        _emit_error(as_json, "invalid-config", e)
        return 2
    except NotFoundError as e:
        _emit_error(as_json, "not-found", e, {"stats": e.stats})
        return 3
    except DegenerateSampleError as e:
        _emit_error(as_json, "not-found", e)
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
