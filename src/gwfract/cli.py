"""Command-line entry point: config loading, dispatch and artifact output.

Machine output goes to stdout as JSON under --json and is a pure function of
(config, seed); timings and progress notes go to stderr.  Exit codes: 0 ok,
2 invalid config, 3 nothing found / inconclusive, 4 resource or capability
limit.
"""

import argparse
import copy
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
                       smallest_fixed_point, smallest_fixed_point_bisect)
from .geometry import (MeasuredCloud, ahlfors_ratio_check, box_dimension,
                       cloud_from_csv, cloud_to_csv, cloud_to_pgm,
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


def parse_percolation(text):
    """Shorthand 'b=3,d=2,p=0.6'."""
    out = {}
    for part in text.split(","):
        key, sep, val = part.partition("=")
        key = key.strip()
        if not sep or key not in ("b", "d", "p"):
            raise InvalidInputError("percolation shorthand wants b=,d=,p=")
        try:
            out[key] = float(val) if key == "p" else int(val)
        except ValueError:
            raise InvalidInputError("bad percolation value %r" % val)
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
        return {"kind": "binomial", "n": int(parts[1]), "p": float(parts[2])}
    if text.startswith("bern:"):
        probs = [float(x) for x in text[5:].split(",") if x.strip()]
        return {"kind": "bernoulli", "p": probs}
    if os.path.exists(text):
        with open(text) as fh:
            return json.load(fh)
    raise InvalidInputError("offspring spec %r is neither shorthand nor a file"
                            % text)


def parse_collection_spec(text):
    if text.startswith("ary:"):
        return {"kind": "ary", "a": int(text[4:])}
    if text.startswith("diffuse-block:"):
        parts = text.split(":")[1:]
        if len(parts) not in (2, 3):
            raise InvalidInputError("shorthand is diffuse-block:b:k[:d]")
        doc = {"kind": "diffuse_block", "b": int(parts[0]), "k": int(parts[1])}
        if len(parts) == 3:
            doc["d"] = int(parts[2])
        return doc
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
                        help="thread cap; default GWFRACT_THREADS or cores")
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
                    choices=["auto", "trivial", "closed_form", "enum", "mc"])
    sp.add_argument("--solver", choices=["iterate", "bisect"])
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
        if ns.get(key) not in (None, False):
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


def _p(cfg, key, default=None):
    return cfg.get("params", {}).get(key, default)


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    _say("wrote %s" % path)


def _write_bytes(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)
    _say("wrote %s" % path)


def measured_to_csv(mc):
    lines = []
    for p, m, r in zip(mc.points, mc.masses, mc.cell_radii):
        lines.append(",".join(repr(float(x)) for x in p)
                     + ",%r,%r" % (float(m), float(r)))
    return "\n".join(lines) + ("\n" if lines else "")


def measured_from_csv(text):
    pts, masses, radii = [], [], []
    for line in text.strip().splitlines():
        if not line.strip():
            continue
        cells = [float(x) for x in line.split(",")]
        if len(cells) < 4:
            raise InvalidInputError("measured CSV rows are x...,mass,radius")
        pts.append(cells[:-2])
        masses.append(cells[-2])
        radii.append(cells[-1])
    if not pts:
        raise InvalidInputError("measured CSV is empty")
    return MeasuredCloud(np.array(pts), np.array(masses), np.array(radii))


# ---------------------------------------------------------------------------
# handlers: each returns (payload, human text, exit code)


def cmd_simulate(cfg):
    ifs, offspring = resolve_model(cfg)
    depth = int(_p(cfg, "depth", 4))
    seed = int(cfg.get("seed", 0))
    sample = sample_gw(offspring, depth, seed)
    cloud = render(ifs, tree=sample.tree)
    if _p(cfg, "render"):
        _write_bytes(_p(cfg, "render"),
                     cloud_to_pgm(cloud, pixels=int(_p(cfg, "pixels", 512))))
    if _p(cfg, "tree_out"):
        _write_text(_p(cfg, "tree_out"), sample.tree.to_text())
    if _p(cfg, "cloud_out"):
        _write_text(_p(cfg, "cloud_out"), cloud_to_csv(cloud))
    payload = {"command": "simulate", "depth": depth, "seed": seed,
               "level_sizes": sample.level_sizes(),
               "extinct_at": sample.extinct_at,
               "points": int(len(cloud.points)), "eps": float(cloud.eps)}
    human = ("level sizes: %s\nleaf points: %d (eps %.3g)%s\n"
             % (sample.level_sizes(), len(cloud.points), cloud.eps,
                "\nextinct at level %d" % sample.extinct_at
                if sample.extinct_at is not None else ""))
    return payload, human, 0


def cmd_extinction(cfg):
    _, offspring = resolve_model(cfg, need_ifs=False)
    q = extinction_prob(offspring)
    payload = {"command": "extinction", "q": q}
    human = "extinction probability q = %.12g\n" % q
    trials = _p(cfg, "trials")
    if trials:
        mc = mc_extinction_frequency(offspring, int(_p(cfg, "mc_depth", 30)),
                                     int(trials), int(cfg.get("seed", 0)))
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
                   sample_size=int(_p(cfg, "trials", 100_000)),
                   seed=int(cfg.get("seed", 0)))
    solver = _p(cfg, "solver", "iterate")
    tol = _p(cfg, "tol")
    if solver == "bisect":
        s0 = smallest_fixed_point_bisect(gf, **({"tol": tol} if tol else {}))
        res = {"s0": s0, "tau": 1.0 - s0, "method": "bisect",
               "iterations": None, "converged": True, "ci": None}
    else:
        res = smallest_fixed_point(gf, **({"tol": tol} if tol else {}))
    payload = {"command": "fixpoint", "strategy": gf.strategy}
    payload.update({k: v for k, v in res.items() if k != "iterates"})
    payload["iterations"] = res.get("iterations")
    trace = res.get("iterates") or []
    payload["iterates_head"] = trace[:8]
    human = ("tau = %.10g\ns0 = %.10g\nstrategy %s, solver %s, %s iterations\n"
             % (res["tau"], res["s0"], gf.strategy, res.get("method", solver),
                res.get("iterations", "?")))
    if trace:
        human += "first iterates: %s\n" % ", ".join(
            "%.6g" % v for v in trace[:6])
    if res.get("ci"):
        human += "sampling interval: [%.6g, %.6g]\n" % tuple(res["ci"])
    return payload, human, 0


def cmd_gk_curve(cfg):
    _, offspring = resolve_model(cfg, need_ifs=False)
    s = float(_p(cfg, "s", 0.5))
    trials = int(_p(cfg, "trials", 100_000))
    seed = int(cfg.get("seed", 0))
    rows = []
    if _p(cfg, "k") is not None:
        k = int(_p(cfg, "k"))
        a = _p(cfg, "a")
        if a is None:
            c = _p(cfg, "c")
            if c is None:
                raise InvalidInputError("single-point mode wants --a or --c")
            a = math.ceil(float(c) ** k)
        rows.append(g_k_a_curve(offspring, k, int(a), s, trials=trials,
                                seed=labeled_seed(seed, "gk%d" % k)))
    else:
        c = _p(cfg, "c")
        if c is None:
            raise InvalidInputError("need --c (or --k with --a)")
        c = float(c)
        for k in range(1, int(_p(cfg, "k_max", 6)) + 1):
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
            kwargs[key] = int(_p(cfg, key))
    if pipeline == "block":
        perc = cfg.get("percolation")
        if not perc:
            raise InvalidInputError("block pipeline wants --percolation")
        for key in ("c", "k"):
            if _p(cfg, key) is None:
                raise InvalidInputError("block pipeline wants --c and --k")
        es = percolation_pipeline(perc["b"], perc["d"], perc["p"],
                                  c=int(_p(cfg, "c")), k=int(_p(cfg, "k")),
                                  seed=seed, **kwargs)
    elif pipeline == "section":
        ifs, offspring = resolve_model(cfg)
        for key in ("rho", "alpha", "c"):
            if _p(cfg, key) is None:
                raise InvalidInputError(
                    "section pipeline wants --rho, --alpha and --c")
        if _p(cfg, "levels") is not None:
            kwargs["n_levels"] = int(_p(cfg, "levels"))
        es = general_pipeline(ifs, offspring, rho=float(_p(cfg, "rho")),
                              alpha=float(_p(cfg, "alpha")),
                              c=float(_p(cfg, "c")), seed=seed, **kwargs)
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
                     cloud_to_pgm(es.cloud(), pixels=int(_p(cfg, "pixels", 512))))
    payload = {"command": "extract"}
    payload.update(es.to_json())
    pred = es.stats.get("predicted")
    human = ("%s pipeline: witness at root %r\n"
             "arity %d, levels %d, alpha %.6g, beta %.6g, %d leaves\n"
             % (es.pipeline, es.root_word.text, es.arity, es.levels(),
                es.alpha, es.beta, len(es.leaf_words())))
    if pred:
        human += ("predicted per-vertex presence %.3g (witness root at depth "
                  "%d)\n" % (pred["tau"], len(es.root_word)))
    return payload, human, 0


def cmd_diffuse_cert(cfg):
    ifs, _ = resolve_model(cfg, need_offspring=False)
    F = _attractor_cloud(ifs, target=int(_p(cfg, "points", 2000)))
    res = diffuseness_constant(ifs.maps, F,
                               directions=int(_p(cfg, "directions", 2000)))
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
            return cloud_from_csv(fh.read(), eps=float(_p(cfg, "eps", 0.0)))
    ifs, offspring = resolve_model(cfg, need_offspring=False)
    depth = _p(cfg, "depth")
    if depth is None:
        raise InvalidInputError("need --cloud or a model with --depth")
    if allow_sample and _p(cfg, "sample"):
        if offspring is None:
            raise InvalidInputError("--sample wants an offspring law")
        tree = sample_gw(offspring, int(depth), int(cfg.get("seed", 0))).tree
        return render(ifs, tree=tree)
    return render(ifs, depth=int(depth))


def cmd_check_diffuse(cfg):
    beta = _p(cfg, "beta")
    if beta is None:
        raise InvalidInputError("need --beta")
    cloud = _cloud_from_cfg(cfg)
    res = empirical_diffuse_check(cloud, float(beta),
                                  scale_count=int(_p(cfg, "scales", 3)),
                                  sample_count=int(_p(cfg, "balls", 200)),
                                  seed=int(cfg.get("seed", 0)))
    payload = {"command": "check-diffuse"}
    payload.update(res)
    human = ("%s: worst ratio %s over %d balls at beta %.3g\n"
             % ("pass" if res["pass"] else "FAIL",
                "%.6g" % res["worst_ratio"] if res["worst_ratio"] is not None
                else "n/a", res["tested"], float(beta)))
    return payload, human, 0 if res["pass"] else 3


def cmd_check_ahlfors(cfg):
    if not _p(cfg, "measured"):
        raise InvalidInputError("need --measured CSV (x...,mass,radius)")
    alpha = _p(cfg, "alpha")
    if alpha is None:
        raise InvalidInputError("need --alpha")
    with open(_p(cfg, "measured")) as fh:
        mc = measured_from_csv(fh.read())
    res = ahlfors_ratio_check(mc, float(alpha),
                              sample_count=int(_p(cfg, "balls", 1000)),
                              seed=int(cfg.get("seed", 0)),
                              r_count=int(_p(cfg, "r_count", 6)))
    payload = {"command": "check-ahlfors", "alpha": float(alpha),
               "c1_hat": res.c1_hat, "c2_hat": res.c2_hat,
               "spread": res.spread, "samples": len(res.samples)}
    human = ("c1_hat %.6g, c2_hat %.6g, spread %.6g over %d sampled balls\n"
             % (res.c1_hat, res.c2_hat, res.spread, len(res.samples)))
    code = 0
    cap = _p(cfg, "max_spread")
    if cap is not None and res.spread > float(cap):
        human += "spread exceeds %.3g\n" % float(cap)
        code = 3
    return payload, human, code


def cmd_boxdim(cfg):
    cloud = _cloud_from_cfg(cfg, allow_sample=True)
    kwargs = {}
    if _p(cfg, "scales"):
        kwargs["scales"] = [float(x) for x in str(_p(cfg, "scales")).split(",")]
    elif _p(cfg, "scale_count"):
        kwargs["scale_count"] = int(_p(cfg, "scale_count"))
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
            kwargs[key] = cast(_p(cfg, key))
    if "budget" in kwargs:
        kwargs["search_budget"] = kwargs.pop("budget")
    if exp_id == "convergence-g-k":
        if "c" not in kwargs:
            raise InvalidInputError("convergence-g-k wants --c")
        if _p(cfg, "k_max"):
            kwargs["k_range"] = tuple(range(1, int(_p(cfg, "k_max")) + 1))
        kwargs["seed"] = int(cfg.get("seed", 0))
        kwargs["threads"] = cfg.get("threads")
    elif exp_id == "dimension-ladder":
        if _p(cfg, "c_seq"):
            kwargs["c_sequence"] = tuple(
                int(x) for x in str(_p(cfg, "c_seq")).split(","))
        if _p(cfg, "seeds"):
            kwargs["seeds"] = tuple(
                int(x) for x in str(_p(cfg, "seeds")).split(","))
        kwargs["threads"] = cfg.get("threads")
    else:
        if _p(cfg, "beta_ladder"):
            kwargs["beta_ladder"] = tuple(
                float(x) for x in str(_p(cfg, "beta_ladder")).split(","))
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
        tree = sample_gw(offspring, int(_p(cfg, "depth")),
                         int(cfg.get("seed", 0))).tree
        cloud = render(ifs, tree=tree)
    else:
        if _p(cfg, "depth") is None:
            raise InvalidInputError("need --depth, --sample or --tree")
        cloud = render(ifs, depth=int(_p(cfg, "depth")))
    out = _p(cfg, "out", "render.pgm")
    _write_bytes(out, cloud_to_pgm(cloud, pixels=int(_p(cfg, "pixels", 512))))
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
    saved_threads = os.environ.get("GWFRACT_THREADS")
    try:
        cfg = merge_config(args)
        jsonschema.validate(cfg, CONFIG_SCHEMA)
        as_json = bool(cfg.get("json", False))
        if cfg.get("threads"):
            os.environ["GWFRACT_THREADS"] = str(int(cfg["threads"]))
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
    finally:
        # the setting belongs to this call; in-process callers keep their own
        if saved_threads is None:
            os.environ.pop("GWFRACT_THREADS", None)
        else:
            os.environ["GWFRACT_THREADS"] = saved_threads
    if as_json:
        sys.stdout.write(json.dumps(_jsonify(payload), indent=2,
                                    sort_keys=True, allow_nan=False) + "\n")
    else:
        sys.stdout.write(human)
    return code


if __name__ == "__main__":
    sys.exit(main())
