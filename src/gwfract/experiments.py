"""Scripted validation suites tying the solver, sampler and extractor together.

Each experiment returns an ExperimentReport whose JSON payload is a pure
function of (parameters, seed); wall-clock runtime is kept out of the payload
on purpose so identical runs serialize identically.
"""

import json
import math
import os
import time
from dataclasses import dataclass, field
from importlib import metadata as _importlib_metadata

import numpy as np

from . import geometry
from .symbolic import DegenerateSampleError, InvalidInputError
from .branching import (Binomial, extinction_prob, labeled_seed,
                        mc_extinction_frequency, sample_gw)
from .fixpoint import g_k_a_curve
from .geometry import (box_dimension, cloud_to_pgm, empirical_diffuse_check,
                       percolation_ifs, render)
from .extraction import (NotFoundError, general_pipeline, percolation_pipeline,
                         predicted_presence)


def module_versions():
    """Exact dependency versions, embedded in every report."""
    out = {}
    for name in ("gwfract", "numpy", "scipy"):
        try:
            out[name] = _importlib_metadata.version(name)
        except Exception:
            out[name] = "unknown"
    return out


def estimate(name, value, ci=None, n=0, **extra):
    """Uniform estimate record; exact values carry a degenerate CI and n=0."""
    v = float(value)
    if ci is None:
        ci = (v, v)
    rec = {"name": str(name), "value": v,
           "ci": [float(ci[0]), float(ci[1])], "n": int(n)}
    rec.update(extra)
    return rec


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass
class ExperimentReport:
    experiment: str
    params: dict
    estimates: list
    verdict: str
    runtime: float = 0.0
    curves: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    versions: dict = field(default_factory=module_versions)
    notes: list = field(default_factory=list)
    snapshots: dict = field(default_factory=dict, repr=False)

    def payload(self):
        # runtime and raster snapshots stay out of the payload: identical
        # (config, seed) must serialize byte-identically
        return {
            "experiment": self.experiment,
            "params": self.params,
            "estimates": self.estimates,
            "verdict": self.verdict,
            "curves": self.curves,
            "tolerances": self.tolerances,
            "versions": self.versions,
            "notes": self.notes,
        }

    def to_json(self):
        return json.dumps(self.payload(), indent=2, sort_keys=True, allow_nan=False)

    def curves_csv(self):
        out = {}
        for name, cur in self.curves.items():
            lines = [",".join(cur["columns"])]
            for row in cur["rows"]:
                lines.append(",".join(_csv_cell(v) for v in row))
            out[name] = "\n".join(lines) + "\n"
        return out

    def save(self, outdir):
        """Write report JSON, one CSV per curve, one PGM per snapshot."""
        os.makedirs(outdir, exist_ok=True)
        base = os.path.join(outdir, self.experiment)
        with open(base + ".json", "w") as fh:
            fh.write(self.to_json() + "\n")
        for name, text in self.curves_csv().items():
            with open("%s.%s.csv" % (base, name), "w") as fh:
                fh.write(text)
        for name, cloud in self.snapshots.items():
            with open("%s.%s.pgm" % (base, name), "wb") as fh:
                fh.write(cloud_to_pgm(cloud))
        return base + ".json"


# ---------------------------------------------------------------------------
# experiment: undershoot curve g_{k, a_k}(s)


def exp_convergence_g_k(b, d, p, c, s=0.5, k_range=(1, 2, 3, 4, 5, 6),
                        trials=100_000, seed=0, conv_tol=0.05):
    """Curve of undershoot probabilities with target count a_k = ceil(c^k).

    For c below the offspring mean the curve should fall toward the extinction
    probability; for c at or above the mean it should instead climb to 1, and
    the verdict tracks that reversed target.
    """
    t0 = time.perf_counter()
    c = float(c)
    s = float(s)
    if c <= 1.0:
        raise InvalidInputError("c must exceed 1")
    ks = sorted(int(k) for k in k_range)
    if not ks or ks[0] < 1:
        raise InvalidInputError("k_range must list integers >= 1")
    offspring = Binomial(b ** d, p)
    m = offspring.mean()
    rising = c > m

    rows = [g_k_a_curve(offspring, k, math.ceil(c ** k), s, trials=trials,
                        seed=labeled_seed(seed, "gk%d" % k)) for k in ks]
    q = extinction_prob(offspring)
    mc = mc_extinction_frequency(offspring, depth=30, trials=trials,
                                 seed=labeled_seed(seed, "ext"))

    values = [r["value"] for r in rows]
    slack = [3.0 * r.get("se", 0.0) for r in rows]
    monotone = True
    for i in range(len(values) - 1):
        wiggle = slack[i] + slack[i + 1] + 1e-9  # roundoff slack near 0 and 1
        step_ok = (values[i + 1] >= values[i] - wiggle) if rising \
            else (values[i + 1] <= values[i] + wiggle)
        monotone = monotone and step_ok
    target = 1.0 if rising else q
    band = max(slack[-1], conv_tol)
    converged = abs(values[-1] - target) <= band
    verdict = "pass" if monotone and converged else "fail"

    estimates = []
    curve_rows = []
    for k, r in zip(ks, rows):
        ci = r.get("ci")
        n = trials if r["method"] == "mc" else 0
        se = r.get("se", 0.0)
        estimates.append(estimate("g_k%d" % k, r["value"], ci=ci, n=n,
                                  a_k=r["a_k"], method=r["method"],
                                  flagged=bool(r.get("flagged", False))))
        curve_rows.append([k, r["a_k"], r["value"], se,
                           (ci or [r["value"]] * 2)[0],
                           (ci or [r["value"]] * 2)[1], r["method"]])
    estimates.append(estimate("extinction_exact", q, target=target))
    mci = (mc["frequency"] - 3.0 * mc["se"], mc["frequency"] + 3.0 * mc["se"])
    estimates.append(estimate("extinction_mc_depth30", mc["frequency"], ci=mci,
                              n=mc["trials"], se=mc["se"]))

    notes = []
    if rising:
        notes.append("c=%.6g > mean %.6g: converse regime, curve should "
                     "increase to 1" % (c, m))
    if any(r.get("flagged") for r in rows):
        notes.append("some curve points are Monte-Carlo estimates (flagged)")

    rep = ExperimentReport(
        experiment="convergence_g_k",
        params={"b": int(b), "d": int(d), "p": float(p), "c": c, "s": s,
                "k_range": ks, "trials": int(trials), "seed": int(seed)},
        estimates=estimates,
        verdict=verdict,
        curves={"g_k_curve": {
            "columns": ["k", "a_k", "value", "se", "ci_lo", "ci_hi", "method"],
            "rows": curve_rows}},
        tolerances={"conv_tol": float(conv_tol), "ci_sigma": 3.0},
        notes=notes,
    )
    rep.runtime = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# experiment: dimension ladder


def _slope_ci(table):
    """Least-squares slope of log N against log 1/scale, with a 95% band."""
    logs = np.log([1.0 / sc for sc, _ in table])
    logn = np.log([max(cnt, 1) for _, cnt in table])
    try:
        coef, cov = np.polyfit(logs, logn, 1, cov=True)
        se = float(math.sqrt(max(cov[0][0], 0.0)))
    except (np.linalg.LinAlgError, ValueError):
        coef = np.polyfit(logs, logn, 1)
        se = 0.0
    slope = float(coef[0])
    return slope, (slope - 1.96 * se, slope + 1.96 * se)


def exp_dimension_ladder(b, d, p, c_sequence=(2, 3, 4), depth=None,
                         seeds=(0, 1, 2, 3), pipeline="auto", c_diffuse=0.05,
                         dim_tol=0.1):
    """Extract one subset per branching target c and box-count its dimension.

    pipeline "auto" tries the block scan only when its own presence prediction
    gives it a realistic chance, then falls back to the section pipeline; the
    attempts and the fallback are recorded in the notes.
    """
    t0 = time.perf_counter()
    b = int(b)
    d = int(d)
    N = b ** d
    offspring = Binomial(N, p)
    m = offspring.mean()
    cs = []
    for c in c_sequence:
        c_n = int(round(float(c)))
        if abs(float(c) - c_n) > 1e-9 or not (1 < c_n < m):
            raise InvalidInputError("each c must be an integer in (1, mean)")
        cs.append(c_n)
    if pipeline not in ("auto", "percolation", "general"):
        raise InvalidInputError("pipeline must be auto, percolation or general")
    ifs = percolation_ifs(b, d)
    seeds = tuple(int(sd) for sd in seeds)

    def run_point(c_n):
        notes = []
        kb = max(2, int(math.ceil(math.log(N * N) / math.log(c_n))))
        while c_n ** kb < N * N:  # float-log fuzz guard
            kb += 1
        rho = float(b) ** (-kb)
        alpha = math.log(c_n) / math.log(b)
        try_block = pipeline in ("auto", "percolation")
        if try_block and pipeline == "auto":
            pred = predicted_presence(offspring, kb, c_n ** kb, 2, mode="block")
            if pred["tau"] < 1e-3:
                notes.append("c=%d: block presence prediction %.3g, block scan "
                             "skipped" % (c_n, pred["tau"]))
                try_block = False
        for sd in seeds:
            if try_block:
                try:
                    es = percolation_pipeline(b, d, p, c=c_n, k=kb, depth=depth,
                                              seed=sd, scan_budget=16,
                                              node_budget=400_000_000)
                    return es, "percolation", sd, notes
                except NotFoundError:
                    notes.append("c=%d block scan seed %d: no witness within "
                                 "budget" % (c_n, sd))
                except (InvalidInputError, DegenerateSampleError) as e:
                    notes.append("c=%d block scan seed %d: %s" % (c_n, sd, e))
                    try_block = False
            if pipeline == "percolation":
                continue
            try:
                es = general_pipeline(ifs, offspring, rho=rho, alpha=alpha,
                                      c=c_diffuse, depth=depth, seed=sd,
                                      n_levels=2, node_budget=400_000_000)
                return es, "general", sd, notes
            except NotFoundError:
                notes.append("c=%d section scan seed %d: no witness within "
                             "budget" % (c_n, sd))
            except DegenerateSampleError as e:
                notes.append("c=%d seed %d: %s" % (c_n, sd, e))
        return None, None, None, notes

    points = [run_point(c_n) for c_n in cs]

    estimates = []
    ladder_rows = []
    count_rows = []
    notes = []
    dims = []
    any_missing = False
    all_ok = True
    for c_n, (es, used, sd, pnotes) in zip(cs, points):
        notes.extend(pnotes)
        target = math.log(c_n) / math.log(b)
        if es is None or es.levels() < 2:  # under 3 box-count scales
            any_missing = True
            notes.append("c=%d: %s, point inconclusive" % (c_n, "no witness at any seed"
                         if es is None else "one-level witness at seed %d" % sd))
            ladder_rows.append([c_n, target, None, None, None, used or "none", sd,
                                0])
            continue
        cloud = es.cloud()
        # the witness lives in the cell of its root word, at that cell's scales
        top = es.ifs.weights.weight(es.root_word)
        scales = [top * es.rho ** j for j in range(es.levels() + 1)]
        dim, table = box_dimension(cloud, scales=scales, anchor="origin")
        dim, ci = _slope_ci(table)
        dims.append(dim)
        ok = abs(dim - target) <= dim_tol
        all_ok = all_ok and ok
        estimates.append(estimate("boxdim_c%d" % c_n, dim, ci=ci, n=len(table),
                                  target=target, pipeline=used, seed=sd,
                                  leaf_count=len(cloud.points),
                                  within_tol=bool(ok)))
        ladder_rows.append([c_n, target, dim, ci[0], ci[1], used, sd,
                            len(cloud.points)])
        for sc, cnt in table:
            count_rows.append([c_n, sc, cnt])

    increasing = all(dims[i] < dims[i + 1] for i in range(len(dims) - 1))
    if any_missing:
        verdict = "inconclusive"
    elif all_ok and increasing:
        verdict = "pass"
    else:
        verdict = "fail"

    # raw-sample contrast row: box dimension of the unthinned percolation
    # cloud against the closed-form log_b(p b^d); informational only
    raw_depth = min(depth or 6, 6)
    raw = sample_gw(offspring, raw_depth, seed=labeled_seed(seeds[0], "raw"))
    raw_cloud = render(ifs, tree=raw.tree)
    raw_scales = [float(b) ** (-j) for j in range(1, raw_depth + 1)]
    raw_dim, raw_table = box_dimension(raw_cloud, scales=raw_scales,
                                       anchor="origin")
    raw_dim, raw_ci = _slope_ci(raw_table)
    moran_target = math.log(p * N) / math.log(b)
    estimates.append(estimate("boxdim_raw_sample", raw_dim, ci=raw_ci,
                              n=len(raw_table), target=moran_target,
                              depth=raw_depth, seed=seeds[0]))

    rep = ExperimentReport(
        experiment="dimension_ladder",
        params={"b": b, "d": d, "p": float(p), "c_sequence": cs,
                "depth": depth, "seeds": list(seeds), "pipeline": pipeline,
                "c_diffuse": float(c_diffuse)},
        estimates=estimates,
        verdict=verdict,
        curves={
            "ladder": {"columns": ["c", "target", "dim", "ci_lo", "ci_hi",
                                   "pipeline", "seed", "leaf_count"],
                       "rows": ladder_rows},
            "box_counts": {"columns": ["c", "scale", "count"],
                           "rows": count_rows},
        },
        tolerances={"dim_tol": float(dim_tol)},
        notes=notes,
    )
    rep.runtime = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# experiment: flatness search on the raw sample


def exp_non_diffuseness(b, d, p, beta_ladder=(0.1, 0.03, 0.01),
                        search_budget=10_000, seed=0, depth=7, c_diffuse=0.05,
                        control_depth=5):
    """Flat balls exist in the raw sample but not in the extracted subset.

    Three clouds are probed: the raw percolation sample (a flat ball at the
    smallest ladder beta should be found), the subset extracted from the same
    seed (must pass its certified beta), and the dense deterministic attractor
    (negative control, no flat ball within the same budget).
    """
    t0 = time.perf_counter()
    b = int(b)
    d = int(d)
    p = float(p)
    N = b ** d
    offspring = Binomial(N, p)
    if offspring.mean() <= 1.0:
        raise InvalidInputError("supercritical offspring required")
    if p >= 1.0:
        raise InvalidInputError("p=1 leaves no mass on small families")
    if search_budget < 1:
        raise InvalidInputError("search_budget must be >= 1")
    betas = sorted(set(float(x) for x in beta_ladder), reverse=True)
    if not betas or betas[-1] <= 0:
        raise InvalidInputError("beta_ladder must list positive values")
    beta_star = betas[-1]
    ifs = percolation_ifs(b, d)

    sample = sample_gw(offspring, depth, seed=labeled_seed(seed, "sample"))
    if sample.extinct_at is not None:
        raise DegenerateSampleError("sample died out before target depth")
    cloud = render(ifs, tree=sample.tree)

    search = geometry._flat_ball_search(cloud, beta_star, search_budget,
                                        labeled_seed(seed, "search"))
    profile = empirical_diffuse_check(cloud, beta_star,
                                      sample_count=900,
                                      seed=labeled_seed(seed, "profile"))
    del cloud._ball_index  # shared by the two checks above; freed before the control's

    # subset from the same master seed, checked at its certified beta
    extract_rho = float(b) ** (-4)
    arity = 2 ** int(math.ceil(math.log2(N * N)))
    extract_alpha = math.log(arity) / (4.0 * math.log(b))
    notes = []
    es = None
    for sd in (seed, seed + 1, seed + 2, seed + 3):
        try:
            es = general_pipeline(ifs, offspring, rho=extract_rho,
                                  alpha=extract_alpha, c=c_diffuse,
                                  seed=sd, n_levels=2)
            break
        except NotFoundError:
            notes.append("extraction seed %d: no witness within budget" % sd)
    subset_chk = None
    if es is not None:
        subset_chk = empirical_diffuse_check(es.cloud(), es.beta,
                                             sample_count=240,
                                             seed=labeled_seed(seed, "subset"))

    control = render(ifs, depth=control_depth)
    ctrl_search = geometry._flat_ball_search(control, beta_star, search_budget,
                                             labeled_seed(seed, "control"))

    raw_found = search["found"] is not None
    ctrl_clean = ctrl_search["found"] is None
    if es is None:
        verdict = "inconclusive"
    elif raw_found and subset_chk["pass"] and ctrl_clean:
        verdict = "pass"
    else:
        verdict = "fail"

    best = search["best"]
    estimates = [
        estimate("raw_search_best_ratio", best["ratio"], n=search["examined"],
                 width=best["width"], xi=best["xi"],
                 points_in_ball=best["points_in_ball"], center=best["center"],
                 witness_found=bool(raw_found)),
        estimate("raw_profile_worst_ratio", profile["worst_ratio"],
                 n=profile["tested"], scope="certificate scales"),
        estimate("control_best_ratio",
                 ctrl_search["best"]["ratio"], n=ctrl_search["examined"],
                 witness_found=bool(not ctrl_clean),
                 control_depth=int(control_depth)),
    ]
    if es is not None:
        estimates.append(estimate(
            "subset_worst_ratio", subset_chk["worst_ratio"],
            n=subset_chk["tested"], certified_beta=es.beta,
            passed=bool(subset_chk["pass"]), leaf_count=es.to_json()["leaf_count"]))

    ladder_rows = [[bt, int(best["ratio"] <= bt),
                    int(ctrl_search["best"]["ratio"] <= bt)] for bt in betas]
    scale_rows = [[xi, cnt, mn] for xi, cnt, mn in search["per_scale"]]

    notes.append("flat witness mechanism: isolated or collinear local "
                 "configurations; candidate centers ranked by second-"
                 "neighbour distance")
    notes.append("profile row uses the certificate-mode check (eps-adjusted "
                 "widths, coarse scales); the search probes raw widths down "
                 "to 1.25*eps")

    rep = ExperimentReport(
        experiment="non_diffuseness",
        params={"b": b, "d": d, "p": p, "beta_ladder": betas,
                "search_budget": int(search_budget), "seed": int(seed),
                "depth": int(depth), "extract_rho": extract_rho,
                "extract_alpha": extract_alpha,
                "c_diffuse": float(c_diffuse),
                "control_depth": int(control_depth)},
        estimates=estimates,
        verdict=verdict,
        curves={
            "beta_ladder": {"columns": ["beta", "raw_witness", "control_witness"],
                            "rows": ladder_rows},
            "search_scales": {"columns": ["xi", "balls", "min_ratio"],
                              "rows": scale_rows},
        },
        tolerances={"beta_star": beta_star, "xi_floor_eps": 1.25},
        notes=notes,
        snapshots={"sample": cloud},
    )
    rep.runtime = time.perf_counter() - t0
    return rep


EXPERIMENTS = {
    "convergence-g-k": exp_convergence_g_k,
    "dimension-ladder": exp_dimension_ladder,
    "non-diffuseness": exp_non_diffuseness,
}
