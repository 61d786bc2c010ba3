"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"CRITERION n PASS/FAIL" line with the measured quantities.
"""

import hashlib
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from gwfract.symbolic import Word
from gwfract.branching import (Binomial, extinction_prob, labeled_seed,
                               mc_extinction_frequency, sample_gw)
from gwfract.fixpoint import GFunction, appendix_b_gap, ary_collection, g_k_a_curve
from gwfract.geometry import (ahlfors_ratio_check, empirical_diffuse_check,
                              moran_exponent, percolation_ifs, sierpinski_ifs)
from gwfract.extraction import (NotFoundError, SubtreePredicate, find_subtree,
                                general_pipeline, percolation_pipeline)
from gwfract.experiments import exp_dimension_ladder, exp_non_diffuseness


def report(n, ok, detail):
    print("CRITERION %d %s: %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (n, detail)


def try_seeds(build, seeds=(20, 21, 22)):
    last = None
    for sd in seeds:
        try:
            return build(sd)
        except NotFoundError as e:
            last = e
    raise last


@pytest.fixture(scope="module")
def gallery():
    """Successful pipeline outputs spanning both pipelines and both IFS kinds."""
    grid = percolation_ifs(3, 2)
    off = Binomial(9, 0.7)
    items = [
        ("grid c=2", try_seeds(lambda sd: general_pipeline(
            grid, off, rho=3.0 ** -7, alpha=math.log(2) / math.log(3),
            c=0.05, seed=sd, n_levels=2))),
        ("grid c=3", try_seeds(lambda sd: general_pipeline(
            grid, off, rho=3.0 ** -4, alpha=1.0, c=0.05, seed=sd,
            n_levels=2))),
        ("grid c=4", try_seeds(lambda sd: general_pipeline(
            grid, off, rho=3.0 ** -4, alpha=math.log(4) / math.log(3),
            c=0.05, seed=sd, n_levels=2))),
        ("block b=3", percolation_pipeline(3, 2, 0.99, 3, 4, depth=12,
                                           seed=0)),
        ("sierpinski", try_seeds(lambda sd: general_pipeline(
            sierpinski_ifs(), Binomial(3, 0.95), rho=1.0 / 64, alpha=7.0 / 6,
            c=0.05, seed=sd), seeds=(3, 4, 5))),
    ]
    return items


def test_criterion_01_moran():
    t0 = time.perf_counter()
    delta = moran_exponent(Binomial(9, 0.6), percolation_ifs(3, 2).weights)
    elapsed = time.perf_counter() - t0
    target = math.log(5.4) / math.log(3)
    ok = abs(delta - target) <= 1e-9 and elapsed < 1.0
    report(1, ok, "moran %=.12f dev %.2e runtime %.3fs".replace("%=", "%")
           % (delta, abs(delta - target), elapsed))


def test_criterion_02_extinction_mc():
    t0 = time.perf_counter()
    off = Binomial(9, 0.6)
    q = extinction_prob(off)
    mc = mc_extinction_frequency(off, depth=30, trials=100_000,
                                 seed=labeled_seed(0, "accept2"))
    elapsed = time.perf_counter() - t0
    dev = abs(q - mc["frequency"])
    ok = dev <= 3.0 * mc["se"] and elapsed < 60.0
    report(2, ok, "q %.6e mc %.6e dev %.2fsigma runtime %.1fs"
           % (q, mc["frequency"], dev / max(mc["se"], 1e-15), elapsed))


def test_criterion_03_fixed_point_identity():
    t0 = time.perf_counter()
    off = Binomial(3, 0.9)
    g = GFunction(off, ary_collection(2), strategy="closed_form")
    n_trees = 10_000

    def subtree_height(tree):
        # h(v) >= m+1 iff at least two children reach m, the 2-ary DP
        h = {}
        children = tree.children
        for depth in range(tree.depth, -1, -1):
            for v in tree.level(depth):
                kids = sorted((h[v.child(j)] for j in children[v]),
                              reverse=True) if depth < tree.depth else []
                h[v] = (kids[1] + 1) if len(kids) >= 2 else 0
        return h[Word()]

    counts = np.zeros(6, dtype=int)
    for t in range(n_trees):
        tree = sample_gw(off, 5, seed=labeled_seed(0, "dp%d" % t)).tree
        hh = subtree_height(tree)
        counts[1: hh + 1] += 1
        if t < 25:  # the height recursion must agree with the witness DP
            for n in range(1, 6):
                assert (find_subtree(tree, SubtreePredicate(2), n) is not None) == (hh >= n)

    devs = []
    v = 0.0
    for n in range(1, 6):
        v = g.eval(v)[0]
        q_n = 1.0 - v
        freq = counts[n] / n_trees
        se = math.sqrt(q_n * (1.0 - q_n) / n_trees)
        devs.append(abs(freq - q_n) / max(se, 1e-15))
    elapsed = time.perf_counter() - t0
    ok = max(devs) <= 3.0 and elapsed < 120.0
    report(3, ok, "n=1..5 deviations (sigma) %s runtime %.1fs"
           % (["%.2f" % x for x in devs], elapsed))


def test_criterion_04_g_k_curve():
    t0 = time.perf_counter()
    off = Binomial(9, 0.6)
    low = [g_k_a_curve(off, k, math.ceil(2.0 ** k), 0.5, trials=100_000,
                       seed=labeled_seed(0, "c2k%d" % k))["value"]
           for k in range(1, 7)]
    decreasing = all(low[i + 1] < low[i] for i in range(5))
    high = [g_k_a_curve(off, k, math.ceil(6.0 ** k), 0.5, trials=100_000,
                        seed=labeled_seed(0, "c6k%d" % k))["value"]
            for k in range(1, 7)]
    elapsed = time.perf_counter() - t0
    ok = decreasing and low[-1] < 0.05 and high[-1] > 0.95 and elapsed < 300.0
    report(4, ok, "c=2 final %.3e decreasing=%s; c=6 at k=6 %.4f; runtime %.1fs"
           % (low[-1], decreasing, high[-1], elapsed))


def test_criterion_05_dimension_ladder():
    dims = []
    times = []
    for c in (2, 3, 4):
        t0 = time.perf_counter()
        rep = exp_dimension_ladder(3, 2, 0.7, c_sequence=(c,),
                                   seeds=(20, 21, 22, 23))
        times.append(time.perf_counter() - t0)
        assert rep.verdict == "pass", rep.notes
        est = next(e for e in rep.estimates if e["name"] == "boxdim_c%d" % c)
        assert abs(est["value"] - math.log(c) / math.log(3)) <= 0.1
        dims.append(est["value"])
    ok = dims[0] < dims[1] < dims[2] and max(times) < 180.0
    report(5, ok, "dims %s strictly increasing, per-point runtimes %s s"
           % (["%.4f" % x for x in dims], ["%.1f" % x for x in times]))


def test_criterion_06_diffuse_certificates(gallery):
    failures = []
    for name, es in gallery:
        res = empirical_diffuse_check(es.cloud(), es.beta, scale_count=3,
                                      sample_count=200,
                                      seed=labeled_seed(0, "cert" + name))
        assert res["tested"] >= 200
        if not res["pass"]:
            failures.append((name, res["witness"]))
    ok = not failures
    report(6, ok, "%d/%d outputs passed at certified beta (3 scales, "
           ">=200 balls each); failures: %s"
           % (len(gallery) - len(failures), len(gallery), failures or "none"))


def test_gallery_block_output_is_pinned(gallery):
    es = dict(gallery)["block b=3"]
    assert es.root_word.text == "0-0-0-0"
    assert hashlib.sha256(es.tree_text().encode()).hexdigest() \
        == "36a5128757de86ef6421bafe3f95b9fec32be3b82fbd2c10b1d8cdf01653f7fc"
    stats = es.stats
    assert (stats["child_tests"], stats["capped_nodes"], stats["nodes_sampled"]) \
        == (54797, 41, 43645046)


def test_criterion_07_ahlfors_spread(gallery):
    spreads = {}
    for name, es in gallery:
        res = ahlfors_ratio_check(es.measured_cloud(), es.alpha,
                                  sample_count=1000,
                                  seed=labeled_seed(0, "ahl" + name))
        spreads[name] = res.spread
    bounded = all(s <= 1e3 for s in spreads.values())

    # negative control: off by 0.3 in the exponent, spread grows with r-range
    name, es = gallery[0]
    mc = es.measured_cloud()
    r_hi = es.cloud().diameter() / 4.0
    narrow = ahlfors_ratio_check(mc, es.alpha + 0.3, sample_count=500, seed=0,
                                 r_range=(r_hi / 2.0, r_hi)).spread
    wide = ahlfors_ratio_check(mc, es.alpha + 0.3, sample_count=500, seed=0,
                               r_range=(r_hi / 50.0, r_hi)).spread
    growing = wide > narrow * 1.2
    ok = bounded and growing
    report(7, ok, "spreads %s all <= 1e3; control alpha+0.3 narrow %.2f -> "
           "wide %.2f" % ({k: round(v, 2) for k, v in spreads.items()},
                          narrow, wide))


def test_criterion_08_non_diffuse_witness():
    rep = exp_non_diffuseness(3, 2, 0.6, search_budget=10_000, seed=42,
                              depth=7)
    est = next(e for e in rep.estimates if e["name"] == "raw_search_best_ratio")
    ok = (rep.verdict == "pass" and est["witness_found"]
          and est["value"] <= 0.01 and est["n"] <= 10_000)
    report(8, ok, "verdict %s, width/xi %.3g after %d balls (budget 10^4)"
           % (rep.verdict, est["value"], est["n"]))


def test_criterion_09_appendix_b_gap():
    t0 = time.perf_counter()
    res = appendix_b_gap(0.9, 0.01, trials=100_000, seed=0)
    elapsed = time.perf_counter() - t0
    alpha, eps = res["alpha"], res["eps"]
    closed = 1.0 - (alpha + eps) * alpha ** 2
    exact_ok = (abs(res["g_of_q"] - closed) <= 1e-12
                and abs(res["q"] - (1.0 - alpha)) <= 1e-12
                and res["gap"] > 0.0)
    mc_dev = abs(res["mc_g_of_q"] - res["g_of_q"])
    mc_ok = mc_dev <= 3.0 * res["mc_g_se"]
    ok = exact_ok and mc_ok and elapsed < 60.0
    report(9, ok, "gap %.5f > 0, mc dev %.2fsigma, runtime %.1fs"
           % (res["gap"], mc_dev / max(res["mc_g_se"], 1e-15), elapsed))


def test_criterion_10_property_suites_standalone():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
        capture_output=True, text=True, timeout=150)
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed < 120.0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "?"
    report(10, ok, "standalone run: %s in %.1fs" % (tail, elapsed))
