"""The benchmark's tracer (perfbench/tracer.py) wraps gwfract functions by name.

Installing it fails as soon as one of those names is gone, so this test keeps
the package and the benchmark in step.
"""

import pathlib

import numpy as np

import gwfract
import gwfract.cli  # noqa: F401  (the tracer wraps names in every gwfract module)
from gwfract import branching, fixpoint, geometry
from gwfract.symbolic import Word

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_records_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    originals = {
        "expand": branching.LazyGW.__dict__["expand"],
        "level_codes": branching.LazyGW.__dict__["level_codes"],
        "render_words": geometry.render_words,
        "bisect": fixpoint.smallest_fixed_point_bisect,
    }
    t = tracer.Tracer()
    t.install()
    try:
        assert gwfract.render_words is not originals["render_words"]
        lazy = gwfract.LazyGW(gwfract.Binomial(3, 0.8), seed=2)
        tree = lazy.expand(Word(), 3)
        codes = lazy.level_codes(Word(), 3)
        gwfract.render(gwfract.sierpinski_ifs(), tree=tree)
        # a FiniteTree renders from its letter arrays; word lists go through render_words
        gwfract.render_words(gwfract.sierpinski_ifs(), tree.level(3))
        gf = gwfract.GFunction(gwfract.Binomial(3, 0.9), gwfract.ary_collection(2))
        gwfract.smallest_fixed_point_bisect(gf)
    finally:
        t.uninstall()
    names = {s.name for s in t.spans}
    assert {"branching.LazyGW.expand", "branching.LazyGW.level_codes",
            "geometry.render", "geometry.render_words",
            "fixpoint.smallest_fixed_point_bisect", "fixpoint.GFunction.eval"} <= names
    walks = [s for s in t.spans if s.name == "branching.LazyGW.level_codes"]
    assert walks[0].counters["nodes"] > 0
    assert len(codes) == len(tree.level(3))
    renders = [s for s in t.spans if s.name == "geometry.render"]
    assert renders[0].counters["points"] == len(codes)
    assert branching.LazyGW.__dict__["expand"] is originals["expand"]
    assert branching.LazyGW.__dict__["level_codes"] is originals["level_codes"]
    assert geometry.render_words is originals["render_words"]
    assert gwfract.render_words is originals["render_words"]
    assert fixpoint.smallest_fixed_point_bisect is originals["bisect"]
    assert np.array_equal(np.sort(codes), np.sort(lazy.level_codes(Word(), 3)))


def test_tracer_counts_every_family_certificate(monkeypatch):
    # the section-extract grid run: each family certificate the predicate
    # counts in `certs`, plus the base family's, is one span of the public
    # name, so a certificate path that bypasses it would fail here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        es = gwfract.general_pipeline(gwfract.percolation_ifs(3, 2), gwfract.Binomial(9, 0.7),
                                      rho=3.0 ** -4, alpha=1.0, c=0.05, seed=20, n_levels=2)
    finally:
        t.uninstall()
    certs = [s for s in t.spans if s.name == "geometry.diffuseness_constant"]
    assert es.stats["certs"] == 88 and len(certs) == es.stats["certs"] + 1
