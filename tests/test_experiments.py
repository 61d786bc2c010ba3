import contextlib
import io
import json
import math

import numpy as np
import pytest

import gwfract.experiments
from gwfract import geometry
from gwfract.branching import Binomial, labeled_seed, sample_gw
from gwfract.cli import main
from gwfract.extraction import ExtractedSubset
from gwfract.symbolic import FiniteTree, InvalidInputError, Word
from gwfract.geometry import PointCloud, _flat_ball_search, render, percolation_ifs
from gwfract.experiments import (
    EXPERIMENTS,
    ExperimentReport,
    exp_convergence_g_k,
    exp_dimension_ladder,
    exp_non_diffuseness,
    module_versions,
)


def small_convergence(**kw):
    args = dict(b=3, d=2, p=0.9, c=2, s=0.5, k_range=(1, 2, 3), trials=2000,
                seed=7)
    args.update(kw)
    return exp_convergence_g_k(**args)


def test_registry_names():
    assert set(EXPERIMENTS) == {"convergence-g-k", "dimension-ladder",
                                "non-diffuseness"}


def test_convergence_report_shape():
    rep = small_convergence()
    assert rep.experiment == "convergence_g_k"
    assert rep.verdict in ("pass", "fail", "inconclusive")
    names = [e["name"] for e in rep.estimates]
    assert "extinction_exact" in names
    for e in rep.estimates:
        assert set(("name", "value", "ci", "n")) <= set(e)
        assert e["ci"][0] <= e["value"] <= e["ci"][1]
    assert set(rep.versions) >= {"gwfract", "numpy", "scipy"}
    curve = rep.curves["g_k_curve"]
    assert curve["columns"][:3] == ["k", "a_k", "value"]
    assert len(curve["rows"]) == 3


def test_convergence_payload_deterministic():
    a = small_convergence()
    b = small_convergence()
    assert a.to_json() == b.to_json()
    assert a.runtime >= 0.0
    # runtime may differ between runs yet never leaks into the payload
    assert "runtime" not in a.payload()


def test_convergence_trivial_regime():
    rep = exp_convergence_g_k(b=2, d=1, p=1.0, c=2, s=0.0, k_range=(1, 2, 3),
                              trials=500, seed=0)
    curve = rep.curves["g_k_curve"]
    idx = curve["columns"].index("value")
    assert all(abs(float(r[idx])) < 1e-12 for r in curve["rows"])
    assert rep.verdict == "pass"


def test_convergence_rejects_small_c():
    with pytest.raises(InvalidInputError):
        exp_convergence_g_k(b=2, d=1, p=0.9, c=1.0, k_range=(1, 2))
    with pytest.raises(InvalidInputError):
        exp_convergence_g_k(b=2, d=1, p=0.9, c=1.5, k_range=())


def test_report_save_files(tmp_path):
    rep = small_convergence()
    path = rep.save(str(tmp_path))
    assert path.endswith("convergence_g_k.json")
    doc = json.loads((tmp_path / "convergence_g_k.json").read_text())
    assert doc["experiment"] == "convergence_g_k"
    assert "runtime" not in doc
    csvs = list(tmp_path.glob("convergence_g_k.*.csv"))
    assert csvs
    header = csvs[0].read_text().splitlines()[0]
    assert header.startswith("k,a_k,value")


def test_ladder_validates_c_sequence():
    with pytest.raises(InvalidInputError):
        exp_dimension_ladder(3, 2, 0.7, c_sequence=(7,))  # above the mean 6.3
    with pytest.raises(InvalidInputError):
        exp_dimension_ladder(3, 2, 0.7, c_sequence=(2.5,))


def test_ladder_block_scan_point():
    # pipeline "percolation" takes the block scan alone
    rep = exp_dimension_ladder(2, 2, 0.9, c_sequence=(2,), seeds=(0, 1),
                               pipeline="percolation")
    est = next(e for e in rep.estimates if e["name"] == "boxdim_c2")
    assert (est["pipeline"], est["seed"], est["leaf_count"]) == ("percolation", 0, 256)
    assert est["value"] == pytest.approx(1.0, abs=1e-9) and est["within_tol"]
    assert rep.verdict == "pass" and rep.notes == []


def _stub_witness(monkeypatch, root, levels):
    """Make the section pipeline return the full 3x3-grid witness with blocks
    of two letters (rho = 1/9), rooted at `root`, with `levels` levels."""
    es = ExtractedSubset(root_word=Word(root), subtree=FiniteTree.full(81, levels),
                         arity=81, alpha=2.0, beta=0.1, rho=1.0 / 9.0,
                         pipeline="general", seed=0, ifs=percolation_ifs(3, 2), k=2)
    monkeypatch.setattr(gwfract.experiments, "general_pipeline",
                        lambda *args, **kw: es)


def test_ladder_box_counts_at_the_witness_root_scales(monkeypatch):
    # a full two-level witness in cell 4 (side 1/3) counts 1, 81, 6561 boxes
    # at 1/3, 1/27, 1/243: dimension 2; at 1, 1/9, 1/81 it would read 1.5
    _stub_witness(monkeypatch, [4], 2)
    rep = exp_dimension_ladder(3, 2, 0.7, c_sequence=(2,), seeds=(0,),
                               pipeline="general", depth=3)
    rows = rep.curves["box_counts"]["rows"]
    assert [r[1] for r in rows] == pytest.approx([1 / 3, 1 / 27, 1 / 243], rel=1e-12)
    assert [r[2] for r in rows] == [1, 81, 6561]
    est = next(e for e in rep.estimates if e["name"] == "boxdim_c2")
    assert est["value"] == pytest.approx(2.0, abs=1e-9)


def test_ladder_short_witness_is_inconclusive(monkeypatch):
    # a one-level witness gives two box-count scales: the point is
    # inconclusive (CLI exit 3), not an invalid config (exit 2)
    _stub_witness(monkeypatch, [0, 0], 1)
    rep = exp_dimension_ladder(3, 2, 0.7, c_sequence=(2,), seeds=(0,),
                               pipeline="general", depth=3)
    assert rep.verdict == "inconclusive"
    assert not any(e["name"] == "boxdim_c2" for e in rep.estimates)
    assert "c=2: one-level witness at seed 0, point inconclusive" in rep.notes
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["experiment", "dimension-ladder", "--percolation", "b=3,d=2,p=0.7",
                     "--c-seq", "2", "--seeds", "0", "--pipeline", "general",
                     "--depth", "3", "--json"])
    assert code == 3


def test_flat_ball_search_finds_planted_outlier():
    rng = np.random.default_rng(5)
    pts = rng.random((600, 2)) * np.array([1.0, 0.002])
    pts = np.vstack([pts, [[0.5, 0.6]]])  # far outlier: its balls are 1-2 points
    cloud = PointCloud(pts, 1e-5)
    res = _flat_ball_search(cloud, beta=0.01, budget=2000, seed=0)
    assert res["found"] is not None
    found = res["found"]
    assert found["width"] <= 0.01 * found["xi"]
    assert res["examined"] <= 2000


def test_flat_ball_search_dense_grid_clean():
    cloud = render(percolation_ifs(3, 2), depth=5)
    res = _flat_ball_search(cloud, beta=0.01, budget=800, seed=1)
    assert res["found"] is None
    assert res["best"]["ratio"] > 0.01
    assert res["examined"] >= 800


def test_non_diffuseness_pinned_estimates():
    rep = exp_non_diffuseness(3, 2, 0.6, search_budget=1000, seed=42, depth=6)
    assert rep.verdict == "pass"
    got = {e["name"]: (e["value"], e["n"]) for e in rep.estimates}
    assert got == {"raw_search_best_ratio": (0.0, 701),
                   "raw_profile_worst_ratio": (0.2038413038957308, 900),
                   "control_best_ratio": (0.4242640687119286, 1000),
                   "subset_worst_ratio": (0.20839320503763198, 240)}


def test_flat_ball_search_floor_only_saves_work(monkeypatch):
    # the raw sample and the control of the pinned run above
    ifs = percolation_ifs(3, 2)
    tree = sample_gw(Binomial(9, 0.6), 6, seed=labeled_seed(42, "sample")).tree
    runs = [(render(ifs, tree=tree), labeled_seed(42, "search")),
            (render(ifs, depth=5), labeled_seed(42, "control"))]

    def searches():
        return [_flat_ball_search(cloud, 0.01, 1000, sd) for cloud, sd in runs]

    with_floor = searches()
    monkeypatch.setattr(geometry, "_SUBSET_FROM", math.inf)
    monkeypatch.setattr(geometry._BallWidths, "_ball_floor", lambda self, ball, xi: -math.inf)
    packing_only = searches()
    monkeypatch.setattr(geometry._BallWidths, "_floor", lambda self, x, xi, n, bar: -math.inf)
    without = searches()
    assert sum(r["cleared"] for r in with_floor) > 0
    assert all(r["cleared"] == 0 for r in without)
    # on the raw sample the subset and ball floors clear balls the packing floor cannot
    assert with_floor[0]["cleared"] > packing_only[0]["cleared"]
    for a, b, c in zip(with_floor, without, packing_only):
        for r in (a, b, c):
            r.pop("cleared")
        assert a == b == c


def test_non_diffuseness_rejects_sure_survival():
    with pytest.raises(InvalidInputError):
        exp_non_diffuseness(3, 2, 1.0)
    with pytest.raises(InvalidInputError):
        exp_non_diffuseness(2, 1, 0.3)
