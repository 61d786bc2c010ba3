"""The benchmark's output checks (perfbench/workloads.py) on one round.

The benchmark refuses a run whose outputs fail its checks; running one round
of each workload here makes a change to witness trees, level arrays, the CLI
checks' verdicts or the solvers' values fail the suite first.
"""

import pathlib

import pytest

import gwfract.cli  # noqa: F401  (the verify workload calls it, as perfbench/run.py loads it)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _round_passes_its_checks(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    workload.before_round()
    ops = workload.operations()
    assert ops
    for op in ops:
        assert workload.check(op, op.call()) is None, op.name


@pytest.mark.parametrize("name", ["block-extract", "section-extract", "verify"])
def test_extraction_workload_round_passes_its_checks(name, tmp_path, monkeypatch):
    _round_passes_its_checks(name, tmp_path, monkeypatch)


def test_solve_workload_round_passes_its_checks(tmp_path, monkeypatch):
    # the solvers' values, the near-critical operation's included, against the
    # workload's own arithmetic
    _round_passes_its_checks("solve", tmp_path, monkeypatch)
