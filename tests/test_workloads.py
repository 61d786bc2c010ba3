"""The benchmark's output checks (perfbench/workloads.py) on one round.

The benchmark refuses a run whose outputs fail its checks; running one round
of the extraction workloads here makes a change to witness trees or level
arrays fail the suite first.
"""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["block-extract", "section-extract"])
def test_extraction_workload_round_passes_its_checks(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    workload.before_round()
    ops = workload.operations()
    assert ops
    for op in ops:
        assert workload.check(op, op.call()) is None, op.name
