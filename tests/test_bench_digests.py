"""The benchmark's in-process workloads reproduce their recorded digests.

Each of ``word-tables``, ``moments-gns`` and ``group-float`` from
``perfbench/workloads.py`` is built at the small size with seed 0 and every
step runs once: each check must pass with the digest recorded in
``perfbench/reference.json["small"]``.  The ``word-tables`` recursion step
also runs at full size (n_max 5) for every pool seed against
``reference.json["full"]``.  The tests only read ``perfbench/``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["word-tables", "moments-gns", "group-float"])
def test_small_workload_matches_reference(name):
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    expected = reference["small"][name]
    workload = _workloads().WORKLOADS[name](0, small=True)
    checks = [check for step in workload.steps for check in step(None)]
    assert sorted(label for label, _, _ in checks) == sorted(expected)
    for label, ok, digest in checks:
        assert ok, label
        assert digest == expected[label], label


def test_full_size_recursion_matches_reference_for_every_pool_seed():
    """``word-tables``' recursion step at full size (n_max 5) against its digests."""
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    expected = reference["full"]["word-tables"]["recursion-so3"]
    module = _workloads()
    assert len(expected) == module.POOL
    for seed, digest in enumerate(expected):
        workload = module.WordTables(seed)
        assert workload.recursion_n == 5
        ((label, ok, got),) = workload.recursion()
        assert (label, ok, got) == ("recursion-so3", True, digest), seed
