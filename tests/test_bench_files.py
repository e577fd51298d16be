"""Format of the committed benchmark results.

Each ``BENCH_*.json`` at the repository root records, for every workload
that ``BENCHMARK.json`` names, the result lines (the last stdout line of
``perfbench/run.py``) of the parent commit and of the change, under
``runs[workload]["parent"]`` and ``runs[workload]["change"]``.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_has_a_correct_parent_and_change_result_per_workload(path):
    runs = json.loads(path.read_text())["runs"]
    metrics = [m["name"] for m in BENCHMARK["end_to_end"]]
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for side in ("parent", "change"):
            results = runs[workload][side]
            assert results, (workload, side)
            for result in results:
                assert result["correct"] is True and result["failed"] == 0, (workload, side)
                assert all(m in result["metrics"] for m in metrics), (workload, side)
