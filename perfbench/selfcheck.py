"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py            # all checks, about a minute
    python3 perfbench/selfcheck.py --digests  # print digests.json afresh

* A corrupted job output counts toward ``failed`` and ``failed_ratio``.
* Scalar-operation counts and span call counts repeat exactly across runs of
  one seed, and job stdout is byte-identical between the untraced, traced
  and counting passes.
* Each mode prints exactly the metric names that BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def declared(kind):
    return {m["name"] for m in json.loads(BENCHMARK.read_text())[kind]}


def check_corruption():
    """Every third output is altered; each altered one must be counted."""
    altered = []

    def corrupt(pos, stdout):
        if pos % 3:
            return stdout
        bad = stdout.replace('"dim":', '"dim":1', 1).replace('"pass":true', '"pass":false', 1)
        if bad != stdout:
            altered.append(pos)
        return bad

    run.MIN_JOBS = 1  # one cycle is enough here
    args = run.parse_args(["--workload", "closure", "--seed", "3", "--seconds", "0"])
    report, result = run.run(args, corrupt=corrupt)
    assert altered, "the corruption changed nothing"
    assert result["failed"] == len(altered), (result["failed"], altered, report["failures"])
    assert result["correct"] is False
    assert report["failed_ratio"] == len(altered) / result["attempted"] > 0
    assert set(result["metrics"]) == declared("end_to_end"), set(result["metrics"])
    print(f"corruption: {len(altered)} altered outputs, {result['failed']} failed jobs, "
          f"failed_ratio {report['failed_ratio']:.3f}")


def check_trace_repeats():
    """Two traced runs of one seed give identical counts and clean output."""
    args = run.parse_args(["--workload", "dense-gf", "--seed", "5", "--trace", "1"])
    first = run.run(args)[1]
    second = run.run(args)[1]
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0, result
        assert set(result["metrics"]) == declared("per_layer"), set(result["metrics"])
    counts = [name for name, m in first["metrics"].items()
              if m["unit"] in ("count", "B")]
    for name in counts:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        assert a == b, f"{name}: {a} then {b}"
    print(f"trace: {len(counts)} counts repeat exactly "
          f"(fields.ops {first['metrics']['fields.ops']['value']}); "
          "untraced, traced and counting passes printed identical output")


def print_digests():
    digests = {}
    for name in sorted(run.WORKLOADS):
        args = run.parse_args(["--workload", name, "--seed", str(run.DEFAULT_SEED),
                               "--trace", "1"])
        report, result = run.run(args)
        assert result["failed"] == 0, report["failures"]
        digests[name] = report["cycle0_digest"]
    print(json.dumps(digests, indent=2, sort_keys=True))


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        print_digests()
    else:
        check_corruption()
        check_trace_repeats()
        print("selfcheck: ok")
