"""End-to-end and per-layer benchmark of the algact command line.

    python3 perfbench/run.py --workload dense-q --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: each job calls the real entry point
``algact.cli.main(argv, out=StringIO())`` on input files generated from the
seed, and the next job starts when the previous one returns.  Every job's
exit code and output are checked (see ``workloads.py``).  The program is
imported from ``src/`` next to this directory, never from elsewhere.

``--trace 0`` runs whole cycles of the workload's job mix until the summed
job time reaches ``--seconds`` and at least ``MIN_JOBS`` jobs ran, then
reports the end-to-end metrics; ``setup_s`` is the median of several fresh
imports of the program plus loading the inputs of cycle 0.  ``--trace 1``
runs the first cycle four times -- a warm-up, untraced, with spans around
the public functions of every module (``spans.py``), and with
scalar-operation counters -- checks that every pass prints byte-identical
output, and reports the per-layer metrics.  ``selfcheck.py`` tests the
benchmark itself.

The last line of standard output is the result object; the line before it is
a report with the environment, job counts per size class and per-job system
sizes.  Exit code 0 means the run completed; a run that cannot import the
program exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from collections import Counter
from io import StringIO
from pathlib import Path
from time import perf_counter

from hostspeed import NOMINAL_S, HostSpeed, reference_seconds
from spans import OpCounter, RrefProbe, SpanRecorder
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_JOBS = 110  # p90 needs at least ten samples beyond it
SETUP_REPEATS = 11
WALL_LIMIT_S = 150.0  # stop starting cycles after this, to exit well within 180 s
DEFAULT_SEED = 0
DIGESTS = HERE / "digests.json"  # output digest of cycle 0 at the default seed


class ProgramMissing(Exception):
    pass


def import_program():
    src = ROOT / "src"
    if not (src / "algact" / "__init__.py").is_file():
        raise ProgramMissing(f"no algact package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("algact.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"algact was imported from {cli.__file__}, not {src}")


def purge_program():
    for name in [m for m in sys.modules if m == "algact" or m.startswith("algact.")]:
        del sys.modules[name]


def load_inputs(files):
    """Read every input file through the program's public loaders."""
    from algact import ActionData, Algebra

    for kind, path in files:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if kind == "algebra":
            Algebra.from_json_dict(data)
        elif kind == "action":
            ActionData.from_json_dict(data)
        else:
            Algebra.from_json_dict(data["acting"])
            Algebra.from_json_dict(data["kernel"])


def measure_setup(files):
    """Median time to import the program afresh and load the inputs, in
    reference seconds; also returns the measured seconds."""
    samples, scaled = [], []
    for _ in range(SETUP_REPEATS):
        purge_program()
        ref = reference_seconds()
        t0 = perf_counter()
        importlib.import_module("algact.cli")
        load_inputs(files)
        samples.append(perf_counter() - t0)
        ref = (ref + reference_seconds()) / 2
        scaled.append(samples[-1] * NOMINAL_S / ref)
    return statistics.median(scaled), samples


def run_job(job):
    """One closed-loop job: (seconds, exit code, stdout)."""
    main = sys.modules["algact.cli"].main  # looked up per call: tracing may wrap it
    out, err = StringIO(), StringIO()
    t0 = perf_counter()
    try:
        code = main(job.argv, out=out, err=err)
    except Exception as exc:  # a traceback is a failed job, not a crashed benchmark
        code = f"raised {exc!r}"
    return perf_counter() - t0, code, out.getvalue()


class Checker:
    """Counts failed jobs; a job fails on a wrong exit code or output."""

    def __init__(self):
        self.seen = set()
        self.reasons = Counter()
        self.attempted = 0
        self.failed = 0

    def __call__(self, job, code, stdout):
        self.attempted += 1
        key = (job.label, code, hashlib.sha256(stdout.encode()).digest())
        if job.memo and key in self.seen:
            return True
        try:
            reason = job.check(code, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is not None:
            self.failed += 1
            self.reasons[f"{job.label}: {reason}"] += 1
            return False
        self.seen.add(key)
        return True

    def same(self, job, expected, result, what):
        """A re-run of ``job`` counts as failed unless it printed the same."""
        self.attempted += 1
        if result[1:] != expected[1:]:
            self.failed += 1
            self.reasons[f"{job.label}: {what} pass printed different output"] += 1


def cycle_digest(jobs, results):
    h = hashlib.sha256()
    for job, (_, code, stdout) in zip(jobs, results):
        h.update(f"{job.label}\0{code}\0{stdout}\0".encode())
    return h.hexdigest()


def percentile(samples, q):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def job_sizes(jobs, results, shapes_per_job):
    sizes = []
    for job, (_, code, stdout), shapes in zip(jobs, results, shapes_per_job):
        entry = {"label": job.label, **job.info, "rref_calls": len(shapes)}
        if shapes:
            rows, cols, rank = max(shapes, key=lambda s: s[0] * s[1])
            entry["rref"] = {"rows": rows, "cols": cols, "rank": rank}
        try:
            out = json.loads(stdout)
        except ValueError:
            out = {}
        if "components" in out:  # an operator space: unknown matrix entries
            entry["unknowns"] = len(out["components"]) * out["base"]["dim"] ** 2
        for key in ("dim", "count"):
            if key in out:
                entry["result_" + key] = out[key]
        sizes.append(entry)
    return sizes


def run_pass(jobs, instrument=None, host=None):
    """Each job once, with ``instrument`` installed; returns (results, shapes)
    where shapes holds the RREF calls the instrument saw, per job."""
    rrefs = getattr(instrument, "rrefs", [])
    results, shapes = [], []
    if instrument is not None:
        instrument.install()
    try:
        for job in jobs:
            before = len(rrefs)
            results.append(run_job(job))
            shapes.append(rrefs[before:])
            if host is not None:
                host.after_job(results[-1][0])
    finally:
        if instrument is not None:
            instrument.uninstall()
    return results, shapes


def timed_run(workload, seconds, corrupt=None):
    """Whole cycles until the summed job time reaches ``seconds``.

    Cycle 0 runs with :class:`RrefProbe` installed to record system sizes;
    it adds one wrapper call per RREF, microseconds against jobs that take
    milliseconds or more.  Times are reported in reference seconds (see
    ``hostspeed.py``); the report keeps the measured seconds too.
    """
    checker = Checker()
    samples, labels = [], Counter()
    host = HostSpeed()
    wall0 = perf_counter()
    k = 0
    while True:
        jobs = workload.cycle(k)
        if k == 0:
            first_jobs = jobs
            results, shapes = run_pass(jobs, RrefProbe(), host)
        else:
            results, _ = run_pass(jobs, host=host)
        for pos, (job, (dt, code, stdout)) in enumerate(zip(jobs, results)):
            samples.append(dt)
            labels[job.label] += 1
            checker(job, code, stdout if corrupt is None else corrupt(pos, stdout))
        if k == 0:
            first = results
        k += 1
        if sum(samples) >= seconds and len(samples) >= MIN_JOBS:
            break
        if perf_counter() - wall0 > WALL_LIMIT_S:
            break
    scaled = host.scale(samples)
    metrics = {
        "jobs_per_s": (len(scaled) / sum(scaled), "1/s"),
        "job_p50_s": (statistics.median(scaled), "s"),
        "job_p90_s": (percentile(scaled, 90), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    window = sum(samples)
    report = {
        "jobs": len(samples),
        "cycles": k,
        "window_s": window,
        "measured": {
            "jobs_per_s": len(samples) / window,
            "job_p50_s": statistics.median(samples),
            "job_p90_s": percentile(samples, 90),
        },
        "reference_s": {
            "nominal": NOMINAL_S,
            "median": statistics.median(r for _, r in host.marks),
            "marks": len(host.marks),
        },
        "jobs_per_label": dict(sorted(labels.items())),
        "job_sizes": job_sizes(first_jobs, first, shapes),
    }
    return checker, metrics, report, first_jobs, first


def traced_run(workload, corrupt=None):
    """Cycle 0 untraced, traced and counted; outputs must be identical.

    A warm-up pass comes first, so that the untraced pass the tracing
    overhead is measured against is not the only one to run cold.
    """
    checker = Checker()
    jobs = workload.cycle(0)
    warm, _ = run_pass(jobs)
    for pos, (job, (_, code, stdout)) in enumerate(zip(jobs, warm)):
        checker(job, code, stdout if corrupt is None else corrupt(pos, stdout))
    base_host, traced_host = HostSpeed(), HostSpeed()
    base, _ = run_pass(jobs, host=base_host)
    rec = SpanRecorder()
    traced, shapes = run_pass(jobs, rec, traced_host)
    counter = OpCounter()
    counted, _ = run_pass(jobs, counter)
    for what, results in (("untraced", base), ("traced", traced), ("counting", counted)):
        for job, expected, result in zip(jobs, warm, results):
            checker.same(job, expected, result, what)

    base_s = sum(r[0] for r in base)
    traced_s = sum(r[0] for r in traced)
    metrics = layer_metrics(rec, counter)
    metrics["cli.bytes_out"] = (sum(len(r[2].encode()) for r in traced), "B")
    metrics["trace.overhead_ratio"] = (
        sum(base_host.scale([r[0] for r in base]))
        / sum(traced_host.scale([r[0] for r in traced])), "ratio")
    metrics["trace.job_s"] = (traced_s, "s")
    metrics["trace.jobs"] = (len(jobs), "count")
    job_time = traced_s or 1.0
    report = {
        "jobs": len(jobs),
        "untraced_s": base_s,
        "jobs_per_label": dict(sorted(Counter(j.label for j in jobs).items())),
        "job_sizes": job_sizes(jobs, traced, shapes),
        "share_of_job_time": {
            "linalg.rref.self_s": metrics["linalg.rref.self_s"][0] / job_time,
            "actions.validate.self_s+mat_vec": (
                metrics["actions.validate.self_s"][0]
                + metrics["actions.validate.mat_vec_s"][0]) / job_time,
            "opspace.build.self_s": metrics["opspace.build.self_s"][0] / job_time,
            "opspace.selfcheck_s": metrics["opspace.selfcheck_s"][0] / job_time,
            "opspace.tensor_s": metrics["opspace.tensor_s"][0] / job_time,
            "cli.main.self_s": metrics["cli.main.self_s"][0] / job_time,
        },
        "self_s": dict(sorted(rec.self_time.items())),
    }
    return checker, metrics, report, jobs, base


TENSOR_SPANS = ("linalg.mat_mul", "linalg.mat_add", "linalg.mat_sub", "linalg.coords_in_span")


def layer_metrics(rec, counter):
    calls = lambda name: (rec.calls.get(name, 0), "count")
    self_s = lambda name: (rec.self_time.get(name, 0.0), "s")
    value = lambda key: (rec.values.get(key, 0), "count")
    validated = rec.calls.get("actions.validate", 0)
    return {
        "fields.ops": (counter.ops, "count"),
        "fields.is_zero": (counter.is_zero, "count"),
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.self_s": self_s("linalg.rref"),
        "linalg.rref.cells": value("linalg.rref.cells"),
        "linalg.rref.nnz": value("linalg.rref.nnz"),
        "linalg.rref.rank": value("linalg.rref.rank"),
        "linalg.nullspace_basis.self_s": self_s("linalg.nullspace_basis"),
        "linalg.coords_in_span.calls": calls("linalg.coords_in_span"),
        "linalg.coords_in_span.self_s": self_s("linalg.coords_in_span"),
        "linalg.mat_mul.calls": calls("linalg.mat_mul"),
        "linalg.mat_mul.self_s": self_s("linalg.mat_mul"),
        "linalg.mat_vec.calls": calls("linalg.mat_vec"),
        "linalg.mat_vec.self_s": self_s("linalg.mat_vec"),
        "algebra.check_identity.calls": calls("algebra.check_identity"),
        "algebra.check_identity.self_s": self_s("algebra.check_identity"),
        "algebra.is_homomorphism.calls": calls("algebra.is_homomorphism"),
        "algebra.is_homomorphism.self_s": self_s("algebra.is_homomorphism"),
        "opspace.build.calls": calls("opspace.build"),
        "opspace.build.self_s": self_s("opspace.build"),
        "opspace.selfcheck_s": (rec.total.get("opspace.selfcheck", 0.0), "s"),
        "opspace.tensor_s": (rec.child_time("opspace.build", TENSOR_SPANS), "s"),
        "opspace.unknowns": value("opspace.unknowns"),
        "opspace.dim": value("opspace.dim"),
        "actions.validate.calls": calls("actions.validate"),
        "actions.validate.self_s": self_s("actions.validate"),
        "actions.validate.mat_vec_s": (
            rec.child_time("actions.validate", ("linalg.mat_vec",)), "s"),
        "actions.validate.pass_ratio": (
            rec.values.get("actions.validate.passed", 0) / validated if validated else 0.0,
            "ratio"),
        "actions.enumerate.self_s": self_s("actions.enumerate"),
        "catalog.repro.self_s": self_s("catalog.repro"),
        "cli.main.self_s": self_s("cli.main"),
    }


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args, corrupt=None):
    """One benchmark run; returns (report, result)."""
    import_program()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        setup_files = [job.input for job in workload.cycle(0) if job.input]
        setup_s, setup_samples = measure_setup(setup_files)
        if args.trace:
            checker, metrics, report, jobs, results = traced_run(workload, corrupt)
        else:
            checker, metrics, report, jobs, results = timed_run(workload, args.seconds, corrupt)
            metrics["setup_s"] = (setup_s, "s")
    report = {**environment(args), **report, "setup_measured_s": setup_samples}
    failed_ratio = checker.failed / checker.attempted
    report["failed_ratio"] = failed_ratio
    report["failures"] = dict(checker.reasons.most_common(10))
    correct = checker.failed == 0
    if args.seed == DEFAULT_SEED:
        digest = cycle_digest(jobs, results)
        expected = json.loads(DIGESTS.read_text()).get(args.workload)
        report["cycle0_digest"] = digest
        if expected is not None and digest != expected:
            report["failures"]["cycle 0 output digest"] = 1
            correct = False
    if args.trace:
        metrics["failed_ratio"] = (failed_ratio, "ratio")
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return report, result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        report, result = run(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
