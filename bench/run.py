"""Benchmark of the holorigid command line, end to end and layer by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload orbits-1d --seed 1 --seconds 15 --trace 0

One process runs one workload as a single closed-loop client: the jobs of
the workload's list run one after another through ``holorigid.cli.main``
in this process, each starting when the previous one returned, and the
pass repeats until ``--seconds`` have elapsed (at least one pass).  Every
job's output goes through ``check.py``.  The last line of standard output
is the result object; the line before it records the environment, the
seed and every per-job time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
passes plus the tracing overhead (traced minus untraced pass time).
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is imported: with default threading
# the 2-D fock job on a 2-core machine took 0.5 s to 1.3 s.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
WORK_DIR = ROOT / ".bench_work"

# metric names and units: BENCHMARK.json at the root of the checkout
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

# Times are reported at a reference speed: the machine this benchmark was
# defined on runs shared with other tenants, and its speed drifts by up to
# +-25% over tens of seconds, which no run short enough for the budget can
# average out.  A fixed kernel that does not touch holorigid is timed
# between jobs and, from a SIGALRM handler, every PROBE_INTERVAL_S inside
# a job (its time is taken out of the job's).  Each job's wall time is
# scaled by REF_NOMINAL_S times the kernel's mean speed over the samples
# from the one before the job to the one after it.  Raw wall times are
# kept in the run record.
REF_NOMINAL_S = 0.05
PROBE_INTERVAL_S = 0.5
_REF_MAP = ({(0, 1): 1 + 0j}, {(0, 2): 1 + 0j, (1, 0): -0.3 + 0j,
                               (0, 0): -3 + 0j})
_REF_POINTS = [np.array([complex(0.1 * k, 0.05), complex(-0.02 * k, 0.3)])
               for k in range(-150, 150)]


def reference_kernel() -> complex:
    """Damped Newton steps on the README Henon map, written out here: the
    same mix of dict-polynomial evaluation in Python and small numpy
    solves that dominates holorigid's point searches."""
    acc = 0j
    for p in _REF_POINTS:
        for _ in range(10):
            v = np.array([sum(c * p[0] ** a[0] * p[1] ** a[1]
                              for a, c in comp.items()) for comp in _REF_MAP])
            jac = np.array([[0, 1], [-0.3, 2 * p[1]]], dtype=complex)
            p = p - 0.1 * np.linalg.solve(jac - np.eye(2), v - p)
        acc += p[0]
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def at_reference_speed(raw: float, kernel_times: list) -> float:
    return raw * REF_NOMINAL_S * statistics.fmean(1.0 / t for t in kernel_times)


class InJobProbe:
    """Times the reference kernel every PROBE_INTERVAL_S while active.

    Python runs the handler in the main thread between bytecodes, so the
    job is paused, not raced; ``excluded`` is the time the samples took.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.excluded = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(time_reference())
        self.excluded += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


# ---------------------------------------------------------------------------
# set-up


def _purge_holorigid():
    for name in [n for n in sys.modules
                 if n == "holorigid" or n.startswith("holorigid.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, work: Path):
    """Import holorigid from this checkout and write the workload's inputs.

    Repeated SETUP_REPEATS times from a fresh import of the package (numpy
    stays loaded); returns the median time at reference speed, the raw
    times, the cli module and the jobs.
    """
    if not (SRC / "holorigid" / "__init__.py").is_file():
        raise SystemExit(f"error: no holorigid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    times, refs, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        refs.append(time_reference())
        _purge_holorigid()
        t0 = time.perf_counter()
        cli = importlib.import_module("holorigid.cli")
        jobs = workloads.build(workload, seed, work)
        times.append(time.perf_counter() - t0)
        digests.add(_tree_digest(work))
    refs.append(time_reference())
    if len(digests) != 1:
        raise SystemExit("error: the same seed generated different inputs")
    origin = Path(cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: holorigid imported from {origin}, not {SRC}")
    scaled = [at_reference_speed(t, refs[i:i + 2]) for i, t in enumerate(times)]
    return statistics.median(scaled), times, cli, jobs


def _tree_digest(path: Path, pattern: str = "*") -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob(pattern)):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# environment record


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        return "unknown"


def environment(seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC / "holorigid", "*.py"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "seed": seed,
        "holorigid_threads": 1,
    }


# ---------------------------------------------------------------------------
# passes


def run_pass(cli, jobs, tracer=None) -> list:
    """Run every job once, in order; return per-job records.

    Traced passes take kernel samples between jobs only, so that no sample
    lands inside a layer's span.
    """
    records = []
    before = time_reference()
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        probe = InJobProbe()
        if tracer is not None:
            tracer.begin_job(job.job_id)
        t0 = time.perf_counter()
        with contextlib.ExitStack() as stack:
            if tracer is None:
                stack.enter_context(probe)
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            try:
                rc = cli.main(job.argv)
            except Exception as exc:  # a crash is a failed job, not a stop
                rc = f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - t0 - probe.excluded
        if tracer is not None:
            tracer.end_job()
        after = time_reference()
        kernel_times = [before, *probe.samples, after]
        before = after
        outcome = check.check(job, rc, out.getvalue())
        if rc != 0:
            outcome.reason += f" {err.getvalue().strip().splitlines()[-1:]}"
        records.append({
            "job": job.job_id, "s": at_reference_speed(raw, kernel_times),
            "raw_s": raw, "kernel_s": kernel_times, "rc": rc,
            "ok": outcome.ok, "wrong": outcome.wrong, "reason": outcome.reason,
            "found": outcome.found_points, "expected": job.expected_points,
            "digest": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        })
    return records


def pass_summary(records: list) -> dict:
    found = expected = 0
    for rec in records:
        if rec["expected"] is None:
            continue
        expected += rec["expected"]
        found += rec["found"] if rec["ok"] else 0
    return {
        "wall_s": sum(r["s"] for r in records),
        "slowest_job_s": max(r["s"] for r in records),
        # workloads without a point-counting job have nothing to miss
        "points_recall": found / expected if expected else 1.0,
    }


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    tot = tracer.layer_totals()
    tot["dynamics.periodic_points_2d.converged_ratio"] = (
        tot.get("dynamics.periodic_points_2d.converged", 0.0)
        / tot["dynamics.periodic_points_2d.starts"]
        if tot.get("dynamics.periodic_points_2d.starts") else 0.0)
    tot["sphere.sphere_max.s_per_ascent"] = (
        tot.get("sphere.sphere_max.s", 0.0)
        / tot["sphere.sphere_max.ascents"]
        if tot.get("sphere.sphere_max.ascents") else 0.0)
    tot["sphere.construct_repelling.failures"] = tot.get(
        "sphere.construct_repelling.errors", 0.0)
    # leaves have no children, so their total time is their self time
    tot["jets.jet_multiply.self_s"] = tot.get("jets.jet_multiply.s", 0.0)
    tot["serialize.encode.self_s"] = tot.get("serialize.encode.s", 0.0)
    tot["trace.wall_s"] = traced_wall
    tot["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: tot.get(name, 0.0) for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        reference_kernel()  # first call warms caches
        setup_s, setup_raw, cli, jobs = setup(args.workload, args.seed, work)
        # numpy's LAPACK and the CLI's lazy imports load outside the timing
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["duality", "--instances", "2"])

        passes, traced = [], []
        t_start = time.perf_counter()
        while not passes or time.perf_counter() - t_start < args.seconds:
            passes.append(run_pass(cli, jobs))
            if args.trace:
                tracer = layers.Tracer()
                tracer.install()
                try:
                    traced.append((run_pass(cli, jobs, tracer), tracer))
                finally:
                    tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    all_records = [r for p in passes for r in p] + \
        [r for p, _ in traced for r in p]
    attempted = len(all_records)
    failed = sum(1 for r in all_records if not r["ok"])
    wrong = [r for r in all_records if r["wrong"]]
    digests = {}
    for rec in all_records:
        digests.setdefault(rec["job"], set()).add(rec["digest"])
    nondeterministic = sorted(j for j, d in digests.items() if len(d) > 1)
    correct = not wrong and not nondeterministic

    summaries = [pass_summary(p) for p in passes]
    med = {k: statistics.median(s[k] for s in summaries)
           for k in ("wall_s", "slowest_job_s", "points_recall")}
    if args.trace:
        runs = [layer_metrics(t, pass_summary(p)["wall_s"], s["wall_s"])
                for (p, t), s in zip(traced, summaries)]
        values = {name: statistics.median(lm[name] for lm in runs)
                  for name in PER_LAYER}
    else:
        values = {
            **med,
            "ok_share": 1.0 - failed / attempted,
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {name: {"value": v, "unit": UNITS[name]}
               for name, v in values.items()}

    detail = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "passes": len(passes),
        "traced_passes": len(traced),
        "jobs": {rec["job"]: {"rc": rec["rc"], "ok": rec["ok"],
                              "reason": rec["reason"], "found": rec["found"],
                              "expected": rec["expected"]}
                 for rec in passes[0]},
        "ref_nominal_s": REF_NOMINAL_S,
        "job_seconds": {job: [r["s"] for r in all_records if r["job"] == job]
                        for job in digests},
        "job_raw_seconds": {job: [r["raw_s"] for r in all_records
                                  if r["job"] == job] for job in digests},
        "kernel_samples_per_job": {job: [len(r["kernel_s"]) for r in all_records
                                         if r["job"] == job] for job in digests},
        "setup_raw_seconds": setup_raw,
        "wrong_outputs": [{"job": r["job"], "reason": r["reason"]}
                          for r in wrong],
        "nondeterministic_jobs": nondeterministic,
        "tracer_missing": traced[0][1].missing if traced else [],
    }
    print(json.dumps(detail, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
