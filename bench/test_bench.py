"""Tests of the benchmark itself: the checker must be able to fail, and one
seed must always give the same inputs and the same counts.

Run from the root of the checkout:  python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from holorigid import cli  # noqa: E402


def _run(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(job.argv)
    return rc, out.getvalue()


def _rejects(job, doc):
    outcome = check.check(job, 0, json.dumps(doc))
    return not outcome.ok and outcome.wrong


def _quad1(tmp_path, argv_tail, kind, r, expected):
    path = tmp_path / "quad1.json"
    path.write_text((workloads.INPUTS / "quad1.json").read_text())
    return workloads.Job("t", ["certify", str(path)] + argv_tail, kind,
                         poly=workloads.read_poly(path), r=r,
                         expected_points=expected)


def test_exact_period_counts():
    assert [workloads.exact_period_count(2, r) for r in range(1, 9)] == \
        [2, 2, 6, 12, 30, 54, 126, 240]
    assert workloads.points_up_to(2, 6) == 106
    assert workloads.points_up_to(3, 4) == 3 + 6 + 24 + 72


def test_bounded_checker_rejects_corruption(tmp_path):
    job = _quad1(tmp_path, ["--mode", "bounded", "--r", "3"], "bounded", 3,
                 workloads.points_up_to(2, 3))
    rc, out = _run(job)
    assert check.check(job, rc, out).ok
    doc = json.loads(out)

    moved = copy.deepcopy(doc)
    moved["witness"]["point"][0][0] += 1e-3
    assert _rejects(job, moved)

    inflated = copy.deepcopy(doc)
    inflated["witness"]["abs_eigenvalue"] *= 1.01
    assert _rejects(job, inflated)

    clear = copy.deepcopy(doc)
    clear["verdict"] = "NoObstruction"
    assert _rejects(job, clear)

    overcount = copy.deepcopy(doc)
    overcount["metadata"]["orbits_examined"] = job.expected_points + 1
    assert _rejects(job, overcount)


def test_hypercyclic_and_cyclic_checker_reject_corruption(tmp_path):
    job = _quad1(tmp_path, ["--mode", "hypercyclic", "--r", "2"],
                 "hypercyclic", 2, workloads.points_up_to(2, 2))
    rc, out = _run(job)
    assert check.check(job, rc, out).ok
    doc = json.loads(out)
    doc["verdict"] = "NoObstruction"
    assert _rejects(job, doc)

    # u == 1 puts every point of period dividing r on one level
    job = _quad1(tmp_path, ["--mode", "cyclic", "--r", "2"], "cyclic", 2, 4)
    job.weight = {(0,): 1 + 0j}
    rc, out = _run(job)
    assert check.check(job, rc, out).ok
    doc = json.loads(out)
    assert doc["verdict"] == "NotCyclic"
    doc["witness"]["lambda"] = [2.0, 0.0]
    assert _rejects(job, doc)


def test_repelling_checker_recomputes_the_fixed_point():
    # f = (z1^2, z2), a = 1/2, U = I, p = (4, 0): f(aUp) = p, and
    # A = a Df(aUp) U = diag(2, 1/2) has A* p = 2 p
    job = workloads.Job("t", [], "repelling",
                        poly=workloads.read_poly(workloads.INPUTS / "sq2.json"))
    doc = {"a": 0.5, "U": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
           "p": [[4, 0], [0, 0]], "eta": 2.0,
           "tolerances": {"tol_fix": 1e-6, "tol_vec": 1e-6, "tol_eta": 1e-3}}
    assert check.check(job, 0, json.dumps(doc)).ok
    bad = copy.deepcopy(doc)
    bad["p"][0][0] = 4.001
    assert _rejects(job, bad)
    bad = copy.deepcopy(doc)
    bad["U"][0][0] = [0, 1]  # unitary, but det U = i
    assert _rejects(job, bad)


def test_fock_graded_duality_checkers_reject_corruption(tmp_path):
    jobs = {j.kind: j for j in workloads.build("fock-graded", 5, tmp_path)}
    fock_job = jobs["fock"]
    fock_job.argv[fock_job.argv.index("--N") + 1] = "8"
    fock_job.extra["N"] = 8
    duality = jobs["duality"]
    duality.argv[duality.argv.index("--instances") + 1] = "10"
    duality.extra["instances"] = 10
    for job, corrupt in (
            (fock_job, lambda d: d["sweep"][4].update(
                norm=d["sweep"][3]["norm"] * 0.5)),
            (jobs["graded"], lambda d: d.update(max_entry_mismatch=1e-3)),
            (duality, lambda d: d["flags"][0].__setitem__(
                0, not d["flags"][0][0]))):
        rc, out = _run(job)
        assert check.check(job, rc, out).ok, job.job_id
        doc = json.loads(out)
        corrupt(doc)
        assert _rejects(job, doc), job.job_id


def test_nonzero_exit_is_a_failure_not_a_wrong_output():
    job = workloads.Job("t", [], "duality", extra={"instances": 1})
    outcome = check.check(job, 2, "")
    assert not outcome.ok and not outcome.wrong


def test_same_seed_same_inputs_and_counts(tmp_path):
    first = workloads.build("orbits-2d", 7, tmp_path / "a")
    second = workloads.build("orbits-2d", 7, tmp_path / "b")
    other = workloads.build("orbits-2d", 8, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
               for n in names)
    assert (tmp_path / "a" / "henon_seeded.json").read_bytes() != \
        (tmp_path / "c" / "henon_seeded.json").read_bytes()

    job_a, job_b = first[1], second[1]
    assert job_a.job_id == job_b.job_id == "henon-seeded-bounded-r3"
    out_a, out_b = _run(job_a)[1], _run(job_b)[1]
    assert check.check(job_a, 0, out_a).found_points == \
        check.check(job_b, 0, out_b).found_points
    assert json.loads(out_a)["witness"] == json.loads(out_b)["witness"]
    assert len(other) == len(first)


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    import holorigid.cli
    import holorigid.dynamics
    import holorigid.henon
    import holorigid.rigidity

    originals = {(m, n): getattr(m, n) for m, n in (
        (holorigid.cli, "periodic_points_1d"), (holorigid.cli, "make_orbit"),
        (holorigid.rigidity, "periodic_points_1d"),
        (holorigid.henon, "certify_bounded"),
        (holorigid.dynamics, "periodic_points_1d"))}
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for (mod, name), fn in originals.items():
            assert getattr(mod, name) is not fn, f"{mod.__name__}.{name}"
        job = _quad1(tmp_path, ["--mode", "bounded", "--r", "3"], "bounded",
                     3, workloads.points_up_to(2, 3))
        tracer.begin_job(job.job_id)
        rc, out = _run(job)
        tracer.end_job()
    finally:
        tracer.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn
    assert check.check(job, rc, out).ok
    tot = tracer.layer_totals()
    assert tot["dynamics.periodic_points_1d.n"] == 3
    assert tot["dynamics.periodic_points_1d.roots_expected"] == 2 + 4 + 8
    assert tot["dynamics.make_orbit.n"] >= job.expected_points
    assert tot["dynamics.PolyMap.call.n"] > 0
    root = [s for s in tracer.spans if s.name == "job"][0]
    covered = sum(s.end - s.start for s in tracer.spans if s.parent is root)
    assert covered <= root.end - root.start
    assert all(s.self_s >= -1e-9 for s in tracer.spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_builds(tmp_path, workload):
    jobs = workloads.build(workload, 0, tmp_path)
    assert jobs and len({j.job_id for j in jobs}) == len(jobs)
    for job in jobs:
        assert job.kind in check.CHECKS
        assert job.argv[-2:] == ["--seed", "0"]
