"""End-to-end CLI contract: subcommands, exit codes, formats, determinism."""

from __future__ import annotations

import json
import os
from dataclasses import fields, replace
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holorigid
from holorigid import cli, dynamics, fock, henon, jets, rigidity, sphere
from holorigid.cli import main
from holorigid.serialize import dump_polymap, encode, load_henon

SQUARE = {"dim": 1, "components": [[{"alpha": [2], "re": 1.0, "im": 0.0}]]}
SQUARE_MINUS_1 = {"dim": 1, "components": [[{"alpha": [2], "re": 1.0},
                                            {"alpha": [0], "re": -1.0}]]}
HALF = {"dim": 1, "components": [[{"alpha": [1], "re": 0.5, "im": 0.0}]]}
DOUBLE = {"dim": 1, "components": [[{"alpha": [1], "re": 2.0, "im": 0.0}]]}
TRANSLATION = {"dim": 1, "components": [[{"alpha": [0], "re": 1.0},
                                         {"alpha": [1], "re": 1.0}]]}
DIAG_2_HALF = {"dim": 2, "components": [
    [{"alpha": [1, 0], "re": 2.0}], [{"alpha": [0, 1], "re": 0.5}]]}
SQUARE_2D = {"dim": 2, "components": [
    [{"alpha": [2, 0], "re": 1.0}], [{"alpha": [0, 1], "re": 1.0}]]}
AFFINE_2D = {"dim": 2, "components": [
    [{"alpha": [1, 0], "re": 0.5}], [{"alpha": [0, 1], "re": 0.5}]]}
WEIGHT_ONE = {"dim": 1, "terms": [{"alpha": [0], "re": 1.0}]}
WEIGHT_Z = {"dim": 1, "terms": [{"alpha": [1], "re": 1.0}]}
WEIGHT_2D = {"dim": 2, "terms": [{"alpha": [0, 0], "re": 1.0},
                                 {"alpha": [1, 0], "re": 0.5}]}
HENON_STD = {"factors": [{"p": [-3, 0, 1], "delta": [0.3, 0.0]}]}
# (x, y) -> (y, y^2 - 3 - 0.3 x), the same map as a polynomial map of C^2
HENON_MAP = {"dim": 2, "components": [
    [{"alpha": [0, 1], "re": 1.0}],
    [{"alpha": [0, 2], "re": 1.0}, {"alpha": [0, 0], "re": -3.0},
     {"alpha": [1, 0], "re": -0.3}]]}
NEAR_ORIGIN = {"dim": 1, "components": [[{"alpha": [0], "re": 1e-13},
                                         {"alpha": [1], "re": 0.5}]]}
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


def _numpy_build() -> str:
    """numpy's version and BLAS/LAPACK names, for the message of a pin on
    last bits, which a different build may move."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        libs = " / ".join(f"{deps[k]['name']} {deps[k].get('version', '')}".strip()
                          for k in ("blas", "lapack"))
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        libs = "unreported BLAS / LAPACK"
    return f"numpy {np.__version__} on {libs}"


@pytest.fixture
def write(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return _write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def run_module(*argv):
    """``python -m holorigid.cli argv`` in a fresh process, for what reaches
    the real stderr (warnings, tracebacks)."""
    src = str(Path(holorigid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    return subprocess.run([sys.executable, "-m", "holorigid.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestGraded:
    def test_power_eigenvalue(self, capsys, write):
        code, doc = run(capsys, ["graded", write("f.json", DOUBLE),
                                 write("u.json", WEIGHT_ONE),
                                 "--point", "0", "--n", "3"])
        assert code == 0
        assert doc["eigenvalues"] == [[8.0, 0.0]]
        assert doc["max_entry_mismatch"] <= 1e-10
        assert doc["eigenvalue_law_match"]

    def test_diagonal_law(self, capsys, write):
        code, doc = run(capsys, ["graded", write("f.json", DIAG_2_HALF),
                                 "--point", "0,0", "--n", "2"])
        assert code == 0
        moduli = sorted(abs(complex(re, im)) for re, im in doc["eigenvalues"])
        assert moduli == pytest.approx([0.25, 1.0, 4.0])

    def test_self_check_failure_exits_2(self, capsys, write, monkeypatch):
        import holorigid.cli as cli_mod

        def broken(u, f, n):
            good = cli_mod.graded_matrix_formula(1.0, np.array([[2.0]]), n)
            return type(good)(n, 1, good.entries + 1.0, good.basis_order)

        monkeypatch.setattr(cli_mod, "graded_matrix_bruteforce", broken)
        code = main(["graded", write("f.json", DOUBLE), "--point", "0", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["max_entry_mismatch"] == 1.0
        assert captured.err == ("self-check failed: formula and brute-force "
                                "matrices differ by 1.000e+00\n")


class TestCertify:
    def test_square_bounded_unbounded(self, capsys, write):
        code, doc = run(capsys, ["certify", write("f.json", SQUARE),
                                 "--mode", "bounded"])
        assert code == 0
        assert doc["verdict"] == "Unbounded"
        assert doc["witness"]["eigenvalue"] == [2.0, 0.0]
        assert doc["witness"]["point"] == [[1.0, 0.0]]
        assert "higher_period" not in doc["witness"]
        assert any("graded image" in a for a in doc["assumptions"])

    def test_contraction_clear(self, capsys, write):
        code, doc = run(capsys, ["certify", write("f.json", HALF),
                                 "--mode", "bounded"])
        assert code == 0 and doc["verdict"] == "NoObstruction"

    def test_witness_does_not_follow_root_rounding(self, capsys, write, monkeypatch):
        # the conjugate period-6 orbits of z^2 - 1 tie on |multiplier|, as
        # do the six points of each; roots moved by a few ulps, in any order,
        # must give the same witness
        from holorigid import dynamics
        solve, rng = dynamics._approximations, np.random.default_rng(6)

        def perturbed(f, r):
            z = solve(f, r)[0]
            ulps = rng.integers(-3, 4, size=(2, len(z))) * np.finfo(float).eps
            z = rng.permutation(z.real * (1 + ulps[0]) + 1j * z.imag * (1 + ulps[1]))
            return z, dynamics._certificate(f, r, z)

        monkeypatch.setattr(dynamics, "_approximations", perturbed)
        path = write("f.json", SQUARE_MINUS_1)
        witnesses = [run(capsys, ["certify", path, "--mode", "bounded", "--r", "6"])[1]
                     ["witness"] for _ in range(6)]
        first = witnesses[0]
        assert first["period"] == 6
        for w in witnesses[1:]:
            assert w["period"] == first["period"]
            assert np.allclose(w["point"], first["point"], rtol=1e-12, atol=1e-14)

    def test_2d_witness_does_not_follow_point_rounding(self, capsys, write,
                                                       monkeypatch):
        # the points of one period-3 saddle orbit of the Henon map tie on
        # |multiplier| up to rounding; Newton points moved by a few ulps, in
        # unchanged order, must give the same witness
        from holorigid import dynamics
        solve, rng = dynamics._newton_lockstep, np.random.default_rng(7)
        searched = []

        def perturbed(f, periods, config):
            results = []
            for result in solve(f, periods, config):
                z = np.array(result.points)
                ulps = rng.integers(-3, 4, size=(2,) + z.shape) * np.finfo(float).eps
                z = z.real * (1 + ulps[0]) + 1j * z.imag * (1 + ulps[1])
                results.append(replace(result, points=tuple(tuple(p) for p in z)))
            searched.append(tuple(periods))
            return results

        monkeypatch.setattr(dynamics, "_newton_lockstep", perturbed)
        path = write("f.json", HENON_MAP)
        witnesses = [run(capsys, ["certify", path, "--mode", "bounded", "--r", "3",
                                  "--starts", "100"])[1]["witness"]
                     for _ in range(6)]
        assert searched == [(3, 2, 1)] * 6  # the patch ran in every run
        first = witnesses[0]
        assert first["period"] == 3 and first["stability"] == "saddle"
        for w in witnesses[1:]:
            assert w["period"] == first["period"]
            assert np.allclose(w["point"], first["point"], rtol=1e-12, atol=1e-14)

    def test_translation_hypercyclic_clear(self, capsys, write):
        code, doc = run(capsys, ["certify", write("f.json", TRANSLATION),
                                 "--mode", "hypercyclic", "--r", "3"])
        assert code == 0 and doc["verdict"] == "NoObstruction"
        assert doc["witness"]["search_complete"]

    def test_affine_with_fixed_point_not_hypercyclic(self, capsys, write):
        affine = {"dim": 1, "components": [[{"alpha": [0], "re": 0.5},
                                            {"alpha": [1], "re": 0.5}]]}
        code, doc = run(capsys, ["certify", write("f.json", affine),
                                 "--mode", "hypercyclic"])
        assert code == 0 and doc["verdict"] == "NotHypercyclic"
        assert doc["witness"]["point"] == [[1.0, 0.0]]  # b/(1-a) = 1

    def test_cyclic_count_four(self, capsys, write):
        code, doc = run(capsys, ["certify", write("f.json", SQUARE),
                                 write("u.json", WEIGHT_ONE),
                                 "--mode", "cyclic", "--r", "2"])
        assert code == 0
        assert doc["verdict"] == "NotCyclic"
        assert doc["witness"]["count"] == 4
        assert doc["witness"]["lambda"] == [1.0, 0.0]

    def test_vanishing_weight_inapplicable_exit_3(self, capsys, write):
        code, doc = run(capsys, ["certify", write("f.json", HALF),
                                 write("u.json", WEIGHT_Z),
                                 "--mode", "bounded"])
        assert code == 3
        assert doc["verdict"] == "Inapplicable"
        assert doc["witness"]["note"] == ("weight cocycle vanishes on the "
                                          "orbit; the eigenvalue bound does "
                                          "not apply")

    @pytest.mark.parametrize("fmap, weight, want, code", [
        # z^2 - z - 1 vanishes at both fixed points of z^2 - 1
        (SQUARE_MINUS_1, {"dim": 1, "terms": [
            {"alpha": [2], "re": 1.0}, {"alpha": [1], "re": -1.0},
            {"alpha": [0], "re": -1.0}]}, "Inapplicable", 3),
        ({"dim": 1, "components": [[{"alpha": [2], "re": 1.0},
                                    {"alpha": [0], "re": 0.25}]]},
         None, "NoObstruction", 0),
    ], ids=["vanishing-weight", "parabolic"])
    def test_a_missed_obstruction_is_stated(self, capsys, write, fmap, weight,
                                            want, code):
        argv = ["certify", write("f.json", fmap), "--mode", "bounded", "--r", "1"]
        if weight is not None:
            argv[2:2] = [write("u.json", weight)]
        got, doc = run(capsys, argv)
        assert (got, doc["verdict"]) == (code, want)
        assert doc["witness"]["higher_period"] == rigidity.HIGHER_PERIOD

    def test_point_override(self, capsys, write):
        code, doc = run(capsys, ["certify", write("f.json", SQUARE),
                                 "--mode", "compact", "--point", "1"])
        assert code == 0
        assert doc["verdict"] == "NonCompact"
        assert doc["witness"]["abs_eigenvalue"] == 2.0

    def test_overflowing_walk_is_one_error_line(self):
        # 5 escapes under z^2 - 1: the walk reaches inf, then NaN, and the
        # closure test rejects it with no numpy warning on stderr
        proc = run_module("certify", str(BENCH_INPUTS / "quad1.json"), "--mode",
                          "bounded", "--r", "12", "--point", "5")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: f^12(p) - p has residual nan\n"

    def test_overflowing_two_variable_walk_is_one_error_line(self):
        # the residual norm of a Henon walk from (1e30, 1e30) overflows in
        # BLAS ddot; one errstate per walk keeps its warning off stderr
        proc = run_module("certify", str(BENCH_INPUTS / "henon_readme.json"),
                          "--mode", "bounded", "--r", "3", "--point", "1e30,1e30")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: f^3(p) - p has residual inf\n"

    def test_non_finite_multiplier_is_refused(self, write):
        # in floating point f(0) = 1 and f(1) rounds to 0, so the walk closes
        # only by rounding and f'(0) f'(1) = -1e320 overflows
        rounded = {"dim": 1, "components": [[
            {"alpha": [0], "re": 1.0}, {"alpha": [1], "re": 1e160},
            {"alpha": [2], "re": -1e160}]]}
        proc = run_module("certify", write("f.json", rounded), "--mode",
                          "bounded", "--r", "2", "--point", "0")
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr == ("precondition rejected: the witness field "
                               "'multipliers' holds a non-finite number\n")

    @pytest.mark.parametrize("mode", ["bounded", "compact", "cyclic"])
    def test_overflowing_cocycle_is_one_line(self, write, mode):
        # the cocycle of 1 + 1e300 z^40 along the cycles of z^2 - 1
        # overflows: no numpy warning joins the one line
        weight = {"dim": 1, "terms": [{"alpha": [0], "re": 1.0},
                                      {"alpha": [40], "re": 1e300}]}
        proc = run_module("certify", write("f.json", SQUARE_MINUS_1),
                          write("u.json", weight), "--mode", mode, "--r", "3")
        assert proc.returncode == 4 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("precondition rejected: ")

    def test_overflowing_jet_names_the_point(self):
        proc = run_module("graded", str(BENCH_INPUTS / "sq2.json"), "--n", "2",
                          "--point", "1e200,0")
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr == ("precondition rejected: the Taylor expansion at "
                               "((1e+200+0j), 0j) overflows\n")

    @pytest.mark.parametrize("form", ["json", "human"])
    def test_non_finite_payload_is_refused(self, capsys, write, monkeypatch, form):
        # no subcommand prints NaN or Infinity, which strict parsers reject
        monkeypatch.setattr(rigidity, "TOL_WEIGHT", float("nan"))
        code = main(["certify", write("f.json", SQUARE), "--mode", "bounded",
                     "--r", "1", "--format", form])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == ("precondition rejected: the result holds a "
                                "non-finite number\n")

    def test_identity_search_is_not_complete(self, capsys, write):
        # every point is fixed: one generic orbit is a witness, but the
        # points cannot all be listed
        identity = {"dim": 1, "components": [[{"alpha": [1], "re": 1.0}]]}
        code, doc = run(capsys, ["certify", write("f.json", identity),
                                 "--mode", "hypercyclic", "--r", "1"])
        assert code == 0
        assert doc["verdict"] == "NotHypercyclic"
        assert doc["metadata"]["search"]["complete"] is False

    @pytest.mark.parametrize("r, complete", [(5, True), (6, True)])
    def test_complete_needs_every_root(self, capsys, write, r, complete):
        code, doc = run(capsys, ["certify", write("f.json", SQUARE_MINUS_1),
                                 "--mode", "bounded", "--r", str(r)])
        assert code == 0
        assert doc["metadata"]["search"]["complete"] is complete

    @pytest.mark.parametrize("doc, r, complete", [
        (SQUARE_MINUS_1, 3, True),
        (TRANSLATION, 2, True),  # 0 of 0 roots
        ({"dim": 1, "components": [[{"alpha": [1], "re": -1.0}]]}, 2, False),
        # z^2 + 1e8: all 8 roots of f^3(z) - z miss the orbit tolerance
        ({"dim": 1, "components": [[{"alpha": [2], "re": 1.0},
                                    {"alpha": [0], "re": 1e8}]]}, 3, False),
    ], ids=["z^2-1", "z+1", "-z", "z^2+1e8"])
    def test_cyclic_search_completeness(self, capsys, write, doc, r, complete):
        code, out = run(capsys, ["certify", write("f.json", doc),
                                 "--mode", "cyclic", "--r", str(r)])
        assert code == 0
        assert out["metadata"]["search"] == {"complete": complete}

    def test_cyclic_counts_only_walked_orbits(self, capsys, write):
        # a root of f^4(z) - z closes in the root search but not in the
        # orbit walk: cyclic leaves it out, as bounded and hypercyclic do
        quadc = {"dim": 1, "components": [[
            {"alpha": [2], "re": 1.0},
            {"alpha": [0], "re": -2138.8257435130076, "im": 1159.7557898703005}]]}
        code, doc = run(capsys, ["certify", write("f.json", quadc),
                                 "--mode", "cyclic", "--r", "4"])
        assert code == 0
        assert doc["witness"]["points_found"] == 14
        assert doc["metadata"]["search"] == {"complete": False}
        # u = 1: every point is on the level 1, which the witness lists
        assert doc["verdict"] == "NotCyclic" and doc["witness"]["count"] == 14
        rejected = [[47.313805745776875, -12.127834442468746]]
        assert rejected not in doc["witness"]["level_points"]

    def test_multiple_root_is_not_complete(self, capsys, write):
        # z + z^2 has a double fixed point at 0: one point for two roots
        parabolic = {"dim": 1, "components": [[{"alpha": [1], "re": 1.0},
                                               {"alpha": [2], "re": 1.0}]]}
        code, doc = run(capsys, ["certify", write("f.json", parabolic),
                                 "--mode", "bounded", "--r", "1"])
        assert code == 0
        assert doc["metadata"]["search"]["complete"] is False

    def test_supercyclic_mode(self, capsys, write):
        code, doc = run(capsys, ["certify", write("f.json", SQUARE),
                                 "--mode", "supercyclic"])
        assert code == 0 and doc["verdict"] == "NotSupercyclic"
        assert "dim V >= 2" in doc["assumptions"]


class TestSearchRepelling:
    def test_square_component(self, capsys, write, tmp_path):
        prof = tmp_path / "profile.csv"
        code, doc = run(capsys, ["search-repelling", write("f.json", SQUARE_2D),
                                 "--s-range=-1.0:2.5", "--s-steps", "25",
                                 "--starts", "80", "--grid-starts", "12",
                                 "--profile-out", str(prof), "--seed", "3"])
        assert code == 0
        assert doc["eta"] == pytest.approx(2.0, abs=1e-3)
        assert doc["residual_fix"] <= 1e-6
        assert doc["residual_eigvec"] <= 1e-6
        lines = prof.read_text().splitlines()
        assert lines[0] == "s,H,H_prime"
        assert len(lines) == 26
        # the construction reads H up to the growth point's right neighbour,
        # and H' there would need the next H
        rows = [line.split(",") for line in lines[1:]]
        idx = next(i for i, (s, _, _) in enumerate(rows)
                   if float(s) == pytest.approx(doc["s"]))
        assert all(h and hp for _, h, hp in rows[1:idx + 1])
        assert rows[idx + 1][1] and not rows[idx + 1][2]
        assert all(not h and not hp for _, h, hp in rows[idx + 2:])

    def test_affine_exit_4(self, capsys, write):
        code, _ = run(capsys, ["search-repelling", write("f.json", AFFINE_2D)])
        assert code == 4

    def test_bad_range_recoverable(self, capsys, write):
        code, _ = run(capsys, ["search-repelling", write("f.json", SQUARE_2D),
                               "--s-range=-4.0:-3.0", "--s-steps", "5"])
        assert code == 1

    def test_overflow_exit_4_without_traceback(self, write):
        # ||f|| overflows on every sphere of radius e^300 .. e^400
        proc = run_module("search-repelling", write("f.json", SQUARE_2D),
                          "--s-range=300:400")
        assert proc.returncode == 4
        assert proc.stderr.startswith("precondition rejected:")
        assert "radius 1.94243e+130" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    def test_radii_past_the_growth_point_may_overflow(self):
        # e^s overflows from s = 709.8 on, far past the growth point at
        # s = 65.75, so the construction reads none of those radii and no
        # warning reaches stderr
        proc = run_module("search-repelling", str(BENCH_INPUTS / "sq2.json"),
                          "--s-range=-1:800", "--seed", "101")
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["s"] == 65.75

    @pytest.mark.parametrize("name", ["sq2.json", "henon_readme.json", "mix3.json"])
    def test_underflowing_radii_exit_4_without_traceback(self, name):
        # e^-800 is 0 and e^-745.8 subnormal: eigh used to see NaN and raise
        # LinAlgError; the Henon map's ||f||^2 stays near 9, but r^2 underflows
        proc = run_module("search-repelling", str(BENCH_INPUTS / name),
                          "--s-range=-800:-700", "--seed", "101")
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr == ("precondition rejected: r^2 or ||f||^2 underflowed "
                               "at a start on the sphere of radius 0\n")

    @pytest.mark.parametrize("name, iterations, rows", [
        ("sq2.json", 18, 3002), ("henon_readme.json", 24, 4483),
        ("mix3.json", 68, 10366)])
    def test_newton_row_steps_of_the_bench_inputs(self, capsys, monkeypatch,
                                                  name, iterations, rows):
        # every ascent stops at MAX_ITER, its Newton decrement, the Armijo
        # rounding floor or on overflow; the count is of rows, since one
        # step moves every live row, and it pins the whole search.  The
        # profile, polish and sides share one lockstep, whose steps are
        # counted too
        counted = [0, 0]
        newton_steps = sphere._newton_steps

        def counting(x, *args):
            counted[0] += 1
            counted[1] += len(x)
            return newton_steps(x, *args)

        monkeypatch.setattr(sphere, "_newton_steps", counting)
        path = Path(__file__).resolve().parents[1] / "bench" / "inputs" / name
        code, _ = run(capsys, ["search-repelling", str(path), "--seed", "101"])
        assert code == 0 and counted == [iterations, rows], (
            f"{name}: {counted} Newton iterations and row-steps on {_numpy_build()}")

    def test_definite_rows_skip_eigh(self, capsys, monkeypatch):
        # on mix3 most rows have a negative definite tangent Hessian, whose
        # saddle-free step is the plain Newton step: eigh must not see them
        counted = {"newton": 0, "eigh": 0}
        newton_steps, eigh = sphere._newton_steps, np.linalg.eigh

        def counting_steps(x, *args):
            counted["newton"] += len(x)
            return newton_steps(x, *args)

        def counting_eigh(a):
            counted["eigh"] += len(a)
            return eigh(a)

        monkeypatch.setattr(sphere, "_newton_steps", counting_steps)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        path = Path(__file__).resolve().parents[1] / "bench" / "inputs" / "mix3.json"
        code, _ = run(capsys, ["search-repelling", str(path), "--seed", "101"])
        assert code == 0 and 2 * counted["eigh"] <= counted["newton"]


    def test_hessian_terms_past_float_range_exit_4(self, write):
        # ||f||^2 and its Hessian terms overflow on the larger spheres: the
        # run ended in a LinAlgError traceback from eigh
        big = write("big.json", {"dim": 2, "components": [
            [{"alpha": [1, 0], "re": 7.5e153}, {"alpha": [2, 0], "re": 1.0}],
            [{"alpha": [0, 1], "re": 2.5e153}]]})
        proc = run_module("search-repelling", big)
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr.startswith("precondition rejected: ||f|| overflowed")
        assert proc.stderr.count("\n") == 1


class TestFock:
    def test_contraction_profile(self, capsys, write, tmp_path):
        prof = tmp_path / "p.csv"
        code, doc = run(capsys, ["fock", write("f.json", HALF), "--N", "12",
                                 "--profile-out", str(prof)])
        assert code == 0
        assert doc["truncated_norm"] == pytest.approx(1.0, abs=1e-9)
        for row in doc["profile"]:
            assert row["norm"] == pytest.approx(2.0 ** -row["n"], abs=1e-9)
        assert "n,norm,flag" in prof.read_text()

    def test_square_sweep_diverges_with_loss_stars(self, capsys, write, tmp_path):
        sweep = tmp_path / "s.csv"
        code, doc = run(capsys, ["fock", write("f.json", SQUARE), "--N", "14",
                                 "--sweep-out", str(sweep)])
        assert code == 0
        norms = [row["norm"] for row in doc["sweep"]]
        assert norms[-1] > norms[2] > 1.0
        text = sweep.read_text().splitlines()
        assert any(line.endswith("*") for line in text[1:])
        assert doc["truncation_loss"]

    def test_cap_past_float_factorials_exit_4(self):
        # sqrt(171!) is past float range; 170 still builds
        proc = run_module("fock", str(BENCH_INPUTS / "quad1.json"), "--N", "171")
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr == ("precondition rejected: N = 171: sqrt(N!) is "
                               "past float range\n")

    def test_overflowing_matrix_exit_4(self, write):
        # the powers of 1e150 z + z^2 overflow from degree 3 on
        big = write("big.json", {"dim": 1, "components": [
            [{"alpha": [1], "re": 1e150}, {"alpha": [2], "re": 1.0}]]})
        proc = run_module("fock", big, "--N", "6")
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr == ("precondition rejected: N = 6: the matrix has a "
                               "non-finite entry\n")

    def test_any_constant_term_moves_the_origin(self, capsys, write):
        code, doc = run(capsys, ["fock", write("f.json", NEAR_ORIGIN), "--N", "4"])
        assert code == 0 and doc["fixes_origin"] is False  # f(0) = 1e-13
        assert "not invariant" in doc["invariance_warning"]

    def test_matrix_dump(self, capsys, write, tmp_path):
        out = tmp_path / "m.json"
        code, _ = run(capsys, ["fock", write("f.json", HALF), "--N", "4",
                               "--matrix-out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["basis"] == [[0], [1], [2], [3], [4]]
        assert doc["entries"][1][1] == [0.5, 0.0]


class TestHenonCommand:
    def test_standard_saddle(self, capsys, write):
        code, doc = run(capsys, ["henon", write("h.json", HENON_STD),
                                 "--r-max", "1", "--starts", "120"])
        assert code == 0
        assert doc["verdict"] == "Unbounded"
        assert doc["witness"]["stability"] == "saddle"

    def test_zero_delta_schema_error(self, capsys, write):
        bad = {"factors": [{"p": [0, 0, 1], "delta": 0}]}
        code, _ = run(capsys, ["henon", write("h.json", bad)])
        assert code == 1

    def test_is_certify_bounded(self, capsys, write):
        path = write("h.json", HENON_STD)
        assert main(["henon", path, "--r-max", "2", "--starts", "60"]) == 0
        alias = capsys.readouterr().out
        assert main(["certify", path, "--mode", "bounded", "--r", "2",
                     "--starts", "60"]) == 0
        assert capsys.readouterr().out == alias

    def test_search_record_is_in_the_metadata(self, capsys, write):
        # no multistart is exhaustive: the periods searched, their starts
        # and the incomplete flag are the record of every period
        code, doc = run(capsys, ["henon", write("h.json", HENON_STD),
                                 "--r-max", "2", "--starts", "30"])
        search = doc["metadata"]["search"]
        assert code == 0 and search["complete"] is False
        assert list(search) == ["complete", "r=1", "r=2"]
        assert all(search[f"r={r}"]["starts"] == 30 for r in (1, 2))

    def test_factors_certify_as_their_coefficient_map(self, capsys, write):
        comp = load_henon(HENON_STD)
        argv = ["--mode", "bounded", "--r", "3", "--starts", "80", "--seed", "5"]
        code, doc = run(capsys, ["certify", write("h.json", HENON_STD), *argv])
        assert code == 0
        code, want = run(capsys, ["certify", write("f.json", dump_polymap(
            henon.to_polymap(comp))), *argv])
        assert code == 0
        # the same orbit; the dumped tables hold their terms in another
        # order, so its coordinates round differently
        wit = doc["witness"]
        assert list(wit) == [*want["witness"], "henon_factors",
                             "jacobian_determinant"]
        assert wit["henon_factors"] == 1 and wit["jacobian_determinant"] == [0.3, 0]
        for key, value in want["witness"].items():
            if isinstance(value, str):
                assert wit[key] == value
            else:
                assert np.allclose(wit[key], value, rtol=1e-9, atol=1e-12), key
        assert doc["assumptions"] == want["assumptions"] + [
            henon.ASSUME_REDUCTION_SUPPLIED]
        assert doc["metadata"] == want["metadata"]

    def test_factors_and_components_is_schema_error(self, capsys, write):
        both = {**HENON_STD, **HENON_MAP}
        code = main(["certify", write("h.json", both), "--mode", "bounded"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("schema error: map: ")

    def test_cyclic_on_factors_is_rejected(self, capsys, write):
        code = main(["certify", write("h.json", HENON_STD), "--mode", "cyclic"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("precondition rejected: the cyclic")


class TestWeightOnAnotherSpace:
    """A weight whose dim is not the map's exits 4 with one message, before
    any work, in every subcommand that takes a weight."""

    @pytest.mark.parametrize("command, fmap, weight, flags", [
        ("graded", SQUARE_MINUS_1, WEIGHT_2D, ["--n", "2"]),
        ("graded", HENON_MAP, WEIGHT_ONE, ["--n", "2", "--point", "1,2"]),
        ("certify", SQUARE_MINUS_1, WEIGHT_2D, ["--mode", "bounded"]),
        ("certify", HENON_MAP, WEIGHT_ONE, ["--mode", "bounded", "--starts", "20"]),
        ("certify", HENON_MAP, WEIGHT_ONE,
         ["--mode", "hypercyclic", "--starts", "20"]),
        ("certify", SQUARE_MINUS_1, WEIGHT_2D, ["--mode", "cyclic", "--r", "2"]),
        ("fock", SQUARE_MINUS_1, WEIGHT_2D, ["--N", "4"]),
        ("fock", HENON_MAP, WEIGHT_ONE, ["--N", "4"]),
        ("henon", HENON_STD, WEIGHT_ONE, ["--r-max", "1", "--starts", "20"]),
    ], ids=["graded-1d", "graded-2d", "certify-bounded-1d", "certify-bounded-2d",
            "certify-hypercyclic", "certify-cyclic", "fock-1d", "fock-2d",
            "henon"])
    def test_exit_4(self, capsys, write, command, fmap, weight, flags):
        code = main([command, write("f.json", fmap), write("u.json", weight),
                     *flags])
        captured = capsys.readouterr()
        spaces = ("C^2, the map on C^1" if weight is WEIGHT_2D
                  else "C^1, the map on C^2")
        assert code == 4
        assert captured.out == ""
        assert captured.err == f"precondition rejected: weight is on {spaces}\n"


LB_L = [[[0.0, 0.0]], [[0.0, 0.0]]]
LB_B = [[[1.0, 0.0]], [[0.0, 1.0]]]


class TestDuality:
    def test_random_instances_agree(self, capsys):
        code, doc = run(capsys, ["duality", "--instances", "30", "--seed", "7"])
        assert code == 0
        assert doc["all_agree"] and doc["disagreements"] == 0

    def test_explicit_input(self, capsys, tmp_path):
        lb = {"L": [[[0.0, 0.0]], [[0.0, 0.0]]],
              "B": [[[1.0, 0.0]], [[0.0, 1.0]]]}
        path = tmp_path / "lb.json"
        path.write_text(json.dumps(lb))
        code, doc = run(capsys, ["duality", "--input", str(path)])
        assert code == 0
        assert doc["image_cond"] and doc["kernel_cond"] and doc["agree"]

    def test_one_disagreement_exits_2_with_one_line(self, capsys, monkeypatch):
        # the instances go to the check in stacks: flip instance 1's
        # kernel_cond where the stack holds its B
        b1 = list(_duality_instances(7, 2, 6, 4))[1][1]
        check, flipped = rigidity.duality_check, []

        def disagree_once(l_mat, b_mat):
            flags = check(l_mat, b_mat)
            hit = (np.all(b_mat == b1, axis=(-2, -1)) if b_mat.shape[1:] == b1.shape
                   else np.zeros(len(b_mat), dtype=bool))
            flipped.append(int(hit.sum()))
            return flags._replace(kernel_cond=np.where(
                hit, ~flags.image_cond, flags.kernel_cond))

        monkeypatch.setattr(rigidity, "duality_check", disagree_once)
        code = main(["duality", "--instances", "5", "--seed", "7"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert sum(flipped) == 1
        assert code == 2
        assert doc["disagreements"] == 1 and doc["all_agree"] is False
        assert doc["flags"][1][0] != doc["flags"][1][1]
        assert captured.err == "self-check failed: 1 of 5 instances disagree\n"

    def test_stacks_match_one_check_per_instance(self, capsys):
        # 600 instances fill two whole stacks and part of a third
        assert 2 * cli._DUALITY_CHUNK < 600
        code, doc = run(capsys, ["duality", "--instances", "600", "--rows", "7",
                                 "--cols", "3", "--seed", "3"])
        want = [list(rigidity.duality_check(l_mat, b))
                for l_mat, b in _duality_instances(3, 600, 7, 3)]
        assert code == 0 and doc["instances"] == 600
        assert doc["flags"] == want
        assert {image for image, _ in want} == {True, False}

    @pytest.mark.parametrize("doc", [
        {"L": [[[float("nan"), 0.0]], [[0.0, 0.0]]], "B": LB_B},
        {"L": LB_L, "B": [[[1.0, 0.0]], [[float("inf"), 1.0]]]},
        {"L": [[[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "B": LB_B},
        {"L": LB_L},
        {"L": [0.0, 1.0], "B": LB_B},
        {"L": LB_L, "B": [[[1.0, 0.0]], [[0.0, 1.0, 2.0]]]},
        {"L": LB_L, "B": [[True], [[0.0, 1.0]]]},
        {"L": [], "B": []},
        [LB_L],
    ], ids=["nan", "inf", "ragged", "missing-B", "bare-row", "triple",
            "bool", "empty", "not-an-object"])
    def test_malformed_input_is_schema_error(self, capsys, write, doc):
        code = main(["duality", "--input", write("lb.json", doc)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("schema error: duality")
        assert captured.err.count("\n") == 1

    def test_input_entries_are_numbers_or_pairs(self, capsys, write):
        # a bare number is a real entry, as everywhere in a document
        pairs = {"L": [[[2.0, 0.0]], [[0.0, 0.0]]], "B": LB_B}
        bare = {"L": [[2], [0.0]], "B": [[1.0], [[0.0, 1.0]]]}
        _, want = run(capsys, ["duality", "--input", write("p.json", pairs)])
        code, doc = run(capsys, ["duality", "--input", write("b.json", bare)])
        assert code == 0 and doc == want


def _duality_instances(seed, count, rows, cols):
    """The (L, B) pairs ``duality`` draws from its seed, in order."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        width = int(rng.integers(1, rows + 1))
        b = rng.normal(size=(rows, width)) + 1j * rng.normal(size=(rows, width))
        if k % 2 == 0:
            l_mat = b @ (rng.normal(size=(width, cols))
                         + 1j * rng.normal(size=(width, cols)))
        else:
            l_mat = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        yield l_mat, b


class TestSinglePath:
    """Every subcommand finishes through ``main``: ``metadata`` is the last
    key with ``seed`` first, ``--format human`` renders the JSON payload and
    ``--out`` gets the bytes stdout would."""

    @pytest.mark.parametrize("argv, metadata", [
        (["graded", "henon_readme.json", "--n", "3", "--point", "1,2"], []),
        (["certify", "quad1.json", "--mode", "bounded", "--r", "3"],
         ["orbits_examined", "mode", "search"]),
        (["search-repelling", "sq2.json", "--starts", "20", "--grid-starts", "4",
          "--s-steps", "5"], ["starts"]),
        (["fock", "henon_readme.json", "--N", "4"], []),
        (["henon", "henon.json", "--r-max", "1", "--starts", "40"],
         ["orbits_examined", "mode", "search"]),
        (["duality", "--instances", "4"], []),
    ], ids=["graded", "certify", "search-repelling", "fock", "henon", "duality"])
    def test_stamp_render_and_write_once(self, capsys, tmp_path, argv, metadata):
        argv = [str(BENCH_INPUTS / a) if a.endswith(".json") else a
                for a in argv] + ["--seed", "11"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert list(doc)[-1] == "metadata"
        assert list(doc["metadata"]) == ["seed", *metadata]
        assert doc["metadata"]["seed"] == 11

        assert main(argv + ["--format", "human"]) == 0
        assert capsys.readouterr().out == "\n".join(cli._render_human(doc)) + "\n"

        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_bytes() == text.encode()

    def test_repelling_payload_is_the_construction(self, capsys, monkeypatch):
        # every field of the construction but its profile, in declaration
        # order, between the subcommand name and the tolerances
        built = []
        construct = sphere.construct_repelling

        def keep(*args, **kwargs):
            built.append(construct(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(sphere, "construct_repelling", keep)
        code, doc = run(capsys, ["search-repelling", str(BENCH_INPUTS / "sq2.json"),
                                 "--starts", "20", "--grid-starts", "4",
                                 "--s-steps", "5"])
        names = [f.name for f in fields(built[0]) if f.name != "profile"]
        assert code == 0
        assert list(doc) == ["subcommand", *names, "tolerances", "metadata"]
        assert doc["eigenvalues"] == encode(list(built[0].eigenvalues))
        assert doc["U"] == encode(built[0].U)


class TestContract:
    def test_unknown_flag_is_usage_error(self, capsys, write):
        code, _ = run(capsys, ["certify", write("f.json", SQUARE),
                               "--mode", "bounded", "--bogus"])
        assert code == 1

    def test_threads_flag_is_gone(self, capsys, write):
        code = main(["certify", write("f.json", SQUARE),
                     "--mode", "bounded", "--threads", "2"])
        assert code == 1
        assert "--threads" in capsys.readouterr().err

    def test_schema_error_names_field(self, capsys, write):
        code = main(["certify", write("f.json", {"dim": 1}),
                     "--mode", "bounded"])
        captured = capsys.readouterr()
        assert code == 1
        assert "missing field 'components'" in captured.err

    @pytest.mark.parametrize("key, value", [
        ("re", "NaN"), ("re", "-Infinity"), ("re", "1e400"), ("im", "true"),
        ("alpha", "[true]")])
    @pytest.mark.parametrize("kind", ["map", "weight"])
    def test_non_finite_or_boolean_number_is_schema_error(self, capsys, tmp_path,
                                                          write, key, value, kind):
        # json reads NaN, Infinity and 1e400 as non-finite floats and true as
        # 1; they ended in LinAlgError or TypeError tracebacks
        fields = {"alpha": "[0]", "re": "1.0", key: value}
        term = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        bad = tmp_path / "bad.json"
        if kind == "map":
            bad.write_text(f'{{"dim": 1, "components": [[{term}, {{"alpha": [2], "re": 1}}]]}}')
            files = [str(bad)]
        else:
            bad.write_text(f'{{"dim": 1, "terms": [{term}]}}')
            files = [write("f.json", SQUARE), str(bad)]
        code = main(["certify", *files, "--mode", "bounded", "--r", "2"])
        captured = capsys.readouterr()
        field = "map.components[0]" if kind == "map" else "weight.terms"
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"schema error: {field}[0].{key}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, flag", [
        (["certify", str(BENCH_INPUTS / "quad1.json"), "--mode", "bounded",
          "--r", "2"], "--out"),
        (["fock", str(BENCH_INPUTS / "quad1.json"), "--N", "4"], "--sweep-out"),
        (["fock", str(BENCH_INPUTS / "quad1.json"), "--N", "4"], "--profile-out"),
        (["fock", str(BENCH_INPUTS / "quad1.json"), "--N", "4"], "--matrix-out"),
        (["search-repelling", str(BENCH_INPUTS / "sq2.json"), "--seed", "101"],
         "--profile-out")], ids=["certify-out", "fock-sweep-out", "fock-profile-out",
                                 "fock-matrix-out", "search-repelling-profile-out"])
    def test_unwritable_output_is_one_line_exit_1(self, capsys, tmp_path, argv, flag):
        # a missing directory ended in a FileNotFoundError traceback
        path = tmp_path / "missing" / "out"
        code = main(argv + [flag, str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"write error: {path}: No such file or "
                                "directory\n")

    def test_output_path_on_a_directory_is_one_line_exit_1(self, tmp_path):
        proc = run_module("certify", str(BENCH_INPUTS / "quad1.json"), "--mode",
                          "bounded", "--r", "2", "--out", str(tmp_path))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"write error: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("bad", ["directory", "undecodable"])
    @pytest.mark.parametrize("kind", ["map", "weight", "duality"])
    def test_unreadable_document_is_schema_error(self, capsys, tmp_path, write,
                                                 kind, bad):
        # a directory ended in IsADirectoryError, bytes that are not UTF-8
        # in UnicodeDecodeError
        path = tmp_path / "doc.json"
        if bad == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{}")
        argv = {"map": ["certify", str(path), "--mode", "bounded"],
                "weight": ["certify", write("f.json", SQUARE), str(path),
                           "--mode", "bounded"],
                "duality": ["duality", "--input", str(path)]}[kind]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"schema error: {path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("levels", [",", "", " , "])
    def test_lambda_without_a_level_is_usage_error(self, capsys, levels):
        # "," tested no level and printed NoObstruction, "" clustered instead
        code = main(["certify", str(BENCH_INPUTS / "quad1.json"), "--mode",
                     "cyclic", "--r", "2", "--lambda", levels])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"usage error: --lambda holds no level: {levels!r}\n"

    def test_determinism_byte_identical(self, capsys, write):
        argv = ["certify", write("f.json", SQUARE), "--mode", "bounded",
                "--seed", "9"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_human_format_renders_same_payload(self, capsys, write):
        code, text = run(capsys, ["certify", write("f.json", SQUARE),
                                  "--mode", "bounded", "--format", "human"])
        assert code == 0
        assert 'verdict: "Unbounded"' in text

    def test_seed_env_override(self, capsys, write, monkeypatch):
        monkeypatch.setenv("HOLO_SEED", "123")
        code, doc = run(capsys, ["certify", write("f.json", SQUARE),
                                 "--mode", "bounded"])
        assert code == 0
        assert doc["metadata"]["seed"] == 123

    @pytest.mark.parametrize("seed, message", [
        ("abc", "invalid int value: 'abc'"), ("-1", "must be >= 0, got -1")])
    def test_malformed_seed_env_is_usage_error(self, capsys, monkeypatch, seed,
                                               message):
        monkeypatch.setenv("HOLO_SEED", seed)
        code = main(["duality", "--instances", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"usage error: argument --seed: {message}\n"
        assert captured.out == ""
        # an explicit --seed never reads the variable
        code, doc = run(capsys, ["duality", "--instances", "2", "--seed", "5"])
        assert code == 0 and doc["metadata"]["seed"] == 5

    def test_output_file(self, capsys, write, tmp_path):
        out = tmp_path / "cert.json"
        code, _ = run(capsys, ["certify", write("f.json", SQUARE),
                               "--mode", "bounded", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["verdict"] == "Unbounded"

    @pytest.mark.parametrize("argv", [
        ["graded", "DOUBLE", "--n", "-1"],
        ["fock", "HALF", "--N", "-1"],
        ["search-repelling", "SQUARE_2D", "--s-range", "1"],
        ["search-repelling", "SQUARE_2D", "--s-range", "a:b"],
        ["search-repelling", "SQUARE_2D", "--s-steps", "2"],
        ["search-repelling", "SQUARE_2D", "--starts", "0", "--grid-starts", "0"],
        ["search-repelling", "SQUARE_2D", "--grid-starts", "0"],
        ["duality", "--rows", "0"],
        ["duality", "--cols", "0"],
        ["duality", "--instances", "0"],
        *(["certify", "SQUARE", "--mode", mode, "--r", "0"]
          for mode in ("bounded", "compact", "cyclic", "hypercyclic",
                       "supercyclic")),
        ["certify", "SQUARE", "--mode", "bounded", "--starts", "0"],
        ["henon", "HENON_STD", "--r-max", "0"],
        ["henon", "HENON_STD", "--starts", "0"],
        ["certify", "SQUARE", "--mode", "bounded", "--point", "1,2"],
        ["graded", "DOUBLE", "--n", "1", "--point", "1,2"],
        # as in a JSON document, every number must be finite
        ["certify", "SQUARE", "--mode", "cyclic", "--r", "2", "--lambda", "inf"],
        ["certify", "SQUARE", "--mode", "cyclic", "--r", "2", "--lambda", "1,-infj"],
        ["certify", "SQUARE", "--mode", "bounded", "--r", "1", "--point", "nan"],
        ["certify", "SQUARE", "--mode", "bounded", "--r", "1", "--point", "1e400"],
        ["graded", "DOUBLE", "--n", "2", "--point", "nan"],
        ["graded", "SQUARE_2D", "--n", "2", "--point", "1,1e400j"],
        ["search-repelling", "SQUARE_2D", "--s-range=-1:inf"],
        ["search-repelling", "SQUARE_2D", "--s-range=nan:1"],
        ["search-repelling", "SQUARE_2D", "--s-range=-1e400:1"],
        *([*argv, "--seed", "-1"] for argv in (
            ["graded", "DOUBLE", "--n", "1"], ["fock", "HALF"],
            ["certify", "SQUARE", "--mode", "bounded"],
            ["certify", "SQUARE_2D", "--mode", "hypercyclic"],
            ["search-repelling", "SQUARE_2D"], ["henon", "HENON_STD"],
            ["duality"])),
    ], ids=lambda argv: " ".join(argv))
    def test_out_of_range_number_is_usage_error(self, capsys, write, argv):
        docs = {"DOUBLE": DOUBLE, "HALF": HALF, "SQUARE": SQUARE,
                "SQUARE_2D": SQUARE_2D, "HENON_STD": HENON_STD}
        argv = [write(f"{a}.json", docs[a]) if a in docs else a for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("usage error:")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("argv", [
        *(["--mode", mode, "--point", "1"]
          for mode in ("cyclic", "hypercyclic", "supercyclic")),
        *(["--mode", mode, "--lambda", "2"]
          for mode in ("bounded", "compact", "hypercyclic", "supercyclic")),
    ], ids=lambda argv: " ".join(argv))
    def test_ignored_certify_flag_is_usage_error(self, capsys, write, argv):
        code = main(["certify", write("f.json", SQUARE), "--r", "2", *argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("usage error: --")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("fmap", [HENON_MAP, BENCH_INPUTS / "mix3.json"],
                             ids=["henon", "mix3"])
    def test_cyclic_on_several_variables_names_no_library_keyword(self, capsys, write,
                                                                  fmap):
        path = write("f.json", fmap) if isinstance(fmap, dict) else str(fmap)
        code = main(["certify", path, "--mode", "cyclic"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("precondition rejected: the cyclic")
        assert "points=" not in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("mode, verdict", [
        ("bounded", rigidity.UNBOUNDED), ("compact", rigidity.NON_COMPACT),
        ("hypercyclic", rigidity.NOT_HYPERCYCLIC),
        ("supercyclic", rigidity.NOT_SUPERCYCLIC)])
    def test_three_variables_search_by_multistart(self, capsys, mode, verdict):
        code, doc = run(capsys, ["certify", str(BENCH_INPUTS / "mix3.json"),
                                 "--mode", mode, "--r", "2", "--seed", "101"])
        assert code == 0 and doc["verdict"] == verdict
        search = doc["metadata"]["search"]
        assert list(search) == ["complete", "r=1", "r=2"] and not search["complete"]
        for record in (search["r=1"], search["r=2"]):
            assert record["starts"] == 400 and record["seed"] == 101
            assert 0 < record["converged"] <= 400
        assert doc["tolerances"].items() >= MULTISTART_TOLS.items()

    def test_three_variable_orbit_counts(self, capsys):
        # orbits of exact period 1..r that 400 starts find on mix3; at r = 3,
        # 1600 starts find 613, so no search is complete
        counts = []
        for r in (1, 2, 3):
            code, doc = run(capsys, ["certify", str(BENCH_INPUTS / "mix3.json"),
                                     "--mode", "bounded", "--r", str(r),
                                     "--seed", "101"])
            assert code == 0 and doc["metadata"]["search"]["complete"] is False
            counts.append(doc["metadata"]["orbits_examined"])
        assert counts == [9, 66, 312], f"{counts} orbits on {_numpy_build()}"


REPELLING_ARGS = ["--s-range=-1.0:2.5", "--starts", "80", "--grid-starts", "12",
                  "--seed", "3"]
MULTIPLIER_TOLS = {"tol_class": dynamics.TOL_CLASS,
                   "tol_weight": rigidity.TOL_WEIGHT,
                   "tol_orbit": dynamics.TOL_ORBIT}
MULTISTART_TOLS = {"newton_residual": dynamics.NEWTON_RESIDUAL,
                   "escape_norm": dynamics.ESCAPE_NORM,
                   "dedup_radius": dynamics.DEDUP_RADIUS}


class TestPrintedTolerances:
    """Every printed ``tolerances`` block holds the constants its decision
    reads, and patching one of them moves the print and the decision
    together."""

    @pytest.mark.parametrize("fmap, mode, want", [
        (SQUARE, "bounded", MULTIPLIER_TOLS),
        (SQUARE, "compact", MULTIPLIER_TOLS),
        (SQUARE, "hypercyclic", {"tol_orbit": dynamics.TOL_ORBIT}),
        (SQUARE, "supercyclic", {"tol_orbit": dynamics.TOL_ORBIT}),
        (SQUARE, "cyclic", {"tol_level_scale": rigidity.TOL_LEVEL_SCALE,
                            "tol_orbit": dynamics.TOL_ORBIT}),
        # z + 1 has no periodic orbit to test, and prints the same block
        *((TRANSLATION, mode, MULTIPLIER_TOLS) for mode in ("bounded", "compact")),
    ], ids=["bounded", "compact", "hypercyclic", "supercyclic", "cyclic",
            "bounded-no-orbit", "compact-no-orbit"])
    def test_certify(self, capsys, write, fmap, mode, want):
        code, doc = run(capsys, ["certify", write("f.json", fmap),
                                 "--mode", mode, "--r", "2"])
        assert code == 0
        assert doc["tolerances"] == want
        if mode in ("bounded", "compact"):
            assert doc["assumptions"] == [rigidity.ASSUME_GRADED_IMAGE,
                                          rigidity.ASSUME_CONTINUOUS_INCLUSION]

    @pytest.mark.parametrize("argv, want", [
        *((["certify", "HENON_MAP", "--mode", mode], MULTIPLIER_TOLS)
          for mode in ("bounded", "compact")),
        *((["certify", "HENON_MAP", "--mode", mode], {"tol_orbit": dynamics.TOL_ORBIT})
          for mode in ("hypercyclic", "supercyclic")),
        (["henon", "HENON_STD", "--r-max", "1"], MULTIPLIER_TOLS),
    ], ids=["bounded", "compact", "hypercyclic", "supercyclic", "henon"])
    def test_two_variable_multistart(self, capsys, write, argv, want):
        docs = {"HENON_MAP": HENON_MAP, "HENON_STD": HENON_STD}
        argv = [write(f"{a}.json", docs[a]) if a in docs else a for a in argv]
        code, doc = run(capsys, argv + ["--starts", "40"])
        assert code == 0
        assert doc["tolerances"] == {**want, **MULTISTART_TOLS}

    def test_supplied_point_prints_no_multistart_cuts(self, capsys, write):
        # (2.5, 2.5) is a fixed point of (x, y) -> (y, y^2 - 3 - 0.3 x)
        code, doc = run(capsys, ["certify", write("f.json", HENON_MAP),
                                 "--mode", "bounded", "--point", "2.5,2.5"])
        assert code == 0 and doc["tolerances"] == MULTIPLIER_TOLS

    def test_patched_escape_norm(self, capsys, write, monkeypatch):
        argv = ["certify", write("f.json", HENON_MAP), "--mode", "hypercyclic",
                "--starts", "40"]
        assert run(capsys, argv)[1]["witness"]["orbits_found"] > 0
        monkeypatch.setattr(dynamics, "ESCAPE_NORM", 1e-3)  # every start escapes
        code, doc = run(capsys, argv)
        assert code == 0 and doc["witness"]["orbits_found"] == 0
        assert doc["metadata"]["search"]["r=1"]["converged"] == 0
        assert doc["tolerances"]["escape_norm"] == 1e-3

    def test_search_repelling(self, capsys, write):
        code, doc = run(capsys, ["search-repelling", write("f.json", SQUARE_2D),
                                 *REPELLING_ARGS])
        assert code == 0
        assert doc["tolerances"] == {
            "tol_fix": sphere.TOL_FIX, "tol_vec": sphere.TOL_VEC,
            "tol_eta": sphere.TOL_ETA, "tol_unitary": sphere.TOL_UNITARY,
            "tol_jac": sphere.TOL_JAC, "tol_lagrange": sphere.TOL_LAGRANGE}

    def test_fock(self, capsys, write):
        code, doc = run(capsys, ["fock", write("f.json", HALF), "--N", "4"])
        assert code == 0
        assert doc["tolerances"] == {
            "truncation_coeff_tol": fock.TRUNCATION_COEFF_TOL,
            "tail_tol": fock.TAIL_TOL, "power_steps": fock.POWER_STEPS}

    def test_graded(self, capsys, write):
        code, doc = run(capsys, ["graded", write("f.json", DOUBLE),
                                 "--point", "0", "--n", "3"])
        assert code == 0
        assert doc["tolerances"] == {"agreement": cli.GRADED_AGREEMENT_TOL,
                                     "tol_eig": jets.TOL_EIG}

    def test_patched_weight_tolerance(self, capsys, write, monkeypatch):
        monkeypatch.setattr(rigidity, "TOL_WEIGHT", 10.0)  # above |u_r| = 1
        code, doc = run(capsys, ["certify", write("f.json", SQUARE),
                                 "--mode", "bounded"])
        assert code == 3 and doc["verdict"] == rigidity.INAPPLICABLE
        assert doc["tolerances"]["tol_weight"] == 10.0

    def test_patched_level_tolerance(self, capsys, write, monkeypatch):
        argv = ["certify", write("f.json", SQUARE), "--mode", "cyclic", "--r", "2"]
        assert run(capsys, argv)[1]["verdict"] == rigidity.NOT_CYCLIC
        monkeypatch.setattr(rigidity, "TOL_LEVEL_SCALE", -1.0)  # no two levels meet
        code, doc = run(capsys, argv)
        assert code == 0 and doc["verdict"] == rigidity.NO_OBSTRUCTION
        assert doc["tolerances"]["tol_level_scale"] == -1.0

    def test_patched_eigenvalue_tolerance(self, capsys, write, monkeypatch):
        monkeypatch.setattr(jets, "TOL_EIG", -1.0)  # no pair can match
        code, doc = run(capsys, ["graded", write("f.json", DOUBLE),
                                 "--point", "0", "--n", "3"])
        assert code == 0 and not doc["eigenvalue_law_match"]
        assert doc["tolerances"]["tol_eig"] == -1.0

    def test_patched_eigenvector_tolerance(self, capsys, write, monkeypatch):
        path = write("f.json", SQUARE_2D)
        monkeypatch.setattr(sphere, "TOL_VEC", 0.5)
        code, doc = run(capsys, ["search-repelling", path, *REPELLING_ARGS])
        assert code == 0 and doc["tolerances"]["tol_vec"] == 0.5
        monkeypatch.setattr(sphere, "TOL_VEC", -1.0)  # every residual fails
        assert main(["search-repelling", path, *REPELLING_ARGS]) == 1
        assert "adjoint eigenvector residual too large" in capsys.readouterr().err

    def test_patched_class_tolerance(self, capsys, write, monkeypatch):
        argv = ["certify", write("f.json", SQUARE), "--mode", "bounded"]
        code, doc = run(capsys, argv)
        assert code == 0 and doc["verdict"] == rigidity.UNBOUNDED
        assert doc["witness"]["stability"] == "repelling"
        monkeypatch.setattr(dynamics, "TOL_CLASS", 10.0)  # |f'(1)| = 2 < 1 + 10
        code, doc = run(capsys, argv)
        assert code == 0 and doc["verdict"] == rigidity.NO_OBSTRUCTION
        assert doc["witness"]["stability"] == "superattracting"
        assert doc["tolerances"]["tol_class"] == 10.0

    def test_patched_orbit_tolerance(self, capsys, write, monkeypatch):
        # f(1 + 1e-7) - (1 + 1e-7) is about 1e-7, above 1e-8 (1 + |p|)
        argv = ["certify", write("f.json", SQUARE), "--mode", "bounded",
                "--point", "1.0000001"]
        assert main(argv) == 1
        assert "residual" in capsys.readouterr().err
        monkeypatch.setattr(dynamics, "TOL_ORBIT", 1e-3)
        code, doc = run(capsys, argv)
        assert code == 0 and doc["verdict"] == rigidity.UNBOUNDED
        assert doc["witness"]["stability"] == "repelling"
        assert doc["tolerances"]["tol_orbit"] == 1e-3

    @pytest.mark.parametrize("name, message", [
        ("TOL_JAC", "jet Jacobian disagrees with the chain rule"),
        ("TOL_LAGRANGE", "Lagrange multiplier identity failed")])
    def test_patched_construction_tolerance(self, capsys, write, monkeypatch,
                                            name, message):
        path = write("f.json", SQUARE_2D)
        monkeypatch.setattr(sphere, name, 0.5)
        code, doc = run(capsys, ["search-repelling", path, *REPELLING_ARGS])
        assert code == 0 and doc["tolerances"][name.lower()] == 0.5
        monkeypatch.setattr(sphere, name, -1.0)  # every check fails
        assert main(["search-repelling", path, *REPELLING_ARGS]) == 1
        assert message in capsys.readouterr().err

    def test_patched_truncation_tolerance(self, capsys, write, monkeypatch):
        argv = ["fock", write("f.json", SQUARE), "--N", "4"]
        assert run(capsys, argv)[1]["truncation_loss"] is True
        monkeypatch.setattr(fock, "TRUNCATION_COEFF_TOL", 2.0)  # above every |c| = 1
        code, doc = run(capsys, argv)
        assert code == 0 and doc["truncation_loss"] is False
        assert doc["tolerances"]["truncation_coeff_tol"] == 2.0


SUBCOMMANDS = ("graded", "certify", "search-repelling", "fock", "henon",
               "duality")


def run_both(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)`` in this process."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKeptParser:
    """``main`` keeps its parser while HOLO_SEED keeps its value and reads
    the variable on every call; no call leaves anything behind for the next."""

    def test_one_parser_per_seed_value(self, capsys, monkeypatch):
        monkeypatch.setenv("HOLO_SEED", "11")
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert main(["duality", "--instances", "2"]) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert cli.build_parser("11") is cli.build_parser("11")

    def test_seed_variable_is_read_on_every_call(self, capsys, monkeypatch):
        argv = ["duality", "--instances", "2"]
        for seed, message in [("7", None),
                              ("abc", "invalid int value: 'abc'"),
                              ("-1", "must be >= 0, got -1"),
                              ("7", None)]:
            monkeypatch.setenv("HOLO_SEED", seed)
            code, out, err = run_both(capsys, argv)
            if message is None:
                assert code == 0 and err == ""
                assert json.loads(out)["metadata"]["seed"] == 7
            else:
                assert code == 1 and out == ""
                assert err == f"usage error: argument --seed: {message}\n"
            # an explicit --seed never reads the variable
            code, doc = run(capsys, argv + ["--seed", "5"])
            assert code == 0 and doc["metadata"]["seed"] == 5

    @pytest.mark.parametrize("first, second", [
        # the henon subparser's mode="bounded" default stays in henon
        (["henon", str(BENCH_INPUTS / "henon.json"), "--r-max", "1"],
         ["certify", str(BENCH_INPUTS / "quad1.json"), "--mode", "cyclic",
          "--r", "2"]),
        (["certify", str(BENCH_INPUTS / "quad1.json"), "--mode", "bounded",
          "--r", "2", "--point", "0"],
         ["certify", str(BENCH_INPUTS / "quad1.json"), "--mode", "bounded",
          "--r", "2"]),
    ], ids=["henon-then-cyclic", "point-then-search"])
    def test_second_call_matches_a_fresh_process(self, capsys, first, second):
        assert main(first) == 0
        capsys.readouterr()
        proc = run_module(*second)
        assert run_both(capsys, second) == (proc.returncode, proc.stdout,
                                            proc.stderr)

    def test_sweep_file_is_not_written_again(self, capsys, tmp_path):
        argv = ["fock", str(BENCH_INPUTS / "quad1.json"), "--N", "4"]
        sweep = tmp_path / "sweep.csv"
        assert main(argv + ["--sweep-out", str(sweep)]) == 0
        capsys.readouterr()
        sweep.unlink()
        proc = run_module(*argv)
        assert run_both(capsys, argv) == (proc.returncode, proc.stdout,
                                          proc.stderr)
        assert not sweep.exists()

    @pytest.mark.parametrize("sub", [None, *SUBCOMMANDS])
    def test_help_exits_0_with_the_same_bytes(self, capsys, sub):
        argv = ([sub] if sub else []) + ["--help"]
        pages, misses = [], []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            pages.append(captured.out)
            misses.append(cli.build_parser.cache_info().misses)
        assert misses[0] == misses[1]  # the kept parser printed the second page
        assert pages[0] == pages[1]
        assert pages[0].startswith("usage: holorigid")
        if sub is None:
            assert all(name in pages[0] for name in SUBCOMMANDS)
