"""End-to-end CLI contract: subcommands, exit codes, formats, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holorigid
from holorigid import cli, dynamics, jets, rigidity, sphere
from holorigid.cli import main

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
HENON_STD = {"factors": [{"p": [-3, 0, 1], "delta": [0.3, 0.0]}]}


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
        code, _ = run(capsys, ["graded", write("f.json", DOUBLE),
                               "--point", "0", "--n", "3"])
        assert code == 2


class TestCertify:
    def test_square_bounded_unbounded(self, capsys, write):
        code, doc = run(capsys, ["certify", write("f.json", SQUARE),
                                 "--mode", "bounded"])
        assert code == 0
        assert doc["verdict"] == "Unbounded"
        assert doc["witness"]["eigenvalue"] == [2.0, 0.0]
        assert doc["witness"]["point"] == [[1.0, 0.0]]
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
        solve, rng = dynamics.durand_kerner, np.random.default_rng(6)

        def perturbed(ratio, starts):
            z = solve(ratio, starts)
            ulps = rng.integers(-3, 4, size=(2, len(z))) * np.finfo(float).eps
            return rng.permutation(z.real * (1 + ulps[0]) + 1j * z.imag * (1 + ulps[1]))

        monkeypatch.setattr(dynamics, "durand_kerner", perturbed)
        path = write("f.json", SQUARE_MINUS_1)
        witnesses = [run(capsys, ["certify", path, "--mode", "bounded", "--r", "6"])[1]
                     ["witness"] for _ in range(6)]
        first = witnesses[0]
        assert first["period"] == 6
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

    def test_point_override(self, capsys, write):
        code, doc = run(capsys, ["certify", write("f.json", SQUARE),
                                 "--mode", "compact", "--point", "1"])
        assert code == 0
        assert doc["verdict"] == "NonCompact"
        assert doc["witness"]["abs_eigenvalue"] == 2.0

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

    def test_affine_exit_4(self, capsys, write):
        code, _ = run(capsys, ["search-repelling", write("f.json", AFFINE_2D)])
        assert code == 4

    def test_bad_range_recoverable(self, capsys, write):
        code, _ = run(capsys, ["search-repelling", write("f.json", SQUARE_2D),
                               "--s-range=-4.0:-3.0", "--s-steps", "5"])
        assert code == 1

    def test_overflow_exit_4_without_traceback(self, write):
        # ||f|| overflows on every sphere of radius e^300 .. e^400
        src = str(Path(holorigid.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
        proc = subprocess.run(
            [sys.executable, "-m", "holorigid.cli", "search-repelling",
             write("f.json", SQUARE_2D), "--s-range=300:400"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 4
        assert proc.stderr.startswith("precondition rejected:")
        assert "radius 1.94243e+130" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


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

    def test_malformed_seed_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HOLO_SEED", "abc")
        code = main(["duality", "--instances", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "usage error: argument --seed: invalid int value: 'abc'\n")
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
    ], ids=lambda argv: " ".join(argv))
    def test_out_of_range_number_is_usage_error(self, capsys, write, argv):
        docs = {"DOUBLE": DOUBLE, "HALF": HALF, "SQUARE": SQUARE,
                "SQUARE_2D": SQUARE_2D, "HENON_STD": HENON_STD}
        argv = [write(f"{a}.json", docs[a]) if a in docs else a for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("usage error:")
        assert captured.out == ""


REPELLING_ARGS = ["--s-range=-1.0:2.5", "--starts", "80", "--grid-starts", "12",
                  "--seed", "3"]
MULTIPLIER_TOLS = {"tol_class": dynamics.TOL_CLASS,
                   "tol_weight": rigidity.TOL_WEIGHT,
                   "tol_orbit": dynamics.TOL_ORBIT}


class TestPrintedTolerances:
    """Every printed ``tolerances`` block holds the constants its decision
    reads, and patching one of them moves the print and the decision
    together."""

    @pytest.mark.parametrize("mode, want", [
        ("bounded", MULTIPLIER_TOLS),
        ("compact", MULTIPLIER_TOLS),
        ("hypercyclic", {"tol_orbit": dynamics.TOL_ORBIT}),
        ("supercyclic", {"tol_orbit": dynamics.TOL_ORBIT}),
        ("cyclic", {"tol_level_scale": rigidity.TOL_LEVEL_SCALE,
                    "tol_orbit": dynamics.TOL_ORBIT}),
    ])
    def test_certify(self, capsys, write, mode, want):
        code, doc = run(capsys, ["certify", write("f.json", SQUARE),
                                 "--mode", mode, "--r", "2"])
        assert code == 0
        assert doc["tolerances"] == want

    def test_search_repelling(self, capsys, write):
        code, doc = run(capsys, ["search-repelling", write("f.json", SQUARE_2D),
                                 *REPELLING_ARGS])
        assert code == 0
        assert doc["tolerances"] == {
            "tol_fix": sphere.TOL_FIX, "tol_vec": sphere.TOL_VEC,
            "tol_eta": sphere.TOL_ETA, "tol_unitary": sphere.TOL_UNITARY}

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
