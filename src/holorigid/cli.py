"""Command-line front end.

Exit codes: 0 verdict emitted, 1 usage or schema error, 2 internal
self-check failure, 3 inapplicable verdict, 4 precondition rejection.
Outputs are deterministic given identical inputs and seed; the human
format is a rendering of the same JSON payload, never a separate path.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import fock, henon, jets, rigidity, sphere
from .dynamics import SearchConfig, make_orbit, periodic_orbits
# unused here; bench/test_bench.py checks that tracing patches this binding
from .dynamics import periodic_points_1d  # noqa: F401
from .errors import (
    ConstructionError,
    HoloError,
    PreconditionError,
    RangeError,
    SchemaError,
)
from .jets import Jet, eigenvalue_law, graded_eigenvalues, \
    graded_matrix_bruteforce, graded_matrix_formula, multiset_close
from .serialize import dump_polymap, encode, load_henon, load_polymap, \
    load_weight, read_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SELF_CHECK = 2
EXIT_INAPPLICABLE = 3
EXIT_PRECONDITION = 4

GRADED_AGREEMENT_TOL = 1e-8


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _parse_complex_list(text: str):
    try:
        return [complex(part.strip().replace(" ", ""))
                for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"cannot parse complex list: {text!r}")


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports "invalid int value: ..."
    return parse


def _float_range(text: str):
    """argparse type: 'lo:hi' with two floats."""
    try:
        lo, hi = (float(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi floats, got {text!r}")
    return lo, hi


def _load_weight_arg(path):
    if path is None:
        return None
    return load_weight(read_json(path))


def _emit(payload: dict, fmt: str, out_path=None):
    if fmt == "human":
        text = "\n".join(_render_human(payload)) + "\n"
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_human(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)) and val and not _is_flat(val):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_human(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(val)}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)) and val and not _is_flat(val):
                lines.append(f"{pad}-")
                lines.extend(_render_human(val, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(val)}")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return lines


def _is_flat(val):
    if isinstance(val, list):
        return all(isinstance(v, (int, float, str, bool, type(None))) for v in val)
    return False


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _metadata(args):
    return {"seed": args.seed}


# ---------------------------------------------------------------------------
# subcommands


def cmd_graded(args) -> int:
    f = load_polymap(read_json(args.map))
    u = _load_weight_arg(args.weight)
    point = _parse_complex_list(args.point) if args.point else [0j] * f.dim
    if len(point) != f.dim:
        raise UsageError(f"--point needs {f.dim} comma-separated entries")
    p = np.array(point, dtype=complex)
    n = args.n
    a = f.jacobian(p)
    u_p = 1.0 + 0j if u is None else u(p)
    formula = graded_matrix_formula(u_p, a, n)

    cap = max(n, 1)
    f_jet = f.to_jetmap(tuple(p), cap)
    u_jet = (u.to_jet(tuple(p), cap) if u is not None
             else Jet.constant(f.dim, cap, tuple(p), 1.0))
    brute = graded_matrix_bruteforce(u_jet, f_jet, n)

    mismatch = float(np.max(np.abs(formula.entries - brute.entries))
                     if formula.entries.size else 0.0)
    eigs = graded_eigenvalues(formula)
    predicted = eigenvalue_law(u_p, np.linalg.eigvals(a), n)
    payload = {
        "subcommand": "graded",
        "n": n,
        "point": encode(list(p)),
        "basis": [list(alpha) for alpha in formula.basis_order],
        "matrix_formula": encode(formula.entries),
        "matrix_bruteforce": encode(brute.entries),
        "max_entry_mismatch": mismatch,
        "eigenvalues": encode(list(eigs)),
        "predicted_eigenvalues": encode(list(predicted)),
        "eigenvalue_law_match": multiset_close(eigs, predicted),
        "tolerances": {"agreement": GRADED_AGREEMENT_TOL, "tol_eig": jets.TOL_EIG},
        "metadata": _metadata(args),
    }
    _emit(payload, args.format, args.out)
    if mismatch > GRADED_AGREEMENT_TOL:
        print(f"self-check failed: formula and brute-force matrices differ "
              f"by {mismatch:.3e}", file=sys.stderr)
        return EXIT_SELF_CHECK
    return EXIT_OK


def _collect_orbits(f, u, r_max, args):
    """Periodic orbits of exact period 1..r_max, and the search record.

    The search counts as complete only for one variable, when every period
    resolved as many distinct points as f^r(z) - z has roots.  In two
    variables the record keeps each period's multistart counts.
    """
    orbits, complete, runs = [], True, {}
    for r, found, record in periodic_orbits(
            f, r_max, u, SearchConfig(starts=args.starts, seed=args.seed)):
        orbits.extend(found)
        complete = record.pop("complete") and complete
        if f.dim != 1:
            runs[f"r={r}"] = record
    return orbits, complete, {"complete": complete, **runs}


def cmd_certify(args) -> int:
    f = load_polymap(read_json(args.map))
    u = _load_weight_arg(args.weight)
    mode = args.mode
    meta = _metadata(args)

    if mode in ("bounded", "compact"):
        certifier = (rigidity.certify_bounded if mode == "bounded"
                     else rigidity.certify_compact)
        if args.point:
            pts = [np.array(_parse_complex_list(args.point), dtype=complex)]
            orbits = [make_orbit(f, p, args.r, u) for p in pts]
            search_info = {"point_supplied": True}
        else:
            orbits, _, search_info = _collect_orbits(f, u, args.r, args)
        certs = [certifier(f, u, orbit) for orbit in orbits]
        cert = _strongest(certs, mode, f.dim)
        payload = cert.to_json_dict()
        payload["metadata"] = {**meta, "orbits_examined": len(orbits),
                               "mode": mode, "search": search_info}
    elif mode in ("hypercyclic", "supercyclic"):
        orbits, complete, search_info = _collect_orbits(f, u, args.r, args)
        maker = (rigidity.certify_hypercyclic if mode == "hypercyclic"
                 else rigidity.certify_supercyclic)
        cert = maker(orbits, search_complete=complete)
        payload = cert.to_json_dict()
        payload["metadata"] = {**meta, "r_max": args.r, "mode": mode,
                               "search": search_info}
    elif mode == "cyclic":
        levels = _parse_complex_list(args.lam) if args.lam else None
        cert = rigidity.certify_cyclic(f, u, args.r, lambda_levels=levels)
        payload = cert.to_json_dict()
        payload["metadata"] = {**meta, "r": args.r, "mode": mode}
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown mode {mode}")

    _emit(payload, args.format, args.out)
    return EXIT_INAPPLICABLE if payload["verdict"] == rigidity.INAPPLICABLE \
        else EXIT_OK


def _strongest(certs, mode, dim):
    """The certificate with the largest |eigenvalue| among those of the
    strongest verdict.

    In one variable, ties up to rounding, such as the points of conjugate
    orbits, go to the first in point order, so that the witness does not
    follow the last bits of the roots.  Two-variable witnesses take the
    exact largest modulus, so among the points of one saddle orbit the last
    bits still decide.
    """
    if not certs:
        return rigidity.ObstructionCertificate(
            rigidity.NO_OBSTRUCTION,
            {"orbits_found": 0,
             "note": "no periodic orbits available to test"},
            (rigidity.ASSUME_GRADED_IMAGE,), {})
    obstructed = rigidity.UNBOUNDED if mode == "bounded" else rigidity.NON_COMPACT
    for verdict in (obstructed, rigidity.INAPPLICABLE):
        hits = [c for c in certs if c.verdict == verdict]
        if hits and dim == 1:
            moduli = [abs(c.witness.get("eigenvalue", 0)) for c in hits]
            return hits[sphere.first_near_best(np.nan_to_num(moduli))]
        if hits:
            return max(hits, key=lambda c: abs(c.witness.get("eigenvalue", 0)))
    return certs[0]


def cmd_search_repelling(args) -> int:
    f = load_polymap(read_json(args.map))
    cfg = sphere.MaxSearchConfig(starts=args.grid_starts, seed=args.seed)
    rc = sphere.construct_repelling(
        f, args.s_range, args.s_steps, cfg, polish_starts=args.starts)
    if args.profile_out:
        _write_csv(args.profile_out, ["s", "H", "H_prime"],
                   [(s, h, "" if hp is None else hp)
                    for s, h, hp in rc.profile.H_values])
    payload = {
        "subcommand": "search-repelling",
        "a": rc.a,
        "U": encode(rc.U),
        "p": encode(rc.p),
        "eta": rc.eta,
        "residual_fix": rc.residual_fix,
        "residual_eigvec": rc.residual_eigvec,
        "r": rc.r,
        "s": rc.s,
        "M": rc.M,
        "q": encode(rc.q),
        "lagrange_multiplier": rc.lagrange_multiplier,
        "lagrange_identity_error": rc.lagrange_identity_error,
        "eigenvalues": encode(list(rc.eigenvalues)),
        "tolerances": {"tol_fix": sphere.TOL_FIX, "tol_vec": sphere.TOL_VEC,
                       "tol_eta": sphere.TOL_ETA,
                       "tol_unitary": sphere.TOL_UNITARY},
        "metadata": {**_metadata(args), "starts": args.starts},
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK


def cmd_fock(args) -> int:
    f = load_polymap(read_json(args.map))
    u = _load_weight_arg(args.weight)
    n_cap = args.N if args.N is not None else (
        fock.DEFAULT_CAP_1D if f.dim == 1 else fock.DEFAULT_CAP_2D)
    matrix = fock.operator_matrix_from_polys(u, f, n_cap)
    profile = fock.restriction_norm_profile(matrix)
    sweep = fock.norm_sweep(matrix)
    payload = {
        "subcommand": "fock",
        "N": n_cap,
        "dim": f.dim,
        "truncated_norm": fock.truncated_norm(matrix),
        "truncation_loss": matrix.truncation_loss,
        "fixes_origin": matrix.fixes_origin(),
        "invariance_warning": profile.invariance_warning,
        "sweep": [{"N": n, "norm": v, "lossy": flag} for n, v, flag in sweep],
        "profile": [{"n": n, "norm": v, "lossy": flag}
                    for n, v, flag in profile.levels],
        "note": ("finite sections only give norm lower bounds; divergence "
                 "is evidence, boundedness is never claimed"),
        "metadata": _metadata(args),
    }
    if args.sweep_out:
        _write_csv(args.sweep_out, ["N", "norm", "flag"],
                   [(n, v, "*" if flag else "") for n, v, flag in sweep])
    if args.profile_out:
        _write_csv(args.profile_out, ["n", "norm", "flag"],
                   [(n, v, "*" if flag else "") for n, v, flag in profile.levels])
    if args.matrix_out:
        with open(args.matrix_out, "w", encoding="utf-8") as fh:
            json.dump({"basis": [list(a) for a in matrix.basis],
                       "entries": encode(matrix.entries)}, fh, indent=2)
    _emit(payload, args.format, args.out)
    return EXIT_OK


def cmd_henon(args) -> int:
    comp = load_henon(read_json(args.henon))
    u = _load_weight_arg(args.weight)
    cfg = SearchConfig(starts=args.starts, seed=args.seed)
    cert = henon.saddle_certificate(comp, u, r_max=args.r_max, config=cfg)
    payload = cert.to_json_dict()
    payload["metadata"] = {**_metadata(args), "r_max": args.r_max,
                           "map": encode(dump_polymap(henon.to_polymap(comp)))}
    _emit(payload, args.format, args.out)
    return EXIT_INAPPLICABLE if cert.verdict == rigidity.INAPPLICABLE else EXIT_OK


def cmd_duality(args) -> int:
    if args.input:
        doc = read_json(args.input)
        l_mat = np.array([[complex(e[0], e[1]) for e in row]
                          for row in doc["L"]])
        b_mat = np.array([[complex(e[0], e[1]) for e in row]
                          for row in doc["B"]])
        flags = rigidity.duality_check(l_mat, b_mat)
        payload = {
            "subcommand": "duality",
            "image_cond": flags.image_cond,
            "kernel_cond": flags.kernel_cond,
            "agree": flags.image_cond == flags.kernel_cond,
            "metadata": _metadata(args),
        }
        _emit(payload, args.format, args.out)
        return EXIT_OK
    rng = np.random.default_rng(args.seed)
    rows, cols = args.rows, args.cols
    disagreements = 0
    results = []
    for k in range(args.instances):
        width = int(rng.integers(1, rows + 1))
        b = rng.normal(size=(rows, width)) + 1j * rng.normal(size=(rows, width))
        if k % 2 == 0:
            l_mat = b @ (rng.normal(size=(width, cols))
                         + 1j * rng.normal(size=(width, cols)))
        else:
            l_mat = rng.normal(size=(rows, cols)) \
                + 1j * rng.normal(size=(rows, cols))
        flags = rigidity.duality_check(l_mat, b)
        results.append([flags.image_cond, flags.kernel_cond])
        if flags.image_cond != flags.kernel_cond:
            disagreements += 1
    payload = {
        "subcommand": "duality",
        "instances": args.instances,
        "disagreements": disagreements,
        "all_agree": disagreements == 0,
        "flags": results,
        "metadata": _metadata(args),
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK if disagreements == 0 else EXIT_SELF_CHECK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> Parser:
    parser = Parser(prog="holorigid", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        # a string default goes through type=int, so a malformed HOLO_SEED
        # is a usage error
        p.add_argument("--seed", type=int,
                       default=os.environ.get("HOLO_SEED", "0"))
        p.add_argument("--format", choices=("json", "human"), default="json")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("graded", help="graded matrices and their eigenvalues")
    p.add_argument("map")
    p.add_argument("weight", nargs="?", default=None)
    p.add_argument("--point", default=None,
                   help="base point, comma-separated complex entries")
    p.add_argument("--n", type=_int_at_least(0), required=True,
                   help="homogeneous degree")
    common(p)
    p.set_defaults(func=cmd_graded)

    p = sub.add_parser("certify", help="obstruction certificates")
    p.add_argument("map")
    p.add_argument("weight", nargs="?", default=None)
    p.add_argument("--mode", required=True,
                   choices=("bounded", "compact", "cyclic", "hypercyclic",
                            "supercyclic"))
    p.add_argument("--r", type=_int_at_least(1), default=1,
                   help="period (bound for hypercyclic search)")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="cocycle levels to test, comma-separated complex")
    p.add_argument("--point", default=None,
                   help="certify the orbit through this point only")
    p.add_argument("--starts", type=_int_at_least(1), default=400,
                   help="Newton multistart budget for 2d point search")
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("search-repelling",
                       help="constructive repelling fixed point (d >= 2)")
    p.add_argument("map")
    p.add_argument("--s-range", type=_float_range, default="-1.0:3.0")
    p.add_argument("--s-steps", type=_int_at_least(3), default=25)
    p.add_argument("--starts", type=_int_at_least(1), default=200,
                   help="polish starts at the selected radius")
    p.add_argument("--grid-starts", type=_int_at_least(1), default=16,
                   help="starts per profile grid point")
    p.add_argument("--profile-out", default=None,
                   help="write the Hadamard profile CSV (s, H, H')")
    common(p)
    p.set_defaults(func=cmd_search_repelling)

    p = sub.add_parser("fock", help="truncated Fock-space operator tables")
    p.add_argument("map")
    p.add_argument("weight", nargs="?", default=None)
    p.add_argument("--N", type=_int_at_least(0), default=None,
                   help="degree cap")
    p.add_argument("--profile-out", default=None,
                   help="restriction-norm profile CSV (n, norm, flag)")
    p.add_argument("--sweep-out", default=None,
                   help="truncated-norm sweep CSV (N, norm, flag)")
    p.add_argument("--matrix-out", default=None,
                   help="JSON dump of the operator matrix")
    common(p)
    p.set_defaults(func=cmd_fock)

    p = sub.add_parser("henon", help="saddle certificates for Henon compositions")
    p.add_argument("henon")
    p.add_argument("weight", nargs="?", default=None)
    p.add_argument("--r-max", type=_int_at_least(1), default=4)
    p.add_argument("--starts", type=_int_at_least(1), default=200)
    common(p)
    p.set_defaults(func=cmd_henon)

    p = sub.add_parser("duality", help="graded image/kernel condition check")
    p.add_argument("--input", default=None,
                   help="JSON file with matrices L and B as [re,im] grids")
    p.add_argument("--instances", type=_int_at_least(1), default=100)
    p.add_argument("--rows", type=_int_at_least(1), default=6)
    p.add_argument("--cols", type=_int_at_least(1), default=4)
    common(p)
    p.set_defaults(func=cmd_duality)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError,) as exc:
        print(f"precondition rejected: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RangeError as exc:
        print(f"recoverable: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConstructionError as exc:
        print(f"construction failed: {exc}; diagnostics: "
              f"{json.dumps(encode(exc.diagnostics))}", file=sys.stderr)
        return EXIT_USAGE
    except HoloError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
