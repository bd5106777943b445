"""Command-line front end.

Exit codes: 0 verdict emitted, 1 usage, schema or write error, 2 internal
self-check failure, 3 inapplicable verdict, 4 precondition rejection.
Outputs are deterministic given identical inputs, seed and BLAS thread
count; only the norms ``fock`` prints (``truncated_norm``, ``sweep[].norm``,
``profile[].norm``) come from SVDs large enough for threaded BLAS and may
move in the last bits with it.  The human format is a rendering of the same
JSON payload, never a separate path.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from . import fock, henon, jets, rigidity, sphere
from .dynamics import SearchConfig, make_orbit, orbits_of_period, periodic_orbits
# unused here; bench/test_bench.py checks that tracing patches this binding
from .dynamics import periodic_points_1d  # noqa: F401
from .errors import ConstructionError, HoloError, PreconditionError, \
    RangeError, SchemaError
from .jets import Jet, eigenvalue_law, graded_eigenvalues, \
    graded_matrix_bruteforce, graded_matrix_formula, multiset_close
from .serialize import encode, load_duality, load_map, load_polymap, \
    load_weight, read_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SELF_CHECK = 2
EXIT_INAPPLICABLE = 3
EXIT_PRECONDITION = 4

GRADED_AGREEMENT_TOL = 1e-8
_DUALITY_CHUNK = 256  # most instances one duality stack holds


class UsageError(Exception):
    pass


class WriteError(Exception):
    """An output file could not be opened or written."""


class Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _parse_complex_list(text: str):
    """Finite complex numbers, comma-separated, as JSON documents hold them."""
    try:
        values = [complex(part.strip().replace(" ", ""))
                  for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"cannot parse complex list: {text!r}")
    if not all(map(cmath.isfinite, values)):
        raise UsageError(f"non-finite number in complex list: {text!r}")
    return values


def _parse_point(text: str, dim: int) -> np.ndarray:
    point = _parse_complex_list(text)
    if len(point) != dim:
        raise UsageError(f"--point needs {dim} comma-separated entries")
    return np.array(point, dtype=complex)


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
    """argparse type: 'lo:hi' with two finite floats."""
    try:
        lo, hi = (float(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi floats, got {text!r}")
    if not all(map(cmath.isfinite, (lo, hi))):
        raise argparse.ArgumentTypeError(f"expected finite lo:hi, got {text!r}")
    return lo, hi


def _load_weight_arg(path, dim: int):
    """The weight file at ``path`` (None without one); it must live on C^dim."""
    if path is None:
        return None
    u = load_weight(read_json(path))
    if u.dim != dim:
        raise PreconditionError(f"weight is on C^{u.dim}, the map on C^{dim}")
    return u


class Outcome(NamedTuple):
    """What a subcommand hands to ``main``, which stamps, renders and writes
    the payload, then prints ``failure`` (a failed self-check) to stderr."""

    payload: dict
    metadata: dict = {}  # the keys after "seed"
    code: int = EXIT_OK
    failure: str | None = None


ERRORS = (  # exception class, stderr label, exit code; the first match wins
    (UsageError, "usage error", EXIT_USAGE),
    (WriteError, "write error", EXIT_USAGE),
    (SchemaError, "schema error", EXIT_USAGE),
    (PreconditionError, "precondition rejected", EXIT_PRECONDITION),
    (RangeError, "recoverable", EXIT_USAGE),
    (ConstructionError, "construction failed", EXIT_USAGE),
    (HoloError, "error", EXIT_USAGE),
)


def _dumps(obj, **kwargs) -> str:
    """json.dumps without NaN or Infinity, tokens that strict parsers reject."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError:
        raise PreconditionError("the result holds a non-finite number") from None


def _render_human(obj, indent=0):  # obj is a dict or a list
    pad = "  " * indent
    lines = []
    items = ([(f"{key}:", val) for key, val in obj.items()]
             if isinstance(obj, dict) else [("-", val) for val in obj])
    for head, val in items:
        if isinstance(val, (dict, list)) and val and not _is_flat(val):
            lines += [pad + head] + _render_human(val, indent + 1)
        else:
            lines.append(f"{pad}{head} {_dumps(val)}")
    return lines


def _is_flat(val):
    return isinstance(val, list) and all(
        isinstance(v, (int, float, str, bool, type(None))) for v in val)


@contextmanager
def _output(path, **kwargs):
    """A new text file at path; WriteError where it cannot be opened or written."""
    try:
        with open(path, "w", encoding="utf-8", **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise WriteError(f"{path}: {exc.strerror or exc}") from None


def _write_csv(path, header, rows):
    with _output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_graded(args) -> Outcome:
    f = load_polymap(read_json(args.map))
    u = _load_weight_arg(args.weight, f.dim)
    p = (_parse_point(args.point, f.dim) if args.point
         else np.zeros(f.dim, dtype=complex))
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
    }
    failure = (f"self-check failed: formula and brute-force matrices differ "
               f"by {mismatch:.3e}" if mismatch > GRADED_AGREEMENT_TOL else None)
    return Outcome(payload, code=EXIT_SELF_CHECK if failure else EXIT_OK,
                   failure=failure)


def cmd_certify(args) -> Outcome:
    mode, certifier = args.mode, getattr(rigidity, f"certify_{args.mode}")
    if args.point is not None and mode not in ("bounded", "compact"):
        raise UsageError("--point applies only to --mode bounded and compact")
    if args.lam is not None and mode != "cyclic":
        raise UsageError("--lambda applies only to --mode cyclic")
    f, comp = load_map(read_json(args.map))
    u = _load_weight_arg(args.weight, f.dim)
    levels = None if args.lam is None else _parse_complex_list(args.lam)
    if levels == []:
        raise UsageError(f"--lambda holds no level: {args.lam!r}")
    cuts = {}  # the cuts the search read: only the multistart has any
    if args.point:
        orbits = [make_orbit(f, _parse_point(args.point, f.dim), args.r)]
        search = {"point_supplied": True}
    elif mode == "cyclic":
        orbits, search = orbits_of_period(f, args.r)
    else:
        orbits, search, cuts = periodic_orbits(
            f, args.r, SearchConfig(starts=args.starts, seed=args.seed))
    if mode == "cyclic":
        cert = certifier(f, u, args.r, *orbits, lambda_levels=levels)
        extra = {"r": args.r}
    elif mode in ("bounded", "compact"):
        cert = certifier(f, u, *orbits)
        extra = {"orbits_examined": len(orbits)}
    else:  # hypercyclic, supercyclic
        cert = certifier(f, orbits, search_complete=search["complete"])
        extra = {"r_max": args.r}

    if comp is not None:
        cert = henon._factor_certificate(cert, comp)
    payload = encode({field.name: getattr(cert, field.name) for field in fields(cert)})
    payload["tolerances"].update(cuts)
    code = EXIT_INAPPLICABLE if cert.verdict == rigidity.INAPPLICABLE else EXIT_OK
    return Outcome(payload, {**extra, "mode": mode, "search": search}, code)


def cmd_search_repelling(args) -> Outcome:
    f = load_polymap(read_json(args.map))
    cfg = SearchConfig(starts=args.grid_starts, seed=args.seed)
    rc = sphere.construct_repelling(
        f, args.s_range, args.s_steps, cfg, polish_starts=args.starts)
    if args.profile_out:
        _write_csv(args.profile_out, ["s", "H", "H_prime"],  # "": not sampled
                   [["" if v is None else v for v in row]
                    for row in rc.profile.H_values])
    payload = {
        "subcommand": "search-repelling",
        **encode({field.name: getattr(rc, field.name) for field in fields(rc)
                  if field.name != "profile"}),
        "tolerances": {"tol_fix": sphere.TOL_FIX, "tol_vec": sphere.TOL_VEC,
                       "tol_eta": sphere.TOL_ETA, "tol_unitary": sphere.TOL_UNITARY,
                       "tol_jac": sphere.TOL_JAC, "tol_lagrange": sphere.TOL_LAGRANGE},
    }
    return Outcome(payload, {"starts": args.starts})


def cmd_fock(args) -> Outcome:
    f = load_polymap(read_json(args.map))
    u = _load_weight_arg(args.weight, f.dim)
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
        "tolerances": {"truncation_coeff_tol": fock.TRUNCATION_COEFF_TOL,
                       "tail_tol": fock.TAIL_TOL, "power_steps": fock.POWER_STEPS},
    }
    if args.sweep_out:
        _write_csv(args.sweep_out, ["N", "norm", "flag"],
                   [(n, v, "*" if flag else "") for n, v, flag in sweep])
    if args.profile_out:
        _write_csv(args.profile_out, ["n", "norm", "flag"],
                   [(n, v, "*" if flag else "") for n, v, flag in profile.levels])
    if args.matrix_out:
        text = _dumps({"basis": [list(a) for a in matrix.basis],
                       "entries": encode(matrix.entries)}, indent=2)
        with _output(args.matrix_out) as fh:
            fh.write(text)
    return Outcome(payload)


def cmd_duality(args) -> Outcome:
    if args.input:
        flags = rigidity.duality_check(*load_duality(read_json(args.input)))
        return Outcome({
            "subcommand": "duality",
            "image_cond": flags.image_cond,
            "kernel_cond": flags.kernel_cond,
            "agree": flags.image_cond == flags.kernel_cond,
        })
    rng = np.random.default_rng(args.seed)
    rows, cols = args.rows, args.cols
    results = []
    # the instances are drawn in order, then checked in stacks of one width
    for start in range(0, args.instances, _DUALITY_CHUNK):
        pairs = []
        for k in range(start, min(start + _DUALITY_CHUNK, args.instances)):
            width = int(rng.integers(1, rows + 1))
            b = rng.normal(size=(rows, width)) + 1j * rng.normal(size=(rows, width))
            if k % 2 == 0:
                l_mat = b @ (rng.normal(size=(width, cols))
                             + 1j * rng.normal(size=(width, cols)))
            else:
                l_mat = rng.normal(size=(rows, cols)) \
                    + 1j * rng.normal(size=(rows, cols))
            pairs.append((l_mat, b))
        flags = np.zeros((len(pairs), 2), dtype=bool)
        for width in {b.shape[1] for _, b in pairs}:
            ks = [k for k, (_, b) in enumerate(pairs) if b.shape[1] == width]
            flags[ks] = np.column_stack(rigidity.duality_check(
                *(np.stack([pairs[k][i] for k in ks]) for i in (0, 1))))
        results += flags.tolist()
    disagreements = sum(1 for image, kernel in results if image != kernel)
    payload = {
        "subcommand": "duality",
        "instances": args.instances,
        "disagreements": disagreements,
        "all_agree": disagreements == 0,
        "flags": results,
    }
    failure = (f"self-check failed: {disagreements} of {args.instances} "
               f"instances disagree" if disagreements else None)
    return Outcome(payload, code=EXIT_SELF_CHECK if failure else EXIT_OK,
                   failure=failure)


# ---------------------------------------------------------------------------
# parser


@functools.lru_cache(maxsize=1)
def build_parser(seed_default: str) -> Parser:
    """The argument parser for one ``seed_default`` (the HOLO_SEED string),
    kept until that string changes; ``parse_args`` leaves it unchanged."""
    parser = Parser(prog="holorigid", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, func):
        # a string default goes through the type on every parse, so a
        # malformed or negative HOLO_SEED is a usage error
        p.add_argument("--seed", type=_int_at_least(0), default=seed_default)
        p.add_argument("--format", choices=("json", "human"), default="json")
        p.add_argument("--out", default=None, help="write output to a file")
        p.set_defaults(func=func)

    p = sub.add_parser("graded", help="graded matrices and their eigenvalues")
    p.add_argument("map")
    p.add_argument("weight", nargs="?", default=None)
    p.add_argument("--point", default=None,
                   help="base point, comma-separated complex entries")
    p.add_argument("--n", type=_int_at_least(0), required=True,
                   help="homogeneous degree")
    common(p, cmd_graded)

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
                   help="Newton multistart budget of the point search on C^d, d >= 2")
    common(p, cmd_certify)

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
    common(p, cmd_search_repelling)

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
    common(p, cmd_fock)

    p = sub.add_parser("henon", help="certify --mode bounded --r R-MAX on "
                       "Henon factors, with 200 starts by default")
    p.add_argument("map", metavar="henon")
    p.add_argument("weight", nargs="?", default=None)
    p.add_argument("--r-max", dest="r", metavar="R_MAX", type=_int_at_least(1),
                   default=4)
    p.add_argument("--starts", type=_int_at_least(1), default=200)
    p.set_defaults(mode="bounded", point=None, lam=None)
    common(p, cmd_certify)

    p = sub.add_parser("duality", help="graded image/kernel condition check")
    p.add_argument("--input", default=None,
                   help="JSON file with matrices L and B as [re,im] grids")
    p.add_argument("--instances", type=_int_at_least(1), default=100)
    p.add_argument("--rows", type=_int_at_least(1), default=6)
    p.add_argument("--cols", type=_int_at_least(1), default=4)
    common(p, cmd_duality)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place that stamps, writes and reports."""
    try:
        args = build_parser(os.environ.get("HOLO_SEED", "0")).parse_args(argv)
        payload, metadata, code, failure = args.func(args)
        payload["metadata"] = {"seed": args.seed, **metadata}
        text = ("\n".join(_render_human(payload)) if args.format == "human"
                else _dumps(payload, indent=2)) + "\n"
        if args.out:
            with _output(args.out) as fh:
                fh.write(text)
    except (UsageError, WriteError, HoloError) as exc:
        label, code = next((label, code) for kind, label, code in ERRORS
                           if isinstance(exc, kind))
        detail = (f"; diagnostics: {json.dumps(encode(exc.diagnostics))}"
                  if isinstance(exc, ConstructionError) else "")
        print(f"{label}: {exc}{detail}", file=sys.stderr)
        return code
    if not args.out:
        sys.stdout.write(text)
    if failure:
        print(failure, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
