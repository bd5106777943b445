"""Workload inputs and job lists for the holorigid benchmark.

Fixed inputs live in ``bench/inputs``; the seeded parameters are drawn from
``random.Random(seed)`` here, written as JSON next to copies of the fixed
inputs, and the program only ever sees those files.  Every job carries what
the output checker needs to recompute the program's claims on its own: the
map as plain coefficients (or Henon factors), and the exact number of
periodic points the job's output should count.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"
FIXED_INPUTS = ("sq2.json", "quad1.json", "quadc_r7_selfcheck.json",
                "henon_readme.json", "henon.json", "mix3.json")

WORKLOADS = ("orbits-1d", "orbits-2d", "repelling-2d", "fock-graded")


@dataclass
class Job:
    """One CLI invocation and what its output must satisfy.

    ``kind`` selects the checker.  ``poly`` is the symbol as a list of
    components, each a dict ``alpha tuple -> complex``; ``henon`` is the
    symbol as Henon factors ``(p ascending coefficients, delta)`` when it
    is one.  ``expected_points`` is the exact count the job's output
    should report (None when the output carries no point count).
    """

    job_id: str
    argv: list
    kind: str
    poly: list | None = None
    henon: list | None = None
    weight: dict | None = None
    r: int = 0
    expected_points: int | None = None
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# exact periodic-point counts


def _mobius(n: int) -> int:
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def exact_period_count(degree: int, r: int) -> int:
    """Points of exact period r when deg^k points have period dividing k.

    deg^k is the count for a one-variable polynomial of degree deg >= 2
    (roots of f^k(z) - z) and, with deg = d_1 ... d_m, for a composition of
    generalized Henon maps (Friedland-Milnor, ETDS 1989); Mobius inversion
    turns it into the count of exact period r.
    """
    return sum(_mobius(r // k) * degree ** k
               for k in range(1, r + 1) if r % k == 0)


def points_up_to(degree: int, r_max: int) -> int:
    """Points of exact period 1..r_max: what ``certify`` bounded/hypercyclic
    examines, since it keeps each orbit at its exact period."""
    return sum(exact_period_count(degree, r) for r in range(1, r_max + 1))


# ---------------------------------------------------------------------------
# map encodings


def _term(alpha, c: complex) -> dict:
    c = complex(c)
    return {"alpha": list(alpha), "re": c.real, "im": c.imag}


def poly_json(poly: list) -> dict:
    dim = len(next(iter(poly[0])))
    return {"dim": dim,
            "components": [[_term(a, c) for a, c in comp.items()]
                           for comp in poly]}


def weight_json(terms: dict) -> dict:
    dim = len(next(iter(terms)))
    return {"dim": dim, "terms": [_term(a, c) for a, c in terms.items()]}


def henon_json(factors: list) -> dict:
    return {"factors": [{"p": [[complex(c).real, complex(c).imag] for c in p],
                         "delta": [complex(d).real, complex(d).imag]}
                        for p, d in factors]}


def poly_1d(coeffs) -> list:
    return [{(k,): complex(c) for k, c in enumerate(coeffs) if c != 0}]


def henon_poly(p, delta) -> list:
    """(x, y) -> (y, p(y) - delta x) as coefficient tables."""
    second = {(0, k): complex(c) for k, c in enumerate(p) if c != 0}
    second[(1, 0)] = second.get((1, 0), 0j) - complex(delta)
    return [{(0, 1): 1 + 0j}, second]


def read_poly(path: Path) -> list:
    doc = json.loads(path.read_text())
    return [{tuple(t["alpha"]): complex(t.get("re", 0.0), t.get("im", 0.0))
             for t in comp} for comp in doc["components"]]


def read_henon(path: Path) -> list:
    def num(x):
        return complex(x[0], x[1]) if isinstance(x, list) else complex(x)

    doc = json.loads(path.read_text())
    return [([num(c) for c in fac["p"]], num(fac["delta"]))
            for fac in doc["factors"]]


# ---------------------------------------------------------------------------
# seeded parameters


def _disk(rng: random.Random, radius: float, centre: complex = 0j) -> complex:
    """Uniform point of the closed disk |z - centre| <= radius."""
    return centre + radius * math.sqrt(rng.random()) * cmath.exp(
        2j * math.pi * rng.random())


def seeded_params(seed: int) -> dict:
    """Every seeded parameter of every workload, from one seed.

    The Henon parameters stay near the README map's (p = y^2 - 3,
    delta = 0.3), where periodic points are saddles, so the Unbounded
    verdict that theory requires can be reached in the searched periods.
    """
    rng = random.Random(seed)
    return {
        "c_cyclic": _disk(rng, 1.0),
        "cyclic_weight": (_disk(rng, 1.0, 1.0), _disk(rng, 1.0)),
        "cubic": [_disk(rng, 1.0) for _ in range(3)],
        "henon_c": _disk(rng, 0.5, -3.0),
        "henon_delta": _disk(rng, 0.1, 0.3),
        "pair": [(_disk(rng, 0.5, -3.0), _disk(rng, 0.1, 0.3))
                 for _ in range(2)],
        "c_fock": _disk(rng, 1.0),
        "fock_weight_1d": (_disk(rng, 1.0, 1.0), _disk(rng, 0.5)),
        "fock_weight_2d": (_disk(rng, 1.0, 1.0), _disk(rng, 0.5),
                           _disk(rng, 0.5)),
    }


# ---------------------------------------------------------------------------
# job lists


def build(workload: str, seed: int, workdir: Path) -> list:
    """Write the workload's input files into workdir and return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    for name in FIXED_INPUTS:
        shutil.copyfile(INPUTS / name, workdir / name)
    prm = seeded_params(seed)

    def write(name: str, doc: dict) -> str:
        path = workdir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def fixed(name: str) -> str:
        return str(workdir / name)

    common = ["--seed", str(seed)]
    quad1 = read_poly(INPUTS / "quad1.json")
    readme = read_poly(INPUTS / "henon_readme.json")
    readme_henon = read_henon(INPUTS / "henon.json")
    jobs = []

    if workload == "orbits-1d":
        # r = 7 runs on fixed maps: for about one c in thirteen with |c| <= 1
        # the self-check of z^2 + c fails at r = 7, so a seeded c would make
        # the failure count depend on the seed; quadc_r7_selfcheck.json is
        # one such c (drawn from the disk), kept to show that failure
        quadc_fail = read_poly(INPUTS / "quadc_r7_selfcheck.json")
        cc = prm["c_cyclic"]
        quadcc = poly_1d([cc, 0, 1])
        w0, w2 = prm["cyclic_weight"]
        weight = {(0,): w0, (2,): w2}
        cubic = poly_1d(prm["cubic"] + [1])

        def bounded(job_id, name, poly, r):
            return Job(job_id, ["certify", fixed(name), "--mode", "bounded",
                                "--r", str(r)] + common,
                       "bounded", poly=poly, r=r,
                       expected_points=points_up_to(2, r))

        jobs += [
            bounded("quad1-bounded-r6", "quad1.json", quad1, 6),
            bounded("quad1-bounded-r7", "quad1.json", quad1, 7),
            bounded("quad1-bounded-r8", "quad1.json", quad1, 8),
            bounded("quadc-selfcheck-bounded-r7", "quadc_r7_selfcheck.json",
                    quadc_fail, 7),
            Job("quadc-weighted-cyclic-r6",
                ["certify", write("quadcc.json", poly_json(quadcc)),
                 write("cyclic_weight.json", weight_json(weight)),
                 "--mode", "cyclic", "--r", "6"] + common,
                "cyclic", poly=quadcc, weight=weight, r=6,
                expected_points=2 ** 6),
            Job("cubic-hypercyclic-r4",
                ["certify", write("cubic.json", poly_json(cubic)),
                 "--mode", "hypercyclic", "--r", "4"] + common,
                "hypercyclic", poly=cubic, r=4,
                expected_points=points_up_to(3, 4)),
        ]
    elif workload == "orbits-2d":
        hs = [([prm["henon_c"], 0, 1], prm["henon_delta"])]
        pair = [([c, 0, 1], d) for c, d in prm["pair"]]
        jobs += [
            # 1600 starts, not the default 400: with 400 the points found
            # (14 to 18 of 22) swing so much with the seed that recall
            # spreads by 0.13 across ten seeds; 1600 still misses points
            Job("henon-readme-hypercyclic-r4",
                ["certify", fixed("henon_readme.json"), "--mode",
                 "hypercyclic", "--r", "4", "--starts", "1600"] + common,
                "hypercyclic", poly=readme, henon=readme_henon, r=4,
                expected_points=points_up_to(2, 4)),
            Job("henon-seeded-bounded-r3",
                ["certify", write("henon_seeded.json",
                                  poly_json(henon_poly(*hs[0]))),
                 "--mode", "bounded", "--r", "3"] + common,
                "bounded", poly=henon_poly(*hs[0]), henon=hs, r=3,
                expected_points=points_up_to(2, 3)),
            Job("henon-pair-saddle-r4",
                ["henon", write("henon_pair.json", henon_json(pair)),
                 "--r-max", "4"] + common,
                "henon", henon=pair, r=4),
        ]
    elif workload == "repelling-2d":
        jobs += [
            Job("sq2-repelling", ["search-repelling", fixed("sq2.json")] + common,
                "repelling", poly=read_poly(INPUTS / "sq2.json")),
            Job("henon-readme-repelling",
                ["search-repelling", fixed("henon_readme.json")] + common,
                "repelling", poly=readme),
            Job("mix3-repelling",
                ["search-repelling", fixed("mix3.json")] + common,
                "repelling", poly=read_poly(INPUTS / "mix3.json")),
        ]
    else:  # fock-graded
        quadf = poly_1d([prm["c_fock"], 0, 1])
        a0, a1 = prm["fock_weight_1d"]
        w1 = {(0,): a0, (1,): a1}
        b0, b1, b2 = prm["fock_weight_2d"]
        w2 = {(0, 0): b0, (1, 0): b1, (0, 1): b2}
        jobs += [
            Job("quadc-fock-N60",
                ["fock", write("quadf.json", poly_json(quadf)),
                 write("fock_weight_1d.json", weight_json(w1)),
                 "--N", "60"] + common,
                "fock", poly=quadf, weight=w1, extra={"N": 60}),
            Job("henon-readme-fock-N16",
                ["fock", fixed("henon_readme.json"),
                 write("fock_weight_2d.json", weight_json(w2)),
                 "--N", "16"] + common,
                "fock", poly=readme, weight=w2, extra={"N": 16}),
            Job("mix3-graded-n6",
                ["graded", fixed("mix3.json"), "--n", "6"] + common,
                "graded", poly=read_poly(INPUTS / "mix3.json")),
            Job("henon-readme-graded-n12",
                ["graded", fixed("henon_readme.json"), "--n", "12",
                 "--point", "1,2"] + common,
                "graded", poly=readme),
            Job("duality-200", ["duality", "--instances", "200"] + common,
                "duality", extra={"instances": 200}),
        ]
    return jobs
