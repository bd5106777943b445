"""Per-layer tracing of holorigid from outside the package.

The tracer replaces functions of the loaded ``holorigid`` modules with
timing wrappers and puts the originals back on ``uninstall``.  A function
is replaced under every module name that binds it, because ``cli``,
``rigidity``, ``henon`` and ``fock`` import names such as
``periodic_points_1d``, ``make_orbit``, ``certify_bounded`` and
``jet_multiply`` with ``from ... import``; patching only the defining
module would let those calls escape.  Methods are replaced on the class.

Each CLI job is a root span; each wrapped call inside it is a child span of
the innermost open span.  Spans stay in memory.  A span's self time is its
duration minus the time covered by its children.  Hot leaf calls
(``PolyMap.__call__``/``jacobian``, ``PolyFunc.__call__``, ``jet_multiply``
and the recursive ``encode``) are kept as call counts and total time only;
their time still counts as child time of the enclosing span.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

# span metric name -> (module, attribute path)
SPANS = {
    "dynamics.iterate": ("dynamics", "iterate"),
    "dynamics.PolyMap.compose": ("dynamics", "PolyMap.compose"),
    "dynamics.PolyMap.to_jetmap": ("dynamics", "PolyMap.to_jetmap"),
    "dynamics.companion_roots": ("dynamics", "companion_roots"),
    "dynamics.durand_kerner": ("dynamics", "durand_kerner"),
    "dynamics.periodic_points_1d": ("dynamics", "periodic_points_1d"),
    "dynamics.periodic_points_2d": ("dynamics", "periodic_points_2d"),
    "dynamics.make_orbit": ("dynamics", "make_orbit"),
    "dynamics.multipliers": ("dynamics", "multipliers"),
    "sphere.sphere_max": ("sphere", "sphere_max"),
    "sphere.hadamard_profile": ("sphere", "hadamard_profile"),
    "sphere.construct_repelling": ("sphere", "construct_repelling"),
    "henon.to_polymap": ("henon", "to_polymap"),
    "henon.saddle_certificate": ("henon", "saddle_certificate"),
    # jet_compose delegates to JetComposer.compose, which the graded
    # brute-force route also calls directly
    "jets.jet_compose": ("jets", "JetComposer.compose"),
    "jets.graded_matrix_formula": ("jets", "graded_matrix_formula"),
    "jets.graded_matrix_bruteforce": ("jets", "graded_matrix_bruteforce"),
    "fock.operator_matrix": ("fock", "operator_matrix"),
    "fock.norm_sweep": ("fock", "norm_sweep"),
    "fock.restriction_norm_profile": ("fock", "restriction_norm_profile"),
    "fock.truncated_norm": ("fock", "truncated_norm"),
    "rigidity.certify": [("rigidity", f"certify_{m}") for m in
                         ("bounded", "compact", "cyclic", "hypercyclic",
                          "supercyclic")],
    "serialize.load": [("serialize", n) for n in
                       ("read_json", "load_polymap", "load_weight",
                        "load_henon")],
    "cli": ("cli", "main"),
}

# leaf metric name -> (module, attribute path)
LEAVES = {
    "dynamics.PolyMap.call": ("dynamics", "PolyMap.__call__"),
    "dynamics.PolyMap.jacobian": ("dynamics", "PolyMap.jacobian"),
    "dynamics.PolyFunc.call": ("dynamics", "PolyFunc.__call__"),
    "jets.jet_multiply": ("jets", "jet_multiply"),
    "serialize.encode": ("serialize", "encode"),
}
REENTRANT_LEAVES = {"serialize.encode"}


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "child", "error",
                 "counts")

    def __init__(self, name, job, parent, start):
        self.name = name
        self.job = job
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0
        self.error = None
        self.counts = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


def _arg(args, kwargs, fn, name, default=None):
    """Value of parameter `name` in a call of fn(*args, **kwargs)."""
    if name in kwargs:
        return kwargs[name]
    params = inspect.signature(fn).parameters
    if name not in params:
        return default
    index = list(params).index(name)
    if index < len(args):
        return args[index]
    given = params[name].default
    return default if given is inspect.Parameter.empty else given


# ---------------------------------------------------------------------------
# counters derived from a call's arguments and result


def _iterate_counts(fn, args, kwargs, res):
    return {"terms_out": sum(len(c) for c in res.components)}


def _pp2d_counts(fn, args, kwargs, res):
    f, r = args[0], _arg(args, kwargs, fn, "r")
    # Friedland-Milnor: deg^r points of period dividing r for the Henon
    # maps this benchmark passes to the 2-D search
    return {"starts": res.starts, "converged": res.converged,
            "points_found": len(res.points), "points_expected": f.degree ** r}


def _pp1d_counts(fn, args, kwargs, res, selfcheck_failed):
    f, r = args[0], _arg(args, kwargs, fn, "r")
    counts = {"roots_expected": f.degree ** r,
              "selfcheck_failures": int(selfcheck_failed)}
    if hasattr(res, "points"):
        counts.update(points_found=len(res.points),
                      merged=sum(res.multiplicities) - len(res.points),
                      unresolved=len(res.unresolved))
    return counts


def _sphere_max_counts(fn, args, kwargs, res):
    config = _arg(args, kwargs, fn, "config")
    warm = _arg(args, kwargs, fn, "warm_starts", ())
    return {"ascents": getattr(config, "starts", 0) + len(warm)}


def _saddle_counts(fn, args, kwargs, res):
    return {"period_found": int(res.witness.get("searched_period", 0) or 0)}


COUNTERS = {
    "dynamics.iterate": _iterate_counts,
    "dynamics.periodic_points_2d": _pp2d_counts,
    "sphere.sphere_max": _sphere_max_counts,
    "henon.saddle_certificate": _saddle_counts,
}


class Tracer:
    """Holds spans and leaf aggregates for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.leaves = defaultdict(lambda: [0, 0.0])
        self.missing: list[str] = []
        self._patches: list = []

    # -- job roots ---------------------------------------------------------

    def begin_job(self, job_id: str):
        self.stack = [Span("job", job_id, None, perf_counter())]

    def end_job(self):
        root = self.stack.pop()
        root.end = perf_counter()
        self.spans.append(root)
        self.stack = []

    # -- wrappers ------------------------------------------------------------

    def _count(self, name, counter, *call):
        """Run a counter; a counter that no longer fits the code it reads
        (after a refactor) is reported in ``missing``, never raised into
        the traced program."""
        try:
            return counter(*call)
        except (AttributeError, KeyError, TypeError, ValueError):
            if f"{name} counters" not in self.missing:
                self.missing.append(f"{name} counters")
            return None

    def _span_wrapper(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            sp = Span(name, parent.job if parent else None, parent,
                      perf_counter())
            stack.append(sp)
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                sp.error = type(exc).__name__
                raise
            finally:
                sp.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += sp.end - sp.start
                tracer.spans.append(sp)
            if counter is not None:
                sp.counts = tracer._count(name, counter, fn, args, kwargs, res)
            return res

        return wrapper

    def _pp1d_wrapper(self, name, fn):
        """periodic_points_1d, run with detail=True to read its counters.

        Callers that did not ask for the detail record get the plain point
        list back, exactly as the function builds it.
        """
        span = self._span_wrapper(name, fn)
        has_detail = "detail" in inspect.signature(fn).parameters
        tracer = self

        def wrapper(*args, **kwargs):
            if not has_detail or _arg(args, kwargs, fn, "detail", False):
                return span(*args, **kwargs)
            # after span() returns or raises, spans[-1] is this call's span
            try:
                res = span(*args[:2], **{**kwargs, "detail": True})
            except BaseException as exc:
                failed = type(exc).__name__ == "SelfCheckError"
                tracer.spans[-1].counts = tracer._count(
                    name, _pp1d_counts, fn, args, kwargs, None, failed)
                raise
            tracer.spans[-1].counts = tracer._count(
                name, _pp1d_counts, fn, args, kwargs, res, False)
            return list(res.points) if hasattr(res, "points") else res

        return wrapper

    def _leaf_wrapper(self, name, fn):
        rec = self.leaves[name]
        tracer = self
        reentrant = name in REENTRANT_LEAVES
        active = [False]

        def wrapper(*args, **kwargs):
            if reentrant and active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                active[0] = False
                rec[0] += 1
                rec[1] += dt
                if tracer.stack:
                    tracer.stack[-1].child += dt

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def install(self, package: str = "holorigid"):
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == package
                                           or name.startswith(package + "."))}
        targets = []
        for metric, spec in SPANS.items():
            for mod, path in (spec if isinstance(spec, list) else [spec]):
                targets.append((metric, mod, path, "span"))
        for metric, (mod, path) in LEAVES.items():
            targets.append((metric, mod, path, "leaf"))

        for metric, mod_name, path, kind in targets:
            owner = modules.get(f"{package}.{mod_name}")
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            orig = getattr(owner, parts[-1], None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            if kind == "leaf":
                wrapped = self._leaf_wrapper(metric, orig)
            elif metric == "dynamics.periodic_points_1d":
                wrapped = self._pp1d_wrapper(metric, orig)
            else:
                wrapped = self._span_wrapper(metric, orig)
            if len(parts) > 1:  # a method: replace it on the class
                self._patches.append((owner, parts[-1], orig))
                setattr(owner, parts[-1], wrapped)
                continue
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- aggregation ---------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per-layer sums over every span and leaf call recorded.

        ``.s`` is inclusive time, ``.self_s`` excludes child spans and leaves.
        """
        out = defaultdict(float)
        for sp in self.spans:
            if sp.name == "job":
                continue
            out[f"{sp.name}.n"] += 1
            out[f"{sp.name}.s"] += sp.end - sp.start
            out[f"{sp.name}.self_s"] += sp.self_s
            if sp.error is not None:
                out[f"{sp.name}.errors"] += 1
            for key, val in (sp.counts or {}).items():
                out[f"{sp.name}.{key}"] += val
        for name, (n, total) in self.leaves.items():
            out[f"{name}.n"] += n
            out[f"{name}.s"] += total
        out["trace.spans"] = float(len(self.spans))
        return dict(out)
