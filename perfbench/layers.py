"""Outside-in layer trace for forestalg, installed from the benchmark's files.

``install()`` wraps the public functions and methods of every layer module
in spans.  A module-level function is rebound in every forestalg module that
holds it, because the modules import their kernels by name
(``from .linalg import smith_divisors``); a method is wrapped on its class.
Nothing inside ``src/`` is edited.

A layer's self time is the time its spans cover minus the time their child
spans cover.  Calls made from a layer into an unwrapped helper count as the
caller's own time, so the hot leaf helpers listed in ``LEAF_HELPERS`` (called
millions of times, where a wrapper would cost more than the work) are
attributed to the layer that calls them.  ``cli`` is the root span: its self
time is what no layer claimed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

# modules whose name is the layer of everything not named in LAYER_OF
MODULE_LAYERS = ("skewpoly", "forests", "lambda_alg", "poset_homology", "keel",
                 "operad", "quadratic_dual", "series")

# linalg is split by kernel; lambda_alg's relation generation and connected
# blocks are layers of their own
LAYER_OF = {
    "linalg.FieldEchelon": "linalg.field",
    "linalg.field_rank": "linalg.field",
    "linalg.BitEchelon": "linalg.bit",
    "linalg.bit_rank": "linalg.bit",
    "linalg.HermiteEchelon": "linalg.hermite",
    "linalg.smith_divisors": "linalg.smith",
    "linalg.kernel_basis_fast": "linalg.kernel",
    "linalg.kernel_basis_ZZ": "linalg.kernel",
    "linalg.BasisSolver": "linalg.solver",
    "linalg.coordinates_in_basis": "linalg.solver",
    "lambda_alg.Presentation.relations": "lambda_alg.relations",
    "lambda_alg.Presentation.linear_relations": "lambda_alg.relations",
    "lambda_alg.Presentation.quadratic_relations": "lambda_alg.relations",
    "lambda_alg._relations_cached": "lambda_alg.relations",
    "lambda_alg.block_dimension": "lambda_alg.block",
}

# private entry points that carry a layer's work
PRIVATE_ENTRIES = {"lambda_alg._relations_cached"}

# leaf helpers called per monomial, per edge or per coefficient
LEAF_HELPERS = {
    "skewpoly.perm_sign", "skewpoly.mul_monomials",
    "skewpoly.SkewPoly", "skewpoly.GeneratorUniverse",
    "forests.TriangleGraph", "forests.TernaryForest",
    "forests.partition_of_edges", "forests.components", "forests.is_forest",
    "forests.tree_leaves", "forests.tree_internal_nodes", "forests.g_vertices",
    "lambda_alg.Presentation.term", "lambda_alg.Presentation.monomial",
    "lambda_alg.Presentation.monomial_edges", "lambda_alg.Presentation.n",
    "keel.KeelRing.degree", "keel.KeelRing.grevlex_less",
    "keel.KeelRing.monomial", "keel.KeelRing.monomial_str",
    "keel.KeelRing.is_canonical", "keel.KeelRing.condition1_violation",
    "keel.KeelRing.condition2_violation", "keel.KeelRing.partition_grading",
    "keel.KeelRing.support_of",
    "operad.FiniteMap", "poset_homology.make_partition",
    "poset_homology.refines", "poset_homology.OddPartitionPoset.rank",
    "poset_homology.OddPartitionPoset.covers",
    "series.TruncatedSeries",
}

# lru_cached public functions whose hit ratio is reported
CACHES = {
    "lambda_alg.block.hit_ratio": ("lambda_alg", "block_dimension"),
    "poset_homology.interval.hit_ratio": ("poset_homology",
                                          "interval_homology_by_sizes"),
    "quadratic_dual.block.hit_ratio": ("quadratic_dual",
                                       "dual_block_dimension"),
}

# metric name -> unit, in report order
LAYER_METRICS = {
    "linalg.field.self_s": "s", "linalg.field.calls": "count",
    "linalg.field.nnz": "count",
    "linalg.smith.self_s": "s", "linalg.smith.rows": "count",
    "linalg.smith.diag": "count", "linalg.smith.unit_frac": "ratio",
    "linalg.hermite.self_s": "s", "linalg.kernel.self_s": "s",
    "linalg.solver.self_s": "s", "linalg.solver.calls": "count",
    "skewpoly.reduce.calls": "count", "skewpoly.self_s": "s",
    "lambda_alg.relations.self_s": "s", "lambda_alg.relations.count": "count",
    "lambda_alg.block.self_s": "s", "lambda_alg.block.hit_ratio": "ratio",
    "lambda_alg.self_s": "s",
    "poset_homology.self_s": "s", "poset_homology.interval.hit_ratio": "ratio",
    "forests.self_s": "s", "forests.pairing.calls": "count",
    "forests.pairing.nonzero_frac": "ratio",
    "keel.self_s": "s", "keel.canonical.count": "count",
    "keel.reduce.calls": "count", "linalg.bit.self_s": "s",
    "operad.self_s": "s", "quadratic_dual.self_s": "s",
    "quadratic_dual.block.hit_ratio": "ratio", "series.self_s": "s",
    "cli.self_s": "s", "cli.self_frac_max": "ratio",
    "trace_overhead": "ratio",
    "nf.p50_ms": "ms", "nf.p99_ms": "ms",
}


def _count_field_add(counts, args, result):
    counts["linalg.field.nnz"] += len(args[1])


def _count_smith(counts, args, result):
    rank, divisors = result
    counts["linalg.smith.rows"] += len(args[0])
    counts["linalg.smith.diag"] += rank
    counts["linalg.smith.units"] += sum(1 for d in divisors if d == 1)


def _count_pairing(counts, args, result):
    counts["forests.pairing.calls"] += 1
    counts["forests.pairing.nonzero"] += result != 0


def _count_generated(metric):
    """Add the result's length on the first call per arguments, which is the
    miss of an unbounded lru_cache: the relations actually generated."""
    seen = set()

    def count(counts, args, result):
        if args not in seen:
            seen.add(args)
            counts[metric] += len(result)
    return count


def _count_canonical(counts, args, result):
    counts["keel.canonical.count"] += len(result)


def _calls(metric):
    def count(counts, args, result):
        counts[metric] += 1
    return count


COUNTERS = {
    "linalg.FieldEchelon.add": _count_field_add,
    "linalg.smith_divisors": _count_smith,
    "lambda_alg._relations_cached": _count_generated(
        "lambda_alg.relations.count"),
    "linalg.BasisSolver.coordinates": _calls("linalg.solver.calls"),
    "skewpoly.IdealSlice.reduce": _calls("skewpoly.reduce.calls"),
    "forests.pairing": _count_pairing,
    "keel.KeelRing.canonical_monomials": _count_canonical,
    "keel.KeelRing.reduce": _calls("keel.reduce.calls"),
}


class Tracer:
    """Span stack with per-layer self time, entry counts and counters."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.entries: Counter = Counter()  # calls into a layer from another
        self.calls: Counter = Counter()    # calls per wrapped function
        self.counts: Counter = Counter()
        self._stack: list[list] = []       # [layer, time of child spans]
        self._caches: dict[str, object] = {}

    def wrap(self, qualname: str, layer: str, fn):
        stack = self._stack
        self_s, entries, calls = self.self_s, self.entries, self.calls
        counter = COUNTERS.get(qualname)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[qualname] += 1
            if not stack or stack[-1][0] != layer:
                entries[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer entry point of the imported forestalg package."""
        modules = {name: importlib.import_module(f"forestalg.{name}")
                   for name in (*MODULE_LAYERS, "linalg", "rings", "cli",
                                "acceptance")}
        for metric, (mod, name) in CACHES.items():
            self._caches[metric] = getattr(modules[mod], name)
        for mod_name in (*MODULE_LAYERS, "linalg"):
            module = modules[mod_name]
            for name, obj in list(vars(module).items()):
                qual = f"{mod_name}.{name}"
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere; wrapped at its home
                if qual in LEAF_HELPERS:
                    continue
                if name.startswith("_") and qual not in PRIVATE_ENTRIES:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(mod_name, obj)
                elif callable(obj):
                    layer = LAYER_OF.get(qual, mod_name)
                    traced = self.wrap(qual, layer, obj)
                    for other in modules.values():
                        for attr, value in list(vars(other).items()):
                            if value is obj:
                                setattr(other, attr, traced)

    def _wrap_class(self, mod_name: str, cls) -> None:
        cls_qual = f"{mod_name}.{cls.__name__}"
        for name, attr in list(vars(cls).items()):
            qual = f"{cls_qual}.{name}"
            if name.startswith("_") and name != "__init__":
                continue
            if qual in LEAF_HELPERS:
                continue
            layer = LAYER_OF.get(qual, LAYER_OF.get(cls_qual, mod_name))
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(
                    self.wrap(qual, layer, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(qual, layer, attr))

    def root(self, fn, *args):
        """Run fn as the root ``cli`` span; returns (result, wall seconds)."""
        traced = self.wrap("cli.main", "cli", fn)
        t0 = perf_counter()
        result = traced(*args)
        return result, perf_counter() - t0

    def totals(self) -> dict:
        """Raw per-process totals; sum them over processes in a Counter and
        finish with ``layer_metrics``."""
        out = {f"{layer}.self_s": s for layer, s in self.self_s.items()}
        out["linalg.field.calls"] = self.entries["linalg.field"]
        out.update(self.counts)
        for metric, fn in self._caches.items():
            info = fn.cache_info()
            out[metric + ".hits"] = info.hits
            out[metric + ".lookups"] = info.hits + info.misses
        return {"totals": out, "calls": dict(self.calls)}


def layer_metrics(raw: Counter) -> dict:
    """Turn summed raw totals into the reported per-layer values (every
    metric present; a layer an op never entered reads 0)."""
    def ratio(num, den):
        return raw[num] / raw[den] if raw[den] else 0.0

    out = {name: raw[name] for name in LAYER_METRICS}
    out["linalg.smith.unit_frac"] = ratio("linalg.smith.units",
                                          "linalg.smith.diag")
    out["forests.pairing.nonzero_frac"] = ratio("forests.pairing.nonzero",
                                                "forests.pairing.calls")
    for metric in CACHES:
        out[metric] = ratio(metric + ".hits", metric + ".lookups")
    return out
