"""forestalg: exact computational algebra for forest-indexed cohomology rings.

Everything is exact (integers and rationals, and F_2 bitsets for the
Bockstein); nothing is floating point.  The package constructs and
cross-validates:

- skew-commutative rings on three- and four-index odd generators, with
  certified basic-forest monomial bases and partition-blocked Hilbert
  series (``lambda_alg``, ``skewpoly``, ``forests``);
- the poset of odd set partitions, its reduced and Whitney homology over Z,
  and the tree-to-cycle map (``poset_homology``);
- the divisor-class ring of the complex moduli space in inclusion-sum
  generators, with laminar canonical monomials, grevlex rewriting, and the
  Bockstein differential mod 2 (``keel``);
- the cooperad structure maps, the odd ternary operation, the 10-term
  identity, and the triangular pairing certificate (``operad``);
- the quadratic dual algebra and its graded Lie dimensions
  (``quadratic_dual``);
- exact truncated bivariate generating functions tying all the dimension
  counts together (``series``).

The command-line entry point ``forestalg`` exposes each verification; the
``all-acceptance`` subcommand runs the full acceptance suite.
"""

__version__ = "0.1.0"

__all__ = [
    "acceptance", "clear_caches", "cli", "forests", "keel", "lambda_alg",
    "linalg", "operad", "poset_homology", "quadratic_dual", "rings", "series",
    "skewpoly",
]


def clear_caches() -> None:
    """Empty every process-wide cache of the package: the module-level
    ``lru_cache``s and ``lambda_alg``'s table of killed classes.  Results
    must not depend on these caches; this lets that be checked."""
    import importlib
    import pkgutil

    from . import lambda_alg

    for info in pkgutil.iter_modules(__path__):
        module = importlib.import_module(f"{__name__}.{info.name}")
        for obj in vars(module).values():
            if (hasattr(obj, "cache_clear")
                    and getattr(obj, "__module__", None) == module.__name__):
                obj.cache_clear()
    lambda_alg._killed_classes.clear()
