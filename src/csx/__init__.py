"""Finite truncations of the symmetric and cyclic crossed simplicial groups.

The package builds the permutation-word objects S and C, the circular
quotient SC, and triangulated circle bundles over small bases, then checks
the structural claims (pullback route, order reorientation, crossed
relations) and computes exact integer homology via Smith normal form.

The top level holds the names of the README's Library section; everything
else is imported from its module (csx.simpset, csx.bundles, csx.homology,
csx.perms, csx.delta, csx.cli).  The two bundle comparisons load
csx.bundles on first access.
"""

from .homology import homology_report, normalized_complex
from .simpset import audit_identities, build_SC

__version__ = "0.1.0"

__all__ = [
    "audit_identities",
    "build_SC",
    "homology_report",
    "normalized_complex",
    "pullback_comparison",
    "upsilon_comparison",
]


def __getattr__(name):
    if name in ("pullback_comparison", "upsilon_comparison"):
        from . import bundles

        return getattr(bundles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
