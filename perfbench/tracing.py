"""In-memory spans and counters around calls into the csx modules.

A span records name, start, end, parent span and job id.  Spans are kept in
memory by a Tracer and written out by run.py when the run ends.

A wrapper has to replace a function at every module that bound the name at
import time: ``csx.bundles`` calls ``from_rules`` through its own
``from .simpset import from_rules`` binding, and ``csx.cli`` holds its own
``normalized_complex`` and ``homology_report``.  A wrapper installed only at
the defining module would silently miss those calls, so install() rebinds
every module attribute that is the original function.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# Ids 0 and 1 belong to the job and setup spans run.py adds around a job.
JOB_SPAN, SETUP_SPAN, FIRST_SPAN = 0, 1, 2


class Tracer:
    """Spans and counters of one job."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack = [JOB_SPAN]

    def timed(self, name, fn, after=None):
        """Wrap fn in a span; name is a string or a function of (args, kwargs).

        after(counts, span, args, kwargs, result) may add counters once the
        call has returned.
        """
        spans, stack, clock, counts = self.spans, self._stack, time.monotonic, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": FIRST_SPAN + len(spans),
                "name": name(args, kwargs) if callable(name) else name,
                "start": clock(),
                "end": None,
                "parent": stack[-1],
                "job": self.job,
            }
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if after is not None:
                after(counts, span, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn in a call counter only: these calls take microseconds."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _snf_hooks(snf):
    sig = inspect.signature(snf)

    def certified(args, kwargs) -> bool:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bool(bound.arguments["transforms"])

    def name(args, kwargs):
        return "homology.snf_certified" if certified(args, kwargs) else "homology.snf_sparse"

    def after(counts, span, args, kwargs, result):
        matrix = args[0] if args else kwargs["matrix"]
        entries = getattr(matrix, "entries", None)
        nnz = len(entries) if entries is not None else sum(1 for row in matrix for v in row if v)
        counts["homology.snf_calls"] += 1
        counts["homology.snf_certified_calls"] += span["name"] == "homology.snf_certified"
        counts["homology.boundary_nnz"] += nnz
        counts["homology.rank"] += result.rank

    return name, after


def _count_simplices(counts, span, args, kwargs, result):
    counts["simpset.simplices_built"] += sum(result.simplex_count(n) for n in range(result.max_dim + 1))


def _rebind(orig, wrapper, undo: list) -> None:
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "csx" or modname.startswith("csx.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, orig))


def install(tracer: Tracer):
    """Wrap the public csx functions each layer is timed or counted by.

    Returns a function that puts every original back.
    """
    from csx import bundles, cli, delta, homology, perms, simpset

    snf_name, snf_after = _snf_hooks(homology.smith_normal_form)
    timed = [
        (cli, "main", "cli.main", None),
        (homology, "normalized_complex", "homology.assemble", None),
        (homology, "smith_normal_form", snf_name, snf_after),
        (homology, "verify_transforms", "homology.verify", None),
        (homology, "rank_mod_p", "homology.crosscheck", None),
        (simpset, "from_rules", "simpset.build", _count_simplices),
        (simpset, "audit_identities", "simpset.audit", None),
        (simpset, "pullback", "simpset.pullback", None),
        (bundles, "total_space", "bundles.total_space", None),
        (bundles, "E_of", "bundles.E_of", None),
        (bundles, "pullback_comparison", "bundles.compare", None),
        (bundles, "upsilon_comparison", "bundles.compare", None),
        (bundles, "extend_decoration", "bundles.extend", None),
    ]
    counted = [
        (perms, "face_perm", "perms.face_perm.calls"),
        (perms, "degeneracy_perm", "perms.degeneracy_perm.calls"),
        (perms, "multiply", "perms.multiply.calls"),
        (delta, "monotone_ops", "delta.monotone_ops.calls"),
    ]
    undo: list = []
    for mod, attr, name, after in timed:
        orig = getattr(mod, attr)
        _rebind(orig, tracer.timed(name, orig, after), undo)
    for mod, attr, name in counted:
        orig = getattr(mod, attr)
        _rebind(orig, tracer.counted(name, orig), undo)
    # A method is looked up on the one class object, so no rebinding is needed.
    init = simpset.SimplicialMap.__init__
    simpset.SimplicialMap.__init__ = tracer.timed("simpset.map_check", init)
    undo.append((simpset.SimplicialMap, "__init__", init))

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


def builder_cache_counts() -> dict:
    """Hits and calls of the lru_cache'd build_* constructors in this process."""
    from csx import simpset

    infos = [f.cache_info() for f in (simpset.build_delta, simpset.build_S, simpset.build_C, simpset.build_SC)]
    hits = sum(i.hits for i in infos)
    return {"hits": hits, "calls": hits + sum(i.misses for i in infos)}


def self_seconds(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the union of child intervals.

    spans belong to one job; ids are unique within it.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[s["name"]] += (s["end"] - s["start"]) - covered
    return dict(totals)
