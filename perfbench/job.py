"""Run one benchmark job in this fresh process, then exit.

  python3 perfbench/job.py WORKLOAD META TRACE_JOB [ARG ...]

Imports csx (the set-up run.py times), runs the job and prints its JSON
report on standard output.  WORKLOAD "probe" only imports; "reference" runs
fixed pure-Python work that uses no csx code.  TRACE_JOB is "-"
for an untraced job, else the job id its spans carry.  META receives the
monotonic time at which the import finished, the peak resident set and, when
traced, the job's spans, counters and build-cache counts.
"""

import json
import sys
import time
from itertools import permutations


def reference() -> int:
    """Fixed word-face and sparse-table work in plain Python, about 0.5 s.

    Its tables (all words of degree 7, their faces, a signed sparse matrix)
    take tens of MB, as a job's do, so it slows with the host the way the
    jobs do.  It uses no csx code, so no change to csx moves it.
    """
    index = {w: k for k, w in enumerate(permutations(range(7)))}
    faces = [
        tuple(index[tuple(v - 1 if v > i else v for v in w if v != i)] for i in range(8))
        for w in permutations(range(8))
    ]
    rows: dict = {}
    for k, f in enumerate(faces[::2]):
        for i, r in enumerate(f):
            rows.setdefault(r, {})[k] = (-1) ** i
    return len(rows)


def gallery(cochains: list[str], depth: int) -> int:
    """The library calls of scripts/bundle_gallery.py, one row per cochain.

    Calls go through the module attributes so that traced wrappers apply.
    """
    from csx import bundles, homology, simpset

    rows = []
    for text in cochains:
        bits = tuple(int(b) for b in text)
        cochain = bundles.TwoCochain(bits)
        decor = bundles.decorate_from_cochain(bundles.boundary_delta(3), cochain)
        total = bundles.total_space(decor, max_dim=depth).total
        rep = homology.homology_report(homology.normalized_complex(total))
        partial = {(2, k): (bundles.TWISTED if b else bundles.FLAT) for k, b in enumerate(bits)}
        filled = bundles.extend_decoration(bundles.solid_delta(3), partial)
        rows.append(
            {
                "cochain": text,
                "degree": bundles.sphere_cochain_degree(cochain),
                "extends_over_3_cell": isinstance(filled, bundles.Decoration),
                "groups": [rep.pretty(k) for k in range(depth)],
            }
        )
    sys.stdout.write(simpset.dumps_canonical({"rows": rows}))
    return 0


def peak_rss_kb() -> int:
    """VmHWM: the peak resident set of this process since it was exec'd."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    workload, meta_path, trace_job, *args = argv
    if workload == "reference":
        reference()
        return 0
    import csx  # noqa: F401
    import csx.cli

    meta = {"ready": time.monotonic()}
    tracer = None
    if trace_job != "-":
        import tracing

        tracer = tracing.Tracer(int(trace_job))
        tracing.install(tracer)
    if workload == "probe":
        code = 0
    elif workload == "bundle_gallery":
        from workloads import GALLERY_DEPTH

        code = gallery(args, GALLERY_DEPTH)
    else:
        code = csx.cli.main(args)
    sys.stdout.flush()
    meta["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        meta.update(
            spans=tracer.spans,
            counts=dict(tracer.counts),
            cache=tracing.builder_cache_counts(),
        )
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
