"""csx benchmark: closed-loop jobs, one client, one fresh Python process per job.

  python3 perfbench/run.py --workload sc_homology --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the jobs import csx from ./src.  Each job's
report is checked against its known answer.  With --trace 0 the run measures
the end-to-end metrics of untraced jobs; with --trace 1 it alternates traced
and untraced jobs and reports the per-layer metrics of the traced ones plus
the tracing overhead.  The last line of standard output is the result JSON;
the run record and the spans go to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, check  # noqa: E402

JOB_TIMEOUT_S = 30.0
SETUP_PROBES = 10

END_TO_END = {"setup_s": "s", "job_rel": "ref", "peak_rss_mb": "MiB", "ok_frac": "ratio"}

# Self time of each span name, keyed by its per-layer metric.  The job span
# (spawn to exit) keeps as self time what no other span covers.
SPAN_METRICS = {
    "trace.setup_s": "setup",
    "trace.unattributed_s": "job",
    "cli.main_s": "cli.main",
    "homology.assemble_s": "homology.assemble",
    "homology.snf_sparse_s": "homology.snf_sparse",
    "homology.snf_certified_s": "homology.snf_certified",
    "homology.verify_s": "homology.verify",
    "homology.crosscheck_s": "homology.crosscheck",
    "simpset.build_s": "simpset.build",
    "simpset.audit_s": "simpset.audit",
    "simpset.map_check_s": "simpset.map_check",
    "simpset.pullback_s": "simpset.pullback",
    "bundles.total_space_s": "bundles.total_space",
    "bundles.E_of_s": "bundles.E_of",
    "bundles.compare_s": "bundles.compare",
    "bundles.extend_s": "bundles.extend",
}
COUNT_METRICS = [
    "homology.boundary_nnz",
    "homology.rank",
    "simpset.simplices_built",
    "perms.face_perm.calls",
    "perms.degeneracy_perm.calls",
    "perms.multiply.calls",
    "delta.monotone_ops.calls",
]
PER_LAYER = (
    {"trace.job_s": "s", "trace.overhead_s": "s"}
    | {name: "s" for name in SPAN_METRICS}
    | {"homology.certified_share": "ratio", "simpset.cache_hit_ratio": "ratio"}
    | {name: "count" for name in COUNT_METRICS}
)


@dataclass
class Job:
    job_id: int
    traced: bool
    spawn: float = 0.0
    exit: float = 0.0
    ready: float | None = None
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    error: str | None = None
    meta: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.exit - self.spawn

    @property
    def setup(self) -> float | None:
        return None if self.ready is None else self.ready - self.spawn


def run_job(root: Path, workload: Workload | str, args: list[str], job_id: int = 0,
            traced: bool = False, timeout: float = JOB_TIMEOUT_S) -> Job:
    """Spawn one job, wait for it with per-child accounting, check its output.

    workload may also be "probe" (import csx only) or "reference" (no csx).
    """
    name = workload if isinstance(workload, str) else workload.name
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    meta_path, out_path, err_path = (out_dir / f"job.{ext}" for ext in ("meta", "out", "err"))
    meta_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "job.py"), name, str(meta_path),
           str(job_id) if traced else "-", *args]
    pythonpath = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=pythonpath)
    job = Job(job_id, traced)
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        job.spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=root)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would keep
            # the running maximum RSS over every job so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        job.exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    job.cpu_s = usage.ru_utime + usage.ru_stime
    # ru_maxrss (KiB) starts from this process's RSS at spawn, which the child
    # inherits across vfork and exec; the job's own VmHWM replaces it below.
    job.rss_mb = usage.ru_maxrss / 1024
    if timed_out.is_set():
        job.error = f"timed out after {timeout} s"
    elif proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        job.error = f"exit code {proc.returncode}: {' '.join(tail)}"
    elif name != "reference":
        try:
            job.meta = json.loads(meta_path.read_text(encoding="utf-8"))
            job.ready = job.meta["ready"]
            job.rss_mb = job.meta["peak_rss_kb"] / 1024
        except (OSError, ValueError, KeyError) as e:
            job.error = f"no job metadata: {e}"
        else:
            if isinstance(workload, Workload):
                job.error = check(workload, args, out_path.read_text(encoding="utf-8"))
    return job


def timing_summary(values: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest percentile with ten samples beyond it."""
    n = len(values)
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if n > 1 else values * 3
    summary = {"n": n, "median": med, "p25": q1, "p75": q3, "tail_pct": None, "tail": None}
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            summary["tail_pct"] = pct
            summary["tail"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            break
    return summary


def fail_frac(jobs: list[Job]) -> float:
    return sum(j.error is not None for j in jobs) / len(jobs)


def job_ratios(jobs: list[Job], references: list[Job]) -> list[float]:
    """Each job's wall time over the mean of the references run just before and after it.

    Other tenants of the host can slow every process by up to 2x, for seconds
    or minutes at a time; the references next to a job slow with it, so the
    ratio holds still where raw seconds do not.
    """
    return [j.wall / ((before.wall + after.wall) / 2)
            for j, before, after in zip(jobs, references, references[1:])]


def end_to_end(jobs: list[Job], references: list[Job], setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "job_rel": statistics.median(job_ratios(jobs, references)),
        "peak_rss_mb": statistics.median(j.rss_mb for j in jobs),
        "ok_frac": 1.0 - fail_frac(jobs),
    }


def job_spans(job: Job) -> list[dict]:
    """The job's spans under the job span (spawn to exit) and setup spans."""
    base = {"parent": tracing.JOB_SPAN, "job": job.job_id}
    return [
        {"id": tracing.JOB_SPAN, "name": "job", "start": job.spawn, "end": job.exit,
         "parent": None, "job": job.job_id},
        {**base, "id": tracing.SETUP_SPAN, "name": "setup", "start": job.spawn, "end": job.ready},
        *job.meta["spans"],
    ]


def layer_values(job: Job) -> dict[str, float]:
    """Per-layer values of one traced job; the *_s self times sum to its wall time."""
    selfs = tracing.self_seconds(job_spans(job))
    known = set(SPAN_METRICS.values())
    unknown = set(selfs) - known
    if unknown:
        raise ValueError(f"spans without a metric: {sorted(unknown)}")
    counts, cache = job.meta["counts"], job.meta["cache"]
    values = {metric: selfs.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
    values |= {name: counts.get(name, 0) for name in COUNT_METRICS}
    snf_calls = counts.get("homology.snf_calls", 0)
    values["homology.certified_share"] = (
        counts.get("homology.snf_certified_calls", 0) / snf_calls if snf_calls else 0.0
    )
    values["simpset.cache_hit_ratio"] = cache["hits"] / cache["calls"] if cache["calls"] else 0.0
    values["trace.job_s"] = job.wall
    return values


def per_layer(jobs: list[Job]) -> dict[str, float]:
    """Means over the traced jobs, so that the self times stay additive."""
    traced = [j for j in jobs if j.traced and j.error is None]
    untraced = [j for j in jobs if not j.traced and j.error is None]
    if not traced or not untraced:
        raise SystemExit("error: the trace run needs a traced and an untraced job that succeed")
    per_job = [layer_values(j) for j in traced]
    values = {name: statistics.fmean(v[name] for v in per_job) for name in per_job[0]}
    values["trace.overhead_s"] = values["trace.job_s"] - statistics.fmean(j.wall for j in untraced)
    return values


def commit(root: Path) -> str:
    """HEAD of the checkout's git directory, read directly; "unknown" without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "csx" / "__init__.py").is_file():
        print(f"error: no csx sources under {root / 'src'}; run from a checkout's root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    # The first probe byte-compiles csx and warms the file cache; it is not kept.
    probes = [run_job(root, "probe", []) for _ in range(SETUP_PROBES + 1)][1:]
    bad = [p.error for p in probes if p.error]
    if bad:
        print(f"error: csx does not import: {bad[0]}", file=sys.stderr)
        return 1

    jobs: list[Job] = []
    references = [] if args.trace else [run_job(root, "reference", [])]
    start = time.monotonic()
    min_jobs = 2 if args.trace else 1
    while len(jobs) < min_jobs or time.monotonic() - start < args.seconds:
        traced = bool(args.trace) and len(jobs) % 2 == 0
        jobs.append(run_job(root, workload, workload.make_args(rng), len(jobs), traced))
        if not args.trace:
            references.append(run_job(root, "reference", []))
    bad = [r.error for r in references if r.error]
    if bad:
        print(f"error: the reference run failed: {bad[0]}", file=sys.stderr)
        return 1

    attempted, failed = len(jobs), sum(j.error is not None for j in jobs)
    measured = [j for j in jobs if not j.traced]
    setups = [p.setup for p in probes] + [j.setup for j in measured if j.setup is not None]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(root),
        "samples": {"jobs": attempted, "untraced_jobs": len(measured), "setup": len(setups)},
        "job_wall_s": timing_summary([j.wall for j in measured]),
        "setup_s": timing_summary(setups),
        "cpu_s": timing_summary([j.cpu_s for j in measured]),
        "reference_wall_s": timing_summary([r.wall for r in references]) if references else None,
        "job_rel": timing_summary(job_ratios(measured, references)) if references else None,
        "fail_frac": failed / attempted,
        "failures": [f"job {j.job_id}: {j.error}" for j in jobs if j.error],
        "jobs": [
            {"id": j.job_id, "traced": j.traced, "wall_s": j.wall, "setup_s": j.setup,
             "cpu_s": j.cpu_s, "rss_mb": j.rss_mb, "error": j.error}
            for j in jobs
        ],
        "references_wall_s": [r.wall for r in references],
    }
    if args.trace:
        metrics = per_layer(jobs)
        units = PER_LAYER
        record["layer_sum_s"] = sum(metrics[m] for m in SPAN_METRICS)
        spans = [s for j in jobs if j.traced and j.error is None for s in job_spans(j)]
        spans_path = root / ".perfbench_out" / f"spans_{args.workload}_seed{args.seed}.json"
        spans_path.write_text(json.dumps(spans), encoding="utf-8")
    else:
        metrics = end_to_end(measured, references, setups)
        units = END_TO_END
    record["metrics"] = metrics
    record_path = root / ".perfbench_out" / f"run_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, unit in units.items():
        print(f"{args.workload:<16} {name:<28} {metrics[name]:>14.6g} {unit}")
    wall = record["job_wall_s"]
    print(f"{args.workload:<16} job wall median {wall['median']:.4f} s, quartiles {wall['p25']:.4f} / "
          f"{wall['p75']:.4f} s, tail p{wall['tail_pct']} = {wall['tail']}, n = {wall['n']}; "
          f"fail_frac {record['fail_frac']:.4f} ({failed}/{attempted})")
    if args.trace:
        print(f"{args.workload:<16} layer self times + unattributed = {record['layer_sum_s']:.6f} s; "
              f"traced job_s = {metrics['trace.job_s']:.6f} s")
    for line in record["failures"]:
        print(f"{args.workload:<16} FAILED {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
