"""Command-line front end: build truncations, run audits, compute homology.

Usage examples:
  csx enumerate SC --max-dim 4
  csx check all --max-dim 4
  csx homology SC --max-dim 7 --format json
  csx bundle --base boundary3 --cochain 1:1 --out bundle.json

Exit codes: 0 success, 1 check failure, 2 input error, 3 resource cap.
JSON output is canonical (sorted keys, fixed separators); identical inputs
and seed produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from itertools import chain
from math import factorial
from operator import itemgetter
from pathlib import Path

from .homology import export_sparse_matrix, homology_report, normalized_complex
from .perms import (
    all_perms,
    degeneracy_perm,
    face_perm,
    inverse,
    is_perm_word,
)
from .simpset import (
    audit_identities,
    build_C,
    build_S,
    build_SC,
    build_delta,
    dumps_canonical,
    nondegenerate_list,
    quotient_map,
    sset_to_json,
    twisted_product,
)

HARD_CAP = 9


class CapExceeded(Exception):
    pass


class RunConfig:
    """Resolved run parameters shared by every subcommand."""

    def __init__(self, command: str, max_dim=6, fmt="text", out=None, seed=0, overflow="bigint"):
        self.command, self.max_dim, self.fmt = command, max_dim, fmt
        self.out, self.seed, self.overflow = out, seed, overflow
        cap = effective_cap()
        if self.max_dim > cap:
            raise CapExceeded(f"max dim {self.max_dim} exceeds cap {cap}")
        if self.max_dim < 0:
            raise ValueError("max dim must be nonnegative")


def effective_cap() -> int:
    """The hard truncation cap, lowered (never raised) by CSX_MAX_DIM."""
    cap = HARD_CAP
    env = os.environ.get("CSX_MAX_DIM")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"CSX_MAX_DIM must be an integer, got {env!r}")
        if value < 0:
            raise ValueError(f"CSX_MAX_DIM must be nonnegative, got {env!r}")
        cap = min(cap, value)
    return cap


def _parse_word(text: str) -> tuple[int, ...]:
    try:
        g = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"bad permutation word {text!r}; expected comma-separated ints")
    if not is_perm_word(g):
        raise ValueError(f"not a permutation word: {g}")
    return g


def _parse_cochain_items(items, count: int) -> tuple[int, ...]:
    values = [0] * count
    given = set()
    for item in items or ():
        head, sep, tail = item.partition(":")
        if not sep:
            raise ValueError(f"bad cochain item {item!r}; expected id:value")
        k, v = int(head), int(tail)
        if not count:
            raise ValueError(f"cochain item {item!r}: the base has no 2-simplices")
        if not 0 <= k < count:
            raise ValueError(f"cochain id {k} out of range 0..{count - 1}")
        if k in given:
            raise ValueError(f"cochain id {k} given twice")
        given.add(k)
        values[k] = v
    return tuple(values)


# builtin bases: the csx.bundles builder of each and its dimension.  csx.bundles
# is imported where a bundle is built and its names read at call time, so a
# process that builds none never loads it.
_BASES = {
    "point": ("solid_delta", 0),
    "interval": ("solid_delta", 1),
    "delta2": ("solid_delta", 2),
    "boundary2": ("boundary_delta", 2),
    "boundary3": ("boundary_delta", 3),
}


def _load_bundle(max_dim: int, args):
    """The decoration the arguments name, its builtin base name or None, and its bundle."""
    from . import bundles

    base_name = None
    if getattr(args, "decoration", None):
        obj = json.loads(Path(args.decoration).read_text(encoding="utf-8"))
        decor = bundles.decoration_from_json(obj)
    else:
        base_name = getattr(args, "base", None) or "boundary3"
        if base_name not in _BASES:
            raise ValueError(f"unknown base {base_name!r}; choices: {', '.join(sorted(_BASES))}")
        builder, dim = _BASES[base_name]
        base = getattr(bundles, builder)(dim)
        count = base.simplex_count(2) if base.max_dim >= 2 else 0
        cochain = bundles.TwoCochain(_parse_cochain_items(getattr(args, "cochain", None), count))
        decor = bundles.decorate_from_cochain(base, cochain)
    # total_space picks its own depth unless the user set one explicitly
    return decor, base_name, bundles.total_space(decor, max_dim=max_dim if args.max_dim_set else None)


def _build_E(max_dim: int, args):
    from . import bundles

    if not args.g:
        raise ValueError("enumerate E needs --g")
    g = _parse_word(args.g)
    return bundles.E_of(g, max_dim).total, {"g": list(g)}


def _build_bundle(max_dim: int, args):
    _, base_name, bundle = _load_bundle(max_dim, args)
    return bundle.total, ({"base": base_name} if base_name else {})


# Every object the CLI builds by name: a builder from (max_dim, args) to the
# object and the keys it adds to the report.  Each subcommand accepts a subset.
_OBJECTS = {
    "S": lambda max_dim, args: (build_S(max_dim), {}),
    "C": lambda max_dim, args: (build_C(max_dim), {}),
    "SC": lambda max_dim, args: (build_SC(max_dim), {}),
    "delta": lambda max_dim, args: (build_delta(args.n, max_dim), {"n": args.n}),
    "twisted": lambda max_dim, args: (
        twisted_product(build_C(max_dim), build_delta(args.n, max_dim)),
        {"n": args.n},
    ),
    "E": _build_E,
    "bundle": _build_bundle,
}
_ENUMERATE_TARGETS = ("S", "C", "SC", "delta", "twisted", "E")
_IDENTITY_TARGETS = ("S", "C", "SC", "delta", "twisted")
_HOMOLOGY_TARGETS = ("S", "C", "SC", "delta", "bundle")


def _build_object(name: str, accepted, what: str, cfg: RunConfig, args):
    """Build the named object if this subcommand accepts it; return (X, report keys)."""
    if name not in accepted:
        raise ValueError(f"unknown {what} {name!r}")
    return _OBJECTS[name](cfg.max_dim, args)


# ---------------------------------------------------------------------------
# subcommands


def _counts(X) -> dict:
    return {
        "total": [X.simplex_count(n) for n in range(X.max_dim + 1)],
        "nondegenerate": [len(nondegenerate_list(X, n)) for n in range(X.max_dim + 1)],
    }


def cmd_enumerate(cfg: RunConfig, args) -> tuple[dict, int]:
    X, keys = _build_object(args.which, _ENUMERATE_TARGETS, "object", cfg, args)
    report = {"command": "enumerate", "which": args.which, "max_dim": cfg.max_dim, **keys}
    report.update(_counts(X))
    return report, 0


def _check_result(name: str, cases: int, counterexample: str | None) -> dict:
    return {"name": name, "cases": cases, "pass": counterexample is None, "counterexample": counterexample}


def _check_identities(cfg: RunConfig, target: str, args) -> dict:
    X, _ = _build_object(target, _IDENTITY_TARGETS, "identities target", cfg, args)
    bad = audit_identities(X)
    cases = sum(X.simplex_count(m) for m in range(X.max_dim + 1))
    return _check_result(f"identities:{target}", cases, bad[0] if bad else None)


def _product_ids(words) -> list[list[int]]:
    """products[h][f] is the id of h.f, for words numbered in the order given."""
    index = {w: k for k, w in enumerate(words)}
    flat = tuple(chain.from_iterable(words))
    # h applied to every letter of every word, cut back into words
    return [list(map(index.__getitem__, zip(*[map(h.__getitem__, flat)] * len(h)))) for h in words]


def _crossed_block(op, words, products):
    """The least (f, h, i), as ids, at which op breaks the crossed relation on words.

    products[h][f] is the id of h.f.  For each (h, i) the words op(i, h.f)
    over all f, gathered from the rows op(i, w) tabulated once per word, are
    compared in one pass with op(i, h) applied to the letters of the words
    op(h^-1(i), f) laid end to end.
    """
    rows = [[op(i, w) for i in range(len(w))] for w in words]
    cols = list(zip(*rows))
    size = len(rows[0][0])
    flat = [tuple(chain.from_iterable(col)) for col in cols]
    bad = []
    for h, (hf, row) in enumerate(zip(products, rows)):
        at_hf = itemgetter(*hf)
        for i, j in enumerate(inverse(words[h])):
            got = at_hf(cols[i])
            want = tuple(zip(*[map(row[i].__getitem__, flat[j])] * size))
            if got != want:
                bad.append((next(f for f, (a, b) in enumerate(zip(got, want)) if a != b), h, i))
    return min(bad, default=None)


# seeded word pairs drawn per relation at each degree above 4
_SAMPLES = 2000


def _draw(rng, n: int) -> tuple[int, ...]:
    """A seeded word of degree n: tuple(rng.sample(range(n + 1), n + 1)), drawn for less.

    For a population of at most 21 values, random.Random.sample draws from a
    pool: at each of the n + 1 places it takes j below the pool size from
    _randbelow, which calls rng.getrandbits(size.bit_length()) until the
    value is below the size, and moves the pool's last value into place j.
    This is that loop written out, so it makes the same getrandbits calls in
    the same order and returns the same word, leaving the rng in the same
    state; it skips sample's argument checks and set-size estimate.
    """
    getrandbits = rng.getrandbits
    pool = list(range(n + 1))
    word = []
    for size in range(n + 1, 0, -1):
        bits = size.bit_length()
        j = getrandbits(bits)
        while j >= size:
            j = getrandbits(bits)
        word.append(pool[j])
        pool[j] = pool[size - 1]
    return tuple(word)


def _crossed_sampled(op, n: int, rng):
    """The first (h, f, i) among the seeded pairs of degree n at which op breaks the relation.

    Every pair is drawn, whatever fails, so the rng stream does not depend on
    op.  A degree with fewer words than pairs has its rows op(i, w) tabulated
    once per word; above, each pair computes its three rows.  The n + 1
    words op(i, h.f) of a pair are compared with their values at once.
    """

    def row(w):
        return [op(i, w) for i in range(n + 1)]

    if factorial(n + 1) < _SAMPLES:
        row = {w: row(w) for w in all_perms(n)}.__getitem__
    first = None
    for _ in range(_SAMPLES):
        f = _draw(rng, n)
        h = _draw(rng, n)
        got, op_h, op_f = row(tuple(map(h.__getitem__, f))), row(h), row(f)
        want = [tuple(map(a.__getitem__, op_f[j])) for a, j in zip(op_h, inverse(h))]
        if got != want and first is None:
            first = (h, f, next(i for i, (a, b) in enumerate(zip(got, want)) if a != b))
    return first


def _check_crossed(cfg: RunConfig) -> list[dict]:
    # d_i(h.f) = d_i h . d_{h^-1(i)} f, and likewise for s_i.  Through degree
    # 4 every pair of words is checked on blocks of ids, with the ids of h.f
    # tabulated once per degree for both relations; above, seeded samples.
    rng = random.Random(cfg.seed)
    products = {}
    out = []
    for rel, op in (("face", face_perm), ("degeneracy", degeneracy_perm)):
        cases = 0
        counterexample = None
        for n in range(1, cfg.max_dim + 1):
            if n <= 4:
                words = all_perms(n)
                if n not in products:
                    products[n] = _product_ids(words)
                cases += len(words) ** 2 * (n + 1)
                bad = _crossed_block(op, words, products[n])
                if bad:
                    f, h, i = bad
                    counterexample = f"n={n} h={words[h]} f={words[f]} i={i}"
            else:
                cases += _SAMPLES * (n + 1)
                bad = _crossed_sampled(op, n, rng)
                if bad:
                    h, f, i = bad
                    counterexample = f"n={n} h={h} f={f} i={i}"
            if counterexample:
                break
        out.append(_check_result(f"crossed:{rel}", cases, counterexample))
    return out


def _check_lemmas(cfg: RunConfig, suite: str) -> list[dict]:
    """The pullback and upsilon lemmas the suite names, sharing one E(g) per word.

    Both lemmas walk the same words: every word through degree 3, and two
    seeded words at degree 4.  The comparison of g reads E(g) for the
    pullback lemma and E(g^-1) for the upsilon lemma, so the comparisons of
    a degree are grouped by the word of the E they read, which takes the
    words in pairs {g, g^-1}.  Each E is built once, through bundles.E_of,
    and dropped once every comparison reading it has run.  Each lemma
    reports its own first failing word and stops after that degree.
    """
    from . import bundles

    lemmas = [
        (name, compare, reads)
        for key, name, compare, reads in (
            ("lemma", "lemma:pullback", bundles.pullback_comparison, lambda g: g),
            ("upsilon", "lemma:upsilon", bundles.upsilon_comparison, inverse),
        )
        if suite in (key, "all")
    ]
    rng = random.Random(cfg.seed)
    cases = [0] * len(lemmas)
    found = [None] * len(lemmas)
    for n in range(min(cfg.max_dim - 1, 4) + 1):
        live = [k for k, bad in enumerate(found) if bad is None]
        if not live:
            break
        if n <= 3:
            words = all_perms(n)
        else:
            words = [_draw(rng, n), _draw(rng, n)]
        readers = {}
        for g in words:
            for k in live:
                readers.setdefault(lemmas[k][2](g), []).append((k, g))
        failed = set()
        for w, comparisons in readers.items():
            bundle = bundles.E_of(w, n + 1)
            failed.update((k, g) for k, g in comparisons if not lemmas[k][1](g, n + 1, bundle))
        for k in live:
            cases[k] += len(words)
            found[k] = next((f"g={g}" for g in words if (k, g) in failed), None)
    return [_check_result(name, c, bad) for (name, _, _), c, bad in zip(lemmas, cases, found)]


def _fork_call(fn, *args):
    """Start fn(*args) in a forked child; return (pid, read end of its pipe), or None.

    None means os.fork is missing or failed, and the caller runs fn itself.
    The child sends pickle.dumps((True, value)), or (False, exception,
    traceback text) if fn raises, then leaves by os._exit: it runs no atexit
    handler and never flushes the stdio buffers it shares with the parent.
    The CLI starts no thread, so the child inherits no lock held elsewhere.
    """
    import pickle

    fork = getattr(os, "fork", None)
    if fork is None:
        return None
    r, w = os.pipe()
    try:
        pid = fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        os.close(r)
        try:
            result = pickle.dumps((True, fn(*args)))
        except Exception as e:
            import traceback

            result = pickle.dumps((False, e, traceback.format_exc()))
        with os.fdopen(w, "wb") as fh:
            fh.write(result)
        code = 0
    finally:
        os._exit(code)


def _reap(child) -> tuple[bytes, int]:
    """Read what the child sent to EOF, then reap it: those bytes and its wait status."""
    pid, r = child
    with os.fdopen(r, "rb") as fh:
        sent = fh.read()
    return sent, os.waitpid(pid, 0)[1]


def _child_value(sent: bytes, status: int):
    """The value the child sent, or its exception raised here with its traceback as the cause."""
    import pickle

    if status:
        raise RuntimeError(f"forked child ended without a result (wait status {status})")
    ok, value, *text = pickle.loads(sent)
    if not ok:
        raise value from RuntimeError(f"in the forked child:\n{text[0]}")
    return value


def cmd_check(cfg: RunConfig, args) -> tuple[dict, int]:
    """Run the suite named: identity audits, then crossed relations, then lemmas.

    For check all, the crossed sweep (no object built, its own seeded rng)
    runs in a forked child while this process runs the other suites, with
    the same records; where os.fork is unavailable it runs here, in turn.
    The child is read to EOF and reaped on every path.
    """
    suite = args.suite
    child = _fork_call(_check_crossed, cfg) if suite == "all" else None
    identities, crossed, lemmas = [], [], []
    try:
        if suite in ("identities", "all"):
            targets = [args.target] if suite == "identities" and args.target else _IDENTITY_TARGETS
            identities = [_check_identities(cfg, t, args) for t in targets]
        if suite == "crossed" or suite == "all" and child is None:
            crossed = _check_crossed(cfg)
        if suite in ("lemma", "upsilon", "all"):
            lemmas = _check_lemmas(cfg, suite)
    finally:
        if child:
            sent, status = _reap(child)
    if child:
        crossed = _child_value(sent, status)
    checks = identities + crossed + lemmas
    if not checks:
        raise ValueError(f"unknown check suite {suite!r}")
    ok = all(c["pass"] for c in checks)
    report = {
        "command": "check",
        "suite": suite,
        "max_dim": cfg.max_dim,
        "seed": cfg.seed,
        "checks": checks,
        "pass": ok,
    }
    return report, 0 if ok else 1


def _dump_matrices(cc, directory: str) -> list[str]:
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for k in range(1, cc.max_dim + 1):
        path = outdir / f"boundary_{k}.txt"
        path.write_text(export_sparse_matrix(cc.boundaries[k]), encoding="utf-8")
        written.append(str(path))
    return written


def cmd_homology(cfg: RunConfig, args) -> tuple[dict, int]:
    X, keys = _build_object(args.target, _HOMOLOGY_TARGETS, "homology target", cfg, args)
    report = {"command": "homology", "target": args.target, "policy": cfg.overflow, **keys}
    report["max_dim"] = X.max_dim
    cc = normalized_complex(X)
    rep = homology_report(cc, policy=cfg.overflow)
    report.update(rep.to_json())
    report["groups"] = [rep.pretty(k) for k in range(len(rep.groups))]
    report["chains"] = cc.basis_sizes()
    if args.dump_matrices:
        report["matrix_files"] = _dump_matrices(cc, args.dump_matrices)
    return report, 0


def cmd_bundle(cfg: RunConfig, args) -> tuple[dict, int]:
    from . import bundles

    decor, base_name, bundle = _load_bundle(cfg.max_dim, args)
    X = bundle.total

    # the defining square: classifying composed with the quotient must equal
    # the decoration map composed with the projection
    q = quotient_map(X.max_dim)
    dec = bundle.pulled_along
    square_ok = all(
        q.apply(n, bundle.classifying.apply(n, k)) == dec.apply(n, bundle.projection.apply(n, k))
        for n in range(X.max_dim + 1)
        for k in range(X.simplex_count(n))
    )

    cc = normalized_complex(X)
    rep = homology_report(cc, policy=cfg.overflow)
    chern = bundles.chern_cochain(decor)
    report = {
        "command": "bundle",
        "chern_cochain": list(chern.values),
        "pullback_square": "commutes" if square_ok else "BROKEN",
        "counts": _counts(X),
        **rep.to_json(),
        "groups": [rep.pretty(k) for k in range(len(rep.groups))],
        "total_space": sset_to_json(X),
    }
    if base_name:
        report["base"] = base_name
    if base_name == "boundary3":
        report["degree"] = bundles.sphere_cochain_degree(chern)
    return report, 0 if square_ok else 1


# ---------------------------------------------------------------------------
# wiring


def _reject_stray_options(args) -> None:
    """Raise an input error for an option given to a target or suite it does not apply to."""
    if args.command == "enumerate":
        subject, groups = f"enumerate {args.which}", [
            (("n",), args.which in ("delta", "twisted"), "delta and twisted targets"),
            (("g",), args.which == "E", "E target"),
        ]
    elif args.command == "check":
        # check all, and check identities without --target, audit delta and twisted among the rest
        identities = args.suite == "identities"
        on_delta = args.suite == "all" or identities and args.target in (None, "delta", "twisted")
        subject = f"check identities {args.target}" if identities and args.target else f"check {args.suite}"
        groups = [(("target",), identities, "identities suite"), (("n",), on_delta, "delta and twisted identities")]
    elif args.command == "homology":
        subject, groups = f"homology {args.target}", [
            (("n",), args.target == "delta", "delta target"),
            (("decoration", "base", "cochain"), args.target == "bundle", "bundle target"),
        ]
    else:
        return
    for options, applies, where in groups:
        stray = [f"--{opt}" for opt in options if getattr(args, opt) is not None]
        if stray and not applies:
            raise ValueError(f"{subject} does not take {', '.join(stray)} ({where} only)")


def _as_text(obj, prefix="") -> list[str]:
    if isinstance(obj, dict):
        lines = []
        for key in sorted(obj):
            lines.extend(_as_text(obj[key], f"{prefix}{key}." if prefix else f"{key}."))
        return lines
    if isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        lines = []
        for j, v in enumerate(obj):
            lines.extend(_as_text(v, f"{prefix}{j}."))
        return lines
    label = prefix[:-1] if prefix.endswith(".") else prefix
    if isinstance(obj, list):
        return [f"{label}: {' '.join(str(v) for v in obj)}"]
    return [f"{label}: {obj}"]


def _emit(cfg: RunConfig, report: dict) -> None:
    if cfg.fmt == "json":
        text = dumps_canonical(report)
    else:
        text = "\n".join(_as_text(report)) + "\n"
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="csx", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, default_dim=6):
        p.add_argument("--max-dim", type=int, default=None, dest="max_dim")
        p.set_defaults(default_dim=default_dim)
        p.add_argument("--format", choices=("json", "text"), default="text", dest="fmt")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        p.add_argument(
            "--overflow",
            choices=("bigint", "checked"),
            default="bigint",
            help="integer policy: arbitrary precision, or raise outside 64-bit",
        )

    pe = sub.add_parser("enumerate", help="per-dimension simplex counts")
    pe.add_argument("which", choices=_ENUMERATE_TARGETS)
    pe.add_argument("--g", default=None, help="permutation word, comma-separated values")
    pe.add_argument("--n", type=int, default=None, help="simplex dimension for delta/twisted (default 2)")
    common(pe, default_dim=4)

    pc = sub.add_parser("check", help="structural audits; exit 0 iff all pass")
    pc.add_argument("suite", choices=("identities", "crossed", "lemma", "upsilon", "all"))
    pc.add_argument("--target", default=None, help="object for the identities suite")
    pc.add_argument("--n", type=int, default=None, help="simplex dimension for delta/twisted targets (default 2)")
    common(pc, default_dim=4)

    ph = sub.add_parser("homology", help="exact integer homology of a truncation")
    ph.add_argument("target", choices=_HOMOLOGY_TARGETS)
    ph.add_argument("--n", type=int, default=None, help="simplex dimension for the delta target (default 2)")
    ph.add_argument("--decoration", default=None, help="decoration JSON file (bundle target)")
    ph.add_argument("--base", default=None, help=f"builtin base: {', '.join(sorted(_BASES))}")
    ph.add_argument("--cochain", nargs="*", default=None, help="2-simplex values as id:value")
    ph.add_argument("--dump-matrices", default=None, help="directory for boundary matrix dumps")
    common(ph)

    pb = sub.add_parser("bundle", help="build a decorated circle bundle and report on it")
    pb.add_argument("--decoration", default=None, help="decoration JSON file")
    pb.add_argument("--base", default=None, help=f"builtin base: {', '.join(sorted(_BASES))}")
    pb.add_argument("--cochain", nargs="*", default=None, help="2-simplex values as id:value")
    common(pb)

    return ap


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "check": cmd_check,
    "homology": cmd_homology,
    "bundle": cmd_bundle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _reject_stray_options(args)
        if getattr(args, "n", 2) is None:
            args.n = 2  # the default simplex dimension; None told that --n was not given
        args.max_dim_set = args.max_dim is not None
        cfg = RunConfig(
            command=args.command,
            max_dim=args.max_dim if args.max_dim_set else args.default_dim,
            fmt=args.fmt,
            out=args.out,
            seed=args.seed,
            overflow=args.overflow,
        )
        report, code = _COMMANDS[args.command](cfg, args)
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OverflowError as e:
        print(f"error: 64-bit overflow under checked policy: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(cfg, report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
