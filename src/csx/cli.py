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
from dataclasses import dataclass
from pathlib import Path

from .bundles import (
    E_of,
    boundary_delta,
    chern_cochain,
    decorate_from_cochain,
    decoration_from_json,
    decoration_map,
    pullback_comparison,
    solid_delta,
    sphere_cochain_degree,
    total_space,
    TwoCochain,
    upsilon_comparison,
)
from .homology import export_sparse_matrix, homology_report, normalized_complex
from .perms import (
    all_perms,
    degeneracy_perm,
    face_perm,
    is_perm_word,
    multiply,
    pulled_index,
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


@dataclass
class RunConfig:
    """Resolved run parameters shared by every subcommand."""

    command: str
    max_dim: int = 6
    fmt: str = "text"
    out: str | None = None
    seed: int = 0
    overflow: str = "bigint"

    def __post_init__(self):
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


def _parse_cochain_items(items, count: int) -> TwoCochain:
    values = [0] * count
    for item in items or ():
        head, sep, tail = item.partition(":")
        if not sep:
            raise ValueError(f"bad cochain item {item!r}; expected id:value")
        k, v = int(head), int(tail)
        if not 0 <= k < count:
            raise ValueError(f"cochain id {k} out of range 0..{count - 1}")
        values[k] = v
    return TwoCochain(tuple(values))


_BASES = {
    "point": lambda: solid_delta(0),
    "interval": lambda: solid_delta(1),
    "delta2": lambda: solid_delta(2),
    "boundary2": lambda: boundary_delta(2),
    "boundary3": lambda: boundary_delta(3),
}


def _load_bundle(max_dim: int, args):
    """The decoration the arguments name, its builtin base name or None, and its bundle."""
    decor, base_name = _load_decoration(args)
    # total_space picks its own depth unless the user set one explicitly
    return decor, base_name, total_space(decor, max_dim=max_dim if args.max_dim_set else None)


def _load_decoration(args):
    if getattr(args, "decoration", None):
        obj = json.loads(Path(args.decoration).read_text(encoding="utf-8"))
        return decoration_from_json(obj), None
    base_name = getattr(args, "base", None) or "boundary3"
    if base_name not in _BASES:
        raise ValueError(f"unknown base {base_name!r}; choices: {', '.join(sorted(_BASES))}")
    base = _BASES[base_name]()
    count = base.simplex_count(2) if base.max_dim >= 2 else 0
    cochain = _parse_cochain_items(getattr(args, "cochain", None), count)
    return decorate_from_cochain(base, cochain), base_name


def _build_E(max_dim: int, args):
    if not args.g:
        raise ValueError("enumerate E needs --g")
    g = _parse_word(args.g)
    return E_of(g, max_dim).total, {"g": list(g)}


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


def _check_crossed(cfg: RunConfig) -> list[dict]:
    rng = random.Random(cfg.seed)
    out = []
    for rel, op in (("face", face_perm), ("degeneracy", degeneracy_perm)):
        cases = 0
        counterexample = None
        for n in range(1, cfg.max_dim + 1):
            if n <= 4:
                words = all_perms(n)
                pairs = [(f, h) for f in words for h in words]
            else:
                pairs = [
                    (
                        tuple(rng.sample(range(n + 1), n + 1)),
                        tuple(rng.sample(range(n + 1), n + 1)),
                    )
                    for _ in range(2000)
                ]
            for f, h in pairs:
                prod = multiply(h, f)
                for i in range(n + 1):
                    cases += 1
                    got = op(i, prod)
                    want = multiply(op(i, h), op(pulled_index(h, i), f))
                    if got != want and counterexample is None:
                        counterexample = f"n={n} h={h} f={f} i={i}"
            if counterexample:
                break
        out.append(_check_result(f"crossed:{rel}", cases, counterexample))
    return out


def _check_wordwise(cfg: RunConfig, name: str, fn) -> dict:
    # exhaustive through degree 3; seeded samples for higher degrees
    rng = random.Random(cfg.seed)
    cases = 0
    counterexample = None
    top = min(cfg.max_dim - 1, 4)
    for n in range(0, top + 1):
        if n <= 3:
            words = all_perms(n)
        else:
            words = [tuple(rng.sample(range(n + 1), n + 1)) for _ in range(2)]
        for g in words:
            cases += 1
            if not fn(g) and counterexample is None:
                counterexample = f"g={g}"
        if counterexample:
            break
    return _check_result(name, cases, counterexample)


def cmd_check(cfg: RunConfig, args) -> tuple[dict, int]:
    suite = args.suite
    checks: list[dict] = []
    if suite in ("identities", "all"):
        targets = [args.target] if suite == "identities" and args.target else _IDENTITY_TARGETS
        for t in targets:
            checks.append(_check_identities(cfg, t, args))
    if suite in ("crossed", "all"):
        checks.extend(_check_crossed(cfg))
    if suite in ("lemma", "all"):
        checks.append(_check_wordwise(cfg, "lemma:pullback", pullback_comparison))
    if suite in ("upsilon", "all"):
        checks.append(_check_wordwise(cfg, "lemma:upsilon", upsilon_comparison))
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
    decor, base_name, bundle = _load_bundle(cfg.max_dim, args)
    X = bundle.total

    # the defining square: classifying composed with the quotient must equal
    # the decoration map composed with the projection
    q = quotient_map(X.max_dim)
    dec = decoration_map(decor, X.max_dim, bundle.base)
    square_ok = all(
        q.apply(n, bundle.classifying.apply(n, k)) == dec.apply(n, bundle.projection.apply(n, k))
        for n in range(X.max_dim + 1)
        for k in range(X.simplex_count(n))
    )

    cc = normalized_complex(X)
    rep = homology_report(cc, policy=cfg.overflow)
    chern = chern_cochain(decor)
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
        report["degree"] = sphere_cochain_degree(chern)
    return report, 0 if square_ok else 1


# ---------------------------------------------------------------------------
# wiring


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
    pe.add_argument("--n", type=int, default=2, help="simplex dimension for delta/twisted")
    common(pe, default_dim=4)

    pc = sub.add_parser("check", help="structural audits; exit 0 iff all pass")
    pc.add_argument("suite", choices=("identities", "crossed", "lemma", "upsilon", "all"))
    pc.add_argument("--target", default=None, help="object for the identities suite")
    pc.add_argument("--n", type=int, default=2, help="simplex dimension for delta/twisted targets")
    common(pc, default_dim=4)

    ph = sub.add_parser("homology", help="exact integer homology of a truncation")
    ph.add_argument("target", choices=_HOMOLOGY_TARGETS)
    ph.add_argument("--n", type=int, default=2, help="simplex dimension for the delta target")
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
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(cfg, report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
