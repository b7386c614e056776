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
import sys
from pathlib import Path

from .homology import export_sparse_matrix, homology_report, normalized_complex
from .perms import is_perm_word
from .simpset import (
    build_C,
    build_S,
    build_SC,
    build_delta,
    dumps_canonical,
    nondegenerate_list,
    sset_to_json,
)

HARD_CAP = 9


class CapExceeded(Exception):
    pass


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
        head, _, tail = item.partition(":")
        try:
            k, v = int(head), int(tail)
        except ValueError:
            raise ValueError(f"bad cochain item {item!r}; expected id:value with integer id and value") from None
        if not count:
            raise ValueError(f"cochain item {item!r}: the base has no 2-simplices")
        if not 0 <= k < count:
            raise ValueError(f"cochain id {k} out of range 0..{count - 1}")
        if k in given:
            raise ValueError(f"cochain id {k} given twice")
        given.add(k)
        values[k] = v
    return tuple(values)


# builtin bases: the csx.bundles builder of each and its argument.  csx.bundles
# is imported where a bundle is built and its names read at call time, so a
# process that builds none never loads it.
_BASES = {
    "point": ("solid_delta", 0),
    "interval": ("solid_delta", 1),
    "delta2": ("solid_delta", 2),
    "boundary2": ("boundary_delta", 2),
    "boundary3": ("boundary_delta", 3),
}


def _load_bundle(max_dim: int | None, args):
    """The decoration the arguments name, its builtin base name or None, and its bundle."""
    from . import bundles
    from .constructions import is_json_int

    base_name = None
    if getattr(args, "decoration", None):
        obj = json.loads(Path(args.decoration).read_text(encoding="utf-8"))
        base = obj.get("base") if isinstance(obj, dict) else None
        dim, dims = (base.get("max_dim"), base.get("dims")) if isinstance(base, dict) else (None, None)
        # a max_dim its level list contradicts is left to the parser: -2 holds nothing to the cap
        dim = dim if is_json_int(dim) and isinstance(dims, list) and len(dims) == dim + 1 else -2
    else:
        base_name = getattr(args, "base", None) or "boundary3"
        if base_name not in _BASES:
            raise ValueError(f"unknown base {base_name!r}; choices: {', '.join(sorted(_BASES))}")
        builder, n = _BASES[base_name]
        base = getattr(bundles, builder)(n)
        dim = base.max_dim
    # held to the cap before SC is built at the base's dimension and, with max_dim None (no
    # --max-dim), the bundle two above it, the depth total_space then picks
    top, cap = (dim if max_dim is not None else dim + 2), effective_cap()
    if top > cap:
        what = f"base {base_name}" if base_name else "decoration file"
        raise CapExceeded(f"{what} needs dimension {top}, above cap {cap}")
    if base_name is None:
        decor = bundles.decoration_from_json(obj)
    else:
        count = base.simplex_count(2) if base.max_dim >= 2 else 0
        cochain = bundles.TwoCochain(_parse_cochain_items(getattr(args, "cochain", None), count))
        decor = bundles.decorate_from_cochain(base, cochain)
    return decor, base_name, bundles.total_space(decor, max_dim=max_dim)


def _build_E(max_dim: int, args):
    from . import bundles

    if not args.g:
        raise ValueError(f"{args.command} E needs --g")
    g = _parse_word(args.g)
    return bundles.E_of(g, max_dim).total, {"g": list(g)}


def _build_twisted(max_dim: int, args):
    from .constructions import twisted_product

    return twisted_product(build_C(max_dim), build_delta(args.n, max_dim)), {"n": args.n}


def _build_bundle(max_dim: int, args):
    _, base_name, bundle = _load_bundle(max_dim, args)
    return bundle.total, ({"base": base_name} if base_name else {})


# Every object the CLI builds by name: a builder from (max_dim, args) to the
# object and the keys it adds to the report.  enumerate accepts all but the
# bundle; check's subset is in csx.checks.
_OBJECTS = {
    "S": lambda max_dim, args: (build_S(max_dim), {}),
    "C": lambda max_dim, args: (build_C(max_dim), {}),
    "SC": lambda max_dim, args: (build_SC(max_dim), {}),
    "delta": lambda max_dim, args: (build_delta(args.n, max_dim), {"n": args.n}),
    "twisted": _build_twisted,
    "E": _build_E,
    "bundle": _build_bundle,
}


# ---------------------------------------------------------------------------
# subcommands


def _counts(X) -> dict:
    return {
        "total": [X.simplex_count(n) for n in range(X.max_dim + 1)],
        "nondegenerate": [len(nondegenerate_list(X, n)) for n in range(X.max_dim + 1)],
    }


def cmd_enumerate(args) -> tuple[dict, int]:
    X, keys = _OBJECTS[args.which](args.max_dim, args)
    report = {"command": "enumerate", "which": args.which, "max_dim": args.max_dim, **keys}
    report.update(_counts(X))
    return report, 0


def cmd_check(args) -> tuple[dict, int]:
    from . import checks

    return checks.cmd_check(args, _OBJECTS)


def _dump_matrices(cc, directory: str) -> list[str]:
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for k in range(1, cc.max_dim + 1):
        path = outdir / f"boundary_{k}.txt"
        path.write_text(export_sparse_matrix(cc.boundaries[k], len(cc.basis[k - 1])), encoding="utf-8")
        written.append(str(path))
    return written


def cmd_homology(args) -> tuple[dict, int]:
    X, keys = _OBJECTS[args.target](args.max_dim, args)
    report = {"command": "homology", "target": args.target, "policy": args.overflow, **keys}
    report["max_dim"] = X.max_dim
    cc = normalized_complex(X)
    rep = homology_report(cc, policy=args.overflow)
    report.update(rep.to_json())
    report["groups"] = [rep.pretty(k) for k in range(len(rep.groups))]
    report["chains"] = cc.basis_sizes()
    if args.dump_matrices:
        report["matrix_files"] = _dump_matrices(cc, args.dump_matrices)
    return report, 0


def cmd_bundle(args) -> tuple[dict, int]:
    from . import bundles

    decor, base_name, bundle = _load_bundle(args.max_dim, args)
    X = bundle.total

    # the defining square: classifying composed with the quotient it was pulled back
    # along must equal the decoration map composed with the projection, level by level
    q, dec = bundle.quotient.table, bundle.pulled_along.table
    square_ok = all(
        list(map(q[n].__getitem__, bundle.classifying.table[n]))
        == list(map(dec[n].__getitem__, bundle.projection.table[n]))
        for n in range(X.max_dim + 1)
    )

    cc = normalized_complex(X)
    rep = homology_report(cc, policy=args.overflow)
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
            (("n",), args.target in ("delta", "twisted"), "delta and twisted targets"),
            (("g",), args.target == "E", "E target"),
            (("decoration", "base", "cochain"), args.target == "bundle", "bundle target"),
        ]
    else:
        groups = []
    for options, applies, where in groups:
        stray = [f"--{opt}" for opt in options if getattr(args, opt) is not None]
        if stray and not applies:
            raise ValueError(f"{subject} does not take {', '.join(stray)} ({where} only)")
    stray = [f"--{opt}" for opt in ("base", "cochain") if getattr(args, opt, None) is not None]
    if stray and getattr(args, "decoration", None) is not None:
        raise ValueError(f"--decoration does not take {', '.join(stray)}: the file gives the base and its decoration")


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


def _emit(args, report: dict) -> None:
    if args.fmt == "json":
        text = dumps_canonical(report)
    else:
        text = "\n".join(_as_text(report)) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # an input error: one line on stderr, exit 2
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="csx", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, default_dim=6):
        p.add_argument("--max-dim", type=int, default=None, dest="max_dim")
        p.set_defaults(default_dim=default_dim)
        p.add_argument("--format", choices=("json", "text"), default="text", dest="fmt")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    def overflow(p):
        policy = "integer policy: arbitrary precision, or raise outside 64-bit"
        p.add_argument("--overflow", choices=("bigint", "checked"), default="bigint", help=policy)

    pe = sub.add_parser("enumerate", help="per-dimension simplex counts")
    pe.add_argument("which", choices=[name for name in _OBJECTS if name != "bundle"])
    pe.add_argument("--g", default=None, help="permutation word, comma-separated values")
    pe.add_argument("--n", type=int, default=None, help="simplex dimension for delta/twisted (default 2)")
    common(pe, default_dim=4)

    pc = sub.add_parser("check", help="structural audits; exit 0 iff all pass")
    pc.add_argument("suite", choices=("identities", "crossed", "lemma", "upsilon", "all"))
    pc.add_argument("--target", default=None, help="object for the identities suite")
    pc.add_argument("--n", type=int, default=None, help="simplex dimension for delta/twisted targets (default 2)")
    pc.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    common(pc, default_dim=4)

    ph = sub.add_parser("homology", help="exact integer homology of a truncation")
    ph.add_argument("target", choices=tuple(_OBJECTS))
    ph.add_argument("--g", default=None, help="permutation word for the E target, comma-separated values")
    ph.add_argument("--n", type=int, default=None, help="simplex dimension for delta/twisted (default 2)")
    ph.add_argument("--decoration", default=None, help="decoration JSON file (bundle target)")
    ph.add_argument("--base", default=None, help=f"builtin base: {', '.join(sorted(_BASES))}")
    ph.add_argument("--cochain", nargs="*", default=None, help="2-simplex values as id:value")
    ph.add_argument("--dump-matrices", default=None, help="directory for boundary matrix dumps")
    overflow(ph)
    common(ph)

    pb = sub.add_parser("bundle", help="build a decorated circle bundle and report on it")
    pb.add_argument("--decoration", default=None, help="decoration JSON file")
    pb.add_argument("--base", default=None, help=f"builtin base: {', '.join(sorted(_BASES))}")
    pb.add_argument("--cochain", nargs="*", default=None, help="2-simplex values as id:value")
    overflow(pb)
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
        # without --max-dim a bundle is built two above its base, which _load_bundle holds to the cap
        bundle = args.command == "bundle" or args.command == "homology" and args.target == "bundle"
        if args.max_dim is None and not bundle:
            args.max_dim = args.default_dim
        # a simplex dimension, word degree or depth above the cap would build past it
        cap, degree = effective_cap(), args.g.count(",") if getattr(args, "g", None) else 0
        n, max_dim = getattr(args, "n", None) or 0, args.max_dim or 0
        for what, value in (("--n", n), ("the degree of --g", degree), ("max dim", max_dim)):
            if value > cap:
                raise CapExceeded(f"{what} {value} exceeds cap {cap}")
        if max_dim < 0:
            raise ValueError("max dim must be nonnegative")
        if getattr(args, "n", 2) is None:
            args.n = 2  # the default simplex dimension; None told that --n was not given
        report, code = _COMMANDS[args.command](args)
        _emit(args, report)
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OverflowError as e:
        print(f"error: 64-bit overflow under checked policy: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        if isinstance(e, BrokenPipeError):
            # the reader is gone: send the interpreter's last flush of stdout nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
