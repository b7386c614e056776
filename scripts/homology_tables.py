"""Tabulate exact homology of the three standard objects across depths.

Usage:
  python scripts/homology_tables.py --max-dim 7
  python scripts/homology_tables.py --max-dim 6 --out tables.json
"""

from __future__ import annotations

import argparse

from csx.homology import homology_report, normalized_complex
from csx.simpset import build_C, build_S, build_SC, dumps_canonical, nondegenerate_list


BUILDERS = {"S": build_S, "C": build_C, "SC": build_SC}


def one_table(name: str, max_dim: int, policy: str) -> dict:
    X = BUILDERS[name](max_dim)
    rep = homology_report(normalized_complex(X), policy=policy)
    return {
        "object": name,
        "max_dim": max_dim,
        "cells": [len(nondegenerate_list(X, n)) for n in range(max_dim + 1)],
        "groups": [rep.pretty(k) for k in range(max_dim + 1)],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-dim", type=int, default=6, dest="max_dim")
    ap.add_argument("--out", default=None)
    ap.add_argument("--overflow", choices=("bigint", "checked"), default="bigint")
    args = ap.parse_args()

    tables = [one_table(name, args.max_dim, args.overflow) for name in ("C", "S", "SC")]
    for t in tables:
        print(f"\n{t['object']} truncated at dim {t['max_dim']}")
        print(f"  cells:  {' '.join(str(c) for c in t['cells'])}")
        # the top group is a truncation artifact, flag it
        shown = t["groups"][:-1] + [t["groups"][-1] + " (top, unreliable)"]
        for k, g in enumerate(shown):
            print(f"  H_{k} = {g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical({"tables": tables}))
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
