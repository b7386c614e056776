"""Sweep every 0/1 cochain on the boundary sphere of the tetrahedron.

For each of the 16 assignments: the signed degree, whether the decoration
extends over the solid 3-cell, and the exact homology of the bundle's total
space.  Equal degrees give isomorphic total spaces, which the table makes
visible.

Usage:
  python scripts/bundle_gallery.py
  python scripts/bundle_gallery.py --out gallery.json
"""

from __future__ import annotations

import argparse
from itertools import product

from csx.bundles import (
    FLAT,
    TWISTED,
    Decoration,
    TwoCochain,
    boundary_delta,
    decorate_from_cochain,
    extend_decoration,
    solid_delta,
    sphere_cochain_degree,
    total_space,
)
from csx.homology import homology_report, normalized_complex
from csx.simpset import dumps_canonical


def one_row(bits: tuple[int, ...], policy: str) -> dict:
    cochain = TwoCochain(bits)
    decor = decorate_from_cochain(boundary_delta(3), cochain)
    rep = homology_report(normalized_complex(total_space(decor).total), policy=policy)
    partial = {(2, k): (TWISTED if bits[k] else FLAT) for k in range(4)}
    filled = extend_decoration(solid_delta(3), partial)
    return {
        "cochain": list(bits),
        "degree": sphere_cochain_degree(cochain),
        "extends_over_3_cell": isinstance(filled, Decoration),
        "groups": [rep.pretty(k) for k in range(4)],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None)
    ap.add_argument("--overflow", choices=("bigint", "checked"), default="bigint")
    args = ap.parse_args()

    rows = [one_row(bits, args.overflow) for bits in product((0, 1), repeat=4)]
    print(f"{'cochain':<12} {'deg':>4} {'extends':>8}  H_0..H_3")
    for r in sorted(rows, key=lambda r: (r["degree"], r["cochain"])):
        bits = "".join(str(b) for b in r["cochain"])
        groups = ", ".join(r["groups"])
        print(f"{bits:<12} {r['degree']:>+4} {str(r['extends_over_3_cell']):>8}  {groups}")
    by_degree = {}
    for r in rows:
        by_degree.setdefault(abs(r["degree"]), set()).add(tuple(r["groups"]))
    assert all(len(v) == 1 for v in by_degree.values()), "equal |degree| must give equal homology"
    print("\nhomology depends only on |degree|, as it should")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical({"rows": rows}))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
