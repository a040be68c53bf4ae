"""Command line interface.

    mfhess verify --type A2 --seed 42 --format json --out report.json
    mfhess section --type A2 --seed 42 --values "1/2,0,3,1,-2/5"
    mfhess invariants --type B2 --cache-dir .cache

The --type argument accepts a series label (A1, A2, A3, B2, C2, A1xA1, and
G2 behind --g2) or an inline JSON integer matrix.  MFHESS_CACHE sets the
default cache directory.  verify exits 0 exactly when no check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import invariants as invmod
from .rational import rat_str, to_rat
from .rootdata import NonFiniteType, UnsupportedType
from .verifier import SuiteConfig, build_context, run_suite
from .hessenberg import hess_section
from .argshift import phi


def _default_cache() -> str | None:
    return os.environ.get("MFHESS_CACHE") or None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", dest="algebra", default="A2",
                   help="series label or inline JSON Cartan matrix")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cache-dir", default=_default_cache())
    p.add_argument("--g2", action="store_true", help="allow the G2 label")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mfhess")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the full check suite")
    _add_common(v)
    v.add_argument("--format", dest="output_format", choices=("text", "json"),
                   default="text")
    v.add_argument("--out", default=None, help="write the report to this file")
    v.add_argument("--hess-points", type=int, default=20)
    v.add_argument("--lagrangian-points", type=int, default=10)
    v.add_argument("--transversality-points", type=int, default=10)
    v.add_argument("--regular-points", type=int, default=10)
    v.add_argument("--roundtrip-points", type=int, default=20)
    v.add_argument("--slice-points", type=int, default=5)
    v.add_argument("--membership-samples", type=int, default=8)
    v.add_argument("--determinism-trials", type=int, default=1)
    v.add_argument("--coeff-bound", type=int, default=5)
    v.add_argument("--series-order", type=int, default=0)

    s = sub.add_parser("section", help="invert the generator value map on the slice")
    _add_common(s)
    s.add_argument("--values", required=True,
                   help="comma-separated rationals, one per generator")

    i = sub.add_parser("invariants", help="compute and print invariant generators")
    _add_common(i)
    return ap


def _config_from_args(args) -> SuiteConfig:
    """Each parsed option named like a SuiteConfig field sets that field; the
    fields a subcommand does not parse keep their SuiteConfig defaults."""
    names = {f.name for f in dataclasses.fields(SuiteConfig)}
    return SuiteConfig(enable_g2=args.g2,
                       **{k: v for k, v in vars(args).items() if k in names})


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_verify(args) -> int:
    config = _config_from_args(args)
    try:
        config.validate()
    except ValueError as exc:
        return _error(str(exc))
    report = run_suite(config)
    text = report.to_json() if config.output_format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            if config.output_format == "text":
                fh.write("\n")
    else:
        print(text)
    return 1 if report.failed else 0


def cmd_section(args) -> int:
    config = _config_from_args(args)
    try:
        values = [to_rat(v) for v in args.values.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        return _error(f"--values takes comma-separated integers or p/q rationals ({exc})")
    sc = build_context(config)
    if len(values) != sc.family.b:
        return _error(f"expected {sc.family.b} values for {sc.label}, got {len(values)}")
    v = hess_section(sc.chart, values)
    if phi(sc.family, v) != values:
        print("error: the section point does not take the requested values",
              file=sys.stderr)
        return 1
    print(",".join(rat_str(c) for c in v))
    for i, c in enumerate(v):
        if c:
            print(f"{sc.L.labels[i]}: {rat_str(c)}")
    return 0


def cmd_invariants(args) -> int:
    config = _config_from_args(args)
    sc = build_context(config)
    payload = {
        "label": sc.label,
        "degrees": list(sc.inv.degrees),
        "provenance": sc.inv.provenance,
        "polys": [p.to_payload() for p in sc.inv.polys],
    }
    if config.cache_dir:
        path = invmod.save_family(config.cache_dir, sc.label, sc.L, sc.inv)
        payload["cache_file"] = path
    print(json.dumps(payload, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "section":
            return cmd_section(args)
        if args.command == "invariants":
            return cmd_invariants(args)
    except (UnsupportedType, NonFiniteType) as exc:  # the algebra does not build
        return _error(str(exc))
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
