"""Command line interface.

    mfhess verify --type A2 --seed 42 --format json --out report.json
    mfhess section --type A2 --seed 42 --values "1/2,0,3,1,-2/5"
    mfhess invariants --type B2 --cache-dir .cache

The --type argument accepts a series label (A1, A2, A3, B2, C2, A1xA1, and
G2 behind --g2) or an inline JSON integer matrix.  MFHESS_CACHE sets the
default cache directory.  Beyond the common options verify takes only
--format, --out and --determinism-trials: how many points each check
samples is a constant of mfhess.verifier (HESS_POINTS and its neighbours),
and the JSON report is schema report_v4.  verify exits 0 exactly when no
check failed, and 2 before any check runs when --out cannot be opened for
writing; section and invariants exit 2 when the algebra does not build, and
every command exits 2 when stdout is closed before its output is written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from . import invariants as invmod
from .rational import cleared, ratio_str, to_rat
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
    v.add_argument("--determinism-trials", type=int, default=1)

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
        # opened before the suite runs, so that a bad path costs no run
        fh = open(args.out, "w") if args.out else None
    except (ValueError, OSError) as exc:
        return _error(str(exc))
    with fh or contextlib.nullcontext():
        report = run_suite(config)
        text = report.to_json() if args.output_format == "json" else report.to_text()
        if fh:
            fh.write(text + ("\n" if args.output_format == "text" else ""))
        else:
            print(text)
    return 1 if report.failed else 0


def cmd_section(args) -> int:
    config = _config_from_args(args)
    try:
        values = cleared([to_rat(v) for v in args.values.split(",")])
    except ValueError as exc:
        return _error(f"--values takes comma-separated integers or p/q rationals ({exc})")
    sc = build_context(config)
    if len(values[0]) != sc.family.b:
        return _error(f"expected {sc.family.b} values for {sc.label}, got {len(values[0])}")
    v = hess_section(sc.chart, values)
    if phi(sc.family, v) != values:
        print("error: the section point does not take the requested values",
              file=sys.stderr)
        return 1
    nums, den = v
    print(",".join(ratio_str(c, den) for c in nums))
    for i, c in enumerate(nums):
        if c:
            print(f"{sc.L.labels[i]}: {ratio_str(c, den)}")
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
    command = {"verify": cmd_verify, "section": cmd_section,
               "invariants": cmd_invariants}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()  # a closed stdout then fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (mfhess verify | head -1): point stdout
        # at devnull, so that the flush at exit has somewhere to go
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass    # a stdout with no file descriptor
        return _error("stdout was closed before the output was written")
    except Exception as exc:
        if not hasattr(exc, "build_stage"):
            raise
        # build_context failed; verify records that in its report instead
        return _error(f"build failed at stage {exc.build_stage}: "
                      f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
