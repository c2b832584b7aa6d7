"""Command-line interface: verification suites with CSV/JSON reports.

Commands mirror the harness suites::

    barnorm growth      --model abelian:2 --growth-degree 2 --r-max 10
    barnorm norms       --model free:2 --k 1 --n 1 --p 2 --q 4 --trials 50
    barnorm compare-pq  --model abelian:2 --growth-degree 2 --k 1 --n 0 \
                        --p 2 --q 4 --trials 50
    barnorm pushforward --hom abelian2-to-z --k 1 --n 0 --p 1 --trials 100
    barnorm diffuse     --model free:2 --N 2 --degree 1 --radius 2 --n 1 \
                        --p 2 --q 4 --trials 20
    barnorm f2-vanish   --levels 5 --norms 0:3,0:2
    barnorm all         --seed 42 --outdir reports

Each suite writes ``<outdir>/<suite>.csv`` (schema comment line, header,
one row per trial, floats with 12 significant digits, exact rationals as
``p/q``) plus ``<suite>_summary.json`` with
``{suite, trials, violations, wall_time_ms}``.  CSV rows are deterministic
functions of the configuration; the summary's wall time is the only
non-reproducible output.  Exit status is 0 iff every asserted check held, 1
when one failed or an internal invariant broke (then nothing is written), and
2 for bad input.

A JSON config file may supply any long-option value (keys use underscores,
e.g. ``growth_degree``; the ``--N`` option's key is ``annuli_degree``);
explicit command-line flags win.  Each value is checked like the same flag,
as the text of its JSON number or string (a list is rejected); null keeps
the option's default.  A config file that is missing or unreadable, is not
valid JSON, or does not hold a JSON object, and a key that names no option
of any command, are rejected with exit status 2 before anything runs.
``BARNORM_ENUM_CAP`` overrides the default enumeration cap (an integer >= 1,
or it is rejected the same way).  The cap (``--cap``, or that default) bounds
the ball of every chain draw, the annuli of diffuse, the kernel-control balls
of pushforward and all, and the ``4**(levels + 1)`` words of the top F2 level
of f2-vanish and all; a command that would exceed it exits with status 2 and
writes nothing.  A ``--cap``, ``--radius`` (the radius-0 ball holds no draw)
or ``--r-max`` below 1, exponent options below 1, negative counts, degrees or
levels and ``--N`` below 2 are usage errors naming the option.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import astuple
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import harness
from .chains import chain_from_records, chain_to_records
from .errors import CollisionDetected
from .groups import DEFAULT_ENUM_CAP, parse_model
from .norms import INF, NormParams, _exponent_from_text


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        if value == INF:
            return "inf"
        return f"{value:.12g}"
    return str(value)


def write_csv(path: Path, suite: str, schema, rows) -> None:
    lines = [f"# schema: {suite} v1", ",".join(schema)]
    for row in rows:
        lines.append(",".join(_format_value(row[col]) for col in schema))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary(path: Path, suite: str, trials: int, violations: int,
                  wall_time_ms: int) -> None:
    payload = {
        "suite": suite,
        "trials": trials,
        "violations": violations,
        "wall_time_ms": wall_time_ms,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _exponent(text: str) -> float:
    try:
        value = _exponent_from_text(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid exponent {text!r} (use inf or a rational like 5/2)"
        ) from None
    if not value >= 1:
        raise argparse.ArgumentTypeError(
            f"invalid exponent {text!r} (must be >= 1)")
    return value


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r} (must be >= {low})")
    return value


_non_negative_int = partial(_int_at_least, 0)


def _norm_pairs(text: str) -> list:
    try:
        return [astuple(NormParams.parse(part)) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid n:p pairs {text!r} ({exc})") from None


def _default_cap() -> int:
    env = os.environ.get("BARNORM_ENUM_CAP")
    if not env:
        return DEFAULT_ENUM_CAP
    try:
        return _int_at_least(1, env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"BARNORM_ENUM_CAP: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barnorm",
        description="exact bar-complex chain computations and norm-estimate "
                    "verification suites",
    )
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file supplying option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--outdir", type=Path, default=Path("reports"))
        p.add_argument("--cap", type=partial(_int_at_least, 1),
                       default=_default_cap(),
                       help="enumeration element cap")

    p = sub.add_parser("growth", help="sphere/ball counts and the growth constant")
    common(p)
    p.add_argument("--model", default="abelian:2")
    p.add_argument("--growth-degree", type=_non_negative_int, default=2)
    p.add_argument("--r-max", type=partial(_int_at_least, 1), default=10)

    p = sub.add_parser("norms", help="contractivity checks on random chains")
    common(p)
    p.add_argument("--model", default="free:2")
    p.add_argument("--k", type=_non_negative_int, default=1)
    p.add_argument("--n", type=_non_negative_int, default=1)
    p.add_argument("--p", type=_exponent, default=2.0)
    p.add_argument("--q", type=_exponent, default=4.0)
    p.add_argument("--trials", type=_non_negative_int, default=50)
    p.add_argument("--radius", type=partial(_int_at_least, 1), default=3)
    p.add_argument("--support", type=_non_negative_int, default=8)

    p = sub.add_parser("compare-pq", help="polynomial-growth norm comparison")
    common(p)
    p.add_argument("--model", default="abelian:2")
    p.add_argument("--growth-degree", type=_non_negative_int, default=2)
    p.add_argument("--k", type=_non_negative_int, default=1)
    p.add_argument("--n", type=_non_negative_int, default=0)
    p.add_argument("--p", type=_exponent, default=2.0)
    p.add_argument("--q", type=_exponent, default=4.0)
    p.add_argument("--trials", type=_non_negative_int, default=50)
    p.add_argument("--radius", type=partial(_int_at_least, 1), default=8)
    p.add_argument("--support", type=_non_negative_int, default=10)

    p = sub.add_parser("pushforward", help="functoriality norm estimates")
    common(p)
    p.add_argument("--hom", default="abelian2-to-z",
                   choices=sorted(harness.EXAMPLE_HOMOMORPHISMS))
    p.add_argument("--k", type=_non_negative_int, default=1)
    p.add_argument("--n", type=_non_negative_int, default=0)
    p.add_argument("--p", type=_exponent, default=1.0)
    p.add_argument("--trials", type=_non_negative_int, default=50)
    p.add_argument("--radius", type=partial(_int_at_least, 1), default=6)
    p.add_argument("--support", type=_non_negative_int, default=8)

    p = sub.add_parser("diffuse", help="diffusion cone homotopy and bound checks")
    common(p)
    p.add_argument("--model", default="free:2")
    p.add_argument("--N", type=partial(_int_at_least, 2), default=2,
                   dest="annuli_degree",
                   help="annuli degree (values <= 10 are flagged non-conforming)")
    p.add_argument("--degree", type=_non_negative_int, default=1)
    p.add_argument("--n", type=_non_negative_int, default=1)
    p.add_argument("--p", type=_exponent, default=2.0)
    p.add_argument("--q", type=_exponent, default=4.0)
    p.add_argument("--ratio-m", type=_non_negative_int, default=None)
    p.add_argument("--trials", type=_non_negative_int, default=20)
    p.add_argument("--radius", type=partial(_int_at_least, 1), default=2)
    p.add_argument("--support", type=_non_negative_int, default=3)
    p.add_argument("--max-diameter", type=partial(_int_at_least, 1), default=None)
    p.add_argument("--chain", type=Path, default=None,
                   help="verify one chain from a JSON record file instead")
    p.add_argument("--emit-chain", type=Path, default=None,
                   help="write the cone of the (last) input chain as JSON")

    p = sub.add_parser("f2-vanish", help="free-group vanishing construction")
    common(p)
    p.add_argument("--levels", type=_non_negative_int, default=5)
    p.add_argument("--norms", type=_norm_pairs, default="0:3,0:2",
                   help="comma-separated n:p pairs for the decay table")

    p = sub.add_parser("all", help="every suite at a small deterministic scale")
    common(p)

    # config defaults must reach the subparsers: argparse applies a
    # subparser's own argument defaults over parent-level set_defaults
    parser.suite_parsers = dict(sub.choices)
    return parser


def _run_suite(args) -> dict:
    """Dispatch to the harness; returns {suite: (schema, rows, violations)}."""
    cmd = args.command
    if cmd == "growth":
        return harness.run_growth(args.model, args.growth_degree, args.r_max)
    if cmd == "norms":
        return harness.run_contractivity(
            args.model, args.k, args.n, args.p, args.q, args.trials,
            args.seed, args.radius, args.support, cap=args.cap)
    if cmd == "compare-pq":
        return harness.run_compare(
            args.model, args.growth_degree, args.k, args.n, args.p, args.q,
            args.trials, args.seed, args.radius, args.support, cap=args.cap)
    if cmd == "pushforward":
        return harness.run_pushforward(
            args.hom, args.k, args.n, args.p, args.trials, args.seed,
            args.radius, args.support, cap=args.cap)
    if cmd == "diffuse":
        input_chain = None
        if args.chain is not None:
            model = parse_model(args.model)
            records = json.loads(args.chain.read_text(encoding="utf-8"))
            input_chain = chain_from_records(model, records, degree=args.degree)
        results, last_cone = harness.run_diffuse(
            args.model, args.annuli_degree, args.degree, args.n, args.p,
            args.q, args.trials, args.seed, args.radius, args.support,
            args.ratio_m, args.cap, args.max_diameter, input_chain)
        if args.emit_chain is not None and last_cone is not None:
            args.emit_chain.write_text(
                json.dumps(chain_to_records(last_cone), indent=1) + "\n",
                encoding="utf-8",
            )
        return results
    if cmd == "f2-vanish":
        return harness.run_f2(args.levels, args.norms, args.cap)
    if cmd == "all":
        return harness.run_all(args.seed, args.cap)
    raise AssertionError(f"unhandled command {cmd}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
    except ValueError as exc:  # a malformed BARNORM_ENUM_CAP
        print(f"error: {exc}", file=sys.stderr)
        return 2
    probe, _ = parser.parse_known_args(argv)
    if probe.config is not None:
        try:
            config = json.loads(probe.config.read_text(encoding="utf-8"))
            if not isinstance(config, dict):
                raise ValueError("the top level is not a JSON object")
        except (OSError, ValueError) as exc:  # missing, unreadable, not JSON
            print(f"error: config file {probe.config}: {exc}", file=sys.stderr)
            return 2
        known = {action.dest
                 for p in (parser, *parser.suite_parsers.values())
                 for action in p._actions}
        unknown = sorted(set(config) - known)
        if unknown:
            print(f"error: config keys name no option: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        # argparse runs an option's type on string defaults only
        config = {key: str(value) for key, value in config.items()
                  if value is not None}
        parser.set_defaults(**config)
        for suite_parser in parser.suite_parsers.values():
            suite_parser.set_defaults(**config)
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        results = _run_suite(args)
    except Exception as exc:  # surfaced caps, bad configs, missing files
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (AssertionError, CollisionDetected)) else 2
    wall_ms = int((time.monotonic() - started) * 1000)

    args.outdir.mkdir(parents=True, exist_ok=True)
    total_violations = 0
    for suite, (schema, rows, violations) in sorted(results.items()):
        total_violations += violations
        write_csv(args.outdir / f"{suite}.csv", suite, schema, rows)
        write_summary(args.outdir / f"{suite}_summary.json", suite,
                      len(rows), violations, wall_ms)
        status = "ok" if not violations else f"{violations} VIOLATIONS"
        print(f"{suite}: {len(rows)} rows, {status}")
    return 0 if total_violations == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
