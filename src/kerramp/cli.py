"""Command-line front end.

Commands:
  amplify  single-point solve of the angle relations
  table1   amplified-shift table for a list of squeezing levels in dB
  figure2  amplified-shift curves vs theta1 and vs theta2
  lossy    lossy amplifier run with fidelity report
  verify   group-identity and circuit-equivalence verification

Angles are accepted in radians (--delta) or degrees (--delta-deg); all
internal computation is in radians.  Output is deterministic CSV or JSON;
JSON embeds the resolved configuration under "meta".

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, circuits, fock, loss, su11
from .su11 import Saturated

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NO_CONVERGENCE = 3

TABLE1_DEFAULT_DB = (-3.0, -9.0, -10.0, -11.5, -13.0, -20.0)
TABLE1_DPHI_IN_DEG = (9.0, 28.8)


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    """Fixed float formatting: round-trippable, >= 6 significant digits."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def _strict_json(x):
    """x with every non-finite float written as its CSV cell (inf, -inf,
    nan): strict JSON has no such numbers."""
    if isinstance(x, dict):
        return {k: _strict_json(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_strict_json(v) for v in x]
    return _fmt(x) if isinstance(x, float) and not math.isfinite(x) else x


def _write_output(path, fmt, meta, columns, rows):
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        doc = _strict_json({"meta": meta, "rows": rows})
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _config_flags(path) -> list[str]:
    """Flat key=value config, # comments; keys are the flag names, with - or _.

    Each line becomes a --key=value token for argparse to convert.  The
    subcommand parsers take no abbreviations, so a key must name its flag
    in full, as on the command line.
    """
    flags = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _resolve_delta(args) -> float:
    if args.delta is not None and args.delta_deg is not None:
        raise UsageError("give either --delta or --delta-deg, not both")
    if args.delta is not None:
        return args.delta
    if args.delta_deg is not None:
        return math.radians(args.delta_deg)
    raise UsageError("an initial phase shift is required (--delta or --delta-deg)")


def _resolve_squeeze(args):
    """Exactly one of theta1 / theta2 / db selects the squeeze strength."""
    given = [
        name
        for name in ("theta1", "theta2", "db")
        if getattr(args, name, None) is not None
    ]
    if len(given) != 1:
        raise UsageError("give exactly one of --theta1, --theta2, --db")
    return given[0], getattr(args, given[0])


def _default_out_dir() -> str | None:
    return os.environ.get("KERRAMP_OUT_DIR")


def _out_path(args):
    if args.out is None:
        return None
    base = _default_out_dir()
    if base is not None and not os.path.isabs(args.out):
        return os.path.join(base, args.out)
    return args.out


def _params_from_args(args):
    delta = _resolve_delta(args)
    kind, value = _resolve_squeeze(args)
    if kind == "theta1":
        return su11.solve_params(delta, value)
    theta2 = su11.db_to_theta(value) if kind == "db" else value
    return su11.solve_theta2(delta, theta2)


def cmd_amplify(args):
    p = _params_from_args(args)
    saturated = isinstance(p, Saturated)
    row = {
        "delta_rad": p.delta,
        "theta1": None if saturated else p.theta1,
        "theta2": p.theta2,
        "gamma": None if saturated else p.gamma,
        "kappa": None if saturated else p.kappa,
        "dphi_amp_rad": p.dphi_amp,
        "dphi_amp_deg": math.degrees(p.dphi_amp),
        "saturated": saturated,
    }
    _write_output(_out_path(args), args.format, _meta(args), list(row), [row])
    return EXIT_OK


def table1_rows(db_values=TABLE1_DEFAULT_DB):
    """One row per dB level: small-delta factor plus the per-dphi_in columns."""
    rows = []
    for db in db_values:
        theta2 = su11.db_to_theta(db)
        row = {
            "db": db,
            "theta2_rad": theta2,
            # small-delta limit: 2 theta1 -> |theta2|
            "kappa1": su11.kappa_small_delta(theta2 / 2.0),
        }
        for k, deg in enumerate(TABLE1_DPHI_IN_DEG, start=2):
            p = su11.solve_theta2(math.radians(deg), theta2)
            saturated = isinstance(p, Saturated)
            row[f"kappa{k}"] = None if saturated else p.kappa
            row[f"dphi{k}_amp_deg"] = math.degrees(p.dphi_amp)
            row[f"saturated{k}"] = saturated
        rows.append(row)
    return rows


def cmd_table1(args):
    db_values = (
        TABLE1_DEFAULT_DB
        if args.db_list is None
        else tuple(float(v) for v in args.db_list.split(","))
    )
    rows = table1_rows(db_values)
    columns = list(rows[0].keys())
    _write_output(_out_path(args), args.format, _meta(args), columns, rows)
    return EXIT_OK


def figure2_rows(dphi_in_list, theta_max=2.5, points=200):
    """Amplified shift vs theta1 (panel a) and vs |theta2| (panel b)."""
    if points < 1:
        raise UsageError("figure2 needs a non-empty grid")
    rows = []
    thetas = np.linspace(0.0, theta_max, points)
    for delta in dphi_in_list:
        for panel, solve in (("a", su11.solve_params), ("b", su11.solve_theta2)):
            for theta in thetas:
                p = solve(delta, float(theta))
                rows.append(
                    {
                        "panel": panel,
                        "dphi_in_rad": delta,
                        "theta": float(theta),
                        "dphi_amp_deg": math.degrees(p.dphi_amp),
                        "saturated": isinstance(p, Saturated),
                    }
                )
    return rows


def cmd_figure2(args):
    if not 0.0 <= args.theta_max < math.inf:
        raise UsageError(f"--theta-max must be finite and >= 0, got {args.theta_max}")
    if args.dphi_in_list is None:
        dphi_in = [1e-7, math.radians(9.0), math.radians(28.8)]
    else:
        dphi_in = [float(v) for v in args.dphi_in_list.split(",")]
    rows = figure2_rows(dphi_in, theta_max=args.theta_max, points=args.points)
    columns = ["panel", "dphi_in_rad", "theta", "dphi_amp_deg", "saturated"]
    _write_output(_out_path(args), args.format, _meta(args), columns, rows)
    return EXIT_OK


def _input_state(name, p, layout):
    if name == "plus-plus":
        return loss.make_plus_plus(layout)
    if name == "werner":
        return loss.make_werner(layout, p)
    raise UsageError(f"unknown input state {name!r}")


def cmd_lossy(args):
    if not 0.0 < args.tol < math.inf:
        raise UsageError(f"--tol must be finite and > 0, got {args.tol}")
    if args.dim > args.max_dim:  # before the dense input state is built
        raise UsageError(f"start ladder {args.dim} exceeds the cap {args.max_dim}")
    if args.delta is None and args.delta_deg is None:
        delta = 0.5
    else:
        delta = _resolve_delta(args)
    params = su11.solve_params(delta, args.theta1)
    layout = fock.make_layout([2, args.dim])
    rho_in = _input_state(args.state, args.p, layout)
    config = loss.LossConfig(r_s=args.rs, r_k=args.rk)
    report = loss.run_lossy_amplifier(rho_in, params, config, max_dim=args.max_dim, tol=args.tol)
    rows = [
        {
            "state": args.state,
            "p": args.p if args.state == "werner" else None,
            "theta1": params.theta1,
            "dphi_in_rad": params.delta,
            "dphi_amp_rad": params.dphi_amp,
            "rs": args.rs,
            "rk": args.rk,
            "fidelity": report.fidelity,
            "truncation": report.truncation,
            "convergence_delta": report.convergence_delta,
            "converged": report.converged,
            "leakage": report.leakage,
        }
    ]
    columns = list(rows[0].keys())
    _write_output(_out_path(args), args.format, _meta(args), columns, rows)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def verify_report(dim=100, block=40):
    """Residuals of the group identity and the circuit equivalences.

    Each Fock-space row carries work_dim, the working ladder its compressed
    operator was composed on, and the leakage that certified that ladder;
    the 2x2 rows have neither.
    """
    rng = np.random.default_rng(7)
    gens2 = su11.generators(None, "matrix-2x2")
    max_2x2 = 0.0
    max_consistency = 0.0
    for _ in range(50):
        delta = rng.uniform(1e-3, math.pi / 2 - 0.1)
        theta1 = rng.uniform(0.0, 2.0)
        p = su11.solve_params(delta, theta1)
        max_2x2 = max(max_2x2, su11.verify_identity(p, gens2))
        _, _, y = su11.verify_matrix_derivation(p)
        max_consistency = max(
            max_consistency, abs(abs(y) - 1.0), abs(np.angle(y) - p.gamma)
        )

    p = su11.solve_params(0.3, 0.4)
    layout = fock.make_layout([2, dim])
    gens_f = su11.generators(layout, "fock-single")
    fock_res, fock_work, fock_leak = su11.identity_residual(p, gens_f, block=block)

    p2 = su11.solve_params(0.5, 0.5)
    layout2 = fock.make_layout([2, 40])
    _, lhs, rhs = circuits.build_two_mode_amplifier(p2, layout2)
    two_mode_res = circuits.equivalence_residual(lhs, rhs, block=15)

    layout3 = fock.make_layout([2, 14, 14])
    _, lhs3, rhs3 = circuits.build_three_mode_amplifier(p2, layout3)
    three_mode_res = circuits.equivalence_residual(lhs3, rhs3, block=5)

    checks = [
        ("identity-2x2-random-grid", max_2x2, 1e-12, None, None),
        ("matrix-derivation-consistency", max_consistency, 1e-12, None, None),
        (f"identity-fock-d{dim}-block{block}", fock_res, 1e-6, fock_work, fock_leak),
        ("two-mode-circuit-equivalence", two_mode_res, 1e-7, lhs.work_dim, lhs.leakage),
        (
            "three-mode-circuit-equivalence",
            three_mode_res,
            1e-6,
            lhs3.work_dim,
            lhs3.leakage,
        ),
    ]
    rows = [
        {
            "check": name,
            "residual": float(res),
            "tolerance": tol,
            "passed": bool(res < tol),
            "work_dim": work_dim,
            "leakage": leakage,
        }
        for name, res, tol, work_dim, leakage in checks
    ]
    return rows


def cmd_verify(args):
    if args.block < 0:
        raise UsageError(f"--block must be >= 0, got {args.block}")
    try:
        rows = verify_report(dim=args.dim, block=args.block)
    except fock.TruncationError as exc:  # a compression that did not settle
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    columns = ["check", "residual", "tolerance", "passed", "work_dim", "leakage"]
    _write_output(_out_path(args), args.format, _meta(args), columns, rows)
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_VERIFY


def _meta(args) -> dict:
    config = dict(sorted(vars(args).items()))
    return {"version": __version__, "command": args.command, "config": config}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args leaves it
    unchanged, and main dispatches to the command's cmd_<name> function."""
    parser = argparse.ArgumentParser(
        prog="kerramp",
        description="Cross-Kerr phase-shift amplification via quadrature squeezing",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        # no prefix matching: "--max" must not stand for "--max-dim", on the
        # command line or as a config key
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--config", default=None, help="key=value config file")

    def angle_flags(p):
        p.add_argument("--delta", type=float, default=None, help="dphi_in in radians")
        p.add_argument("--delta-deg", type=float, default=None, help="dphi_in in degrees")

    p = command("amplify", "solve the angle relations at one point")
    angle_flags(p)
    p.add_argument("--theta1", type=float, default=None)
    p.add_argument("--theta2", type=float, default=None)
    p.add_argument("--db", type=float, default=None, help="squeezing level in dB (<= 0)")
    common(p)

    p = command("table1", "amplified-shift table over dB levels")
    p.add_argument(
        "--db-list", default=None, help="comma-separated dB levels (default: 6 rows)"
    )
    common(p)

    p = command("figure2", "amplified-shift curves")
    p.add_argument(
        "--dphi-in-list",
        default=None,
        help="comma-separated dphi_in values in radians",
    )
    p.add_argument("--theta-max", type=float, default=2.5)
    p.add_argument("--points", type=int, default=200)
    common(p)

    p = command("lossy", "lossy amplifier fidelity run")
    angle_flags(p)
    p.add_argument("--theta1", type=float, default=0.5)
    p.add_argument("--rs", type=float, default=0.1, help="squeezer-loss reflectance")
    p.add_argument("--rk", type=float, default=0.1, help="Kerr-loss reflectance")
    p.add_argument(
        "--state", choices=("plus-plus", "werner"), default="plus-plus"
    )
    p.add_argument("--p", type=float, default=0.5, help="Werner mixing parameter")
    p.add_argument("--dim", type=int, default=20, help="starting Fock truncation")
    p.add_argument("--max-dim", type=int, default=160)
    p.add_argument("--tol", type=float, default=1e-3, help="convergence tolerance")
    common(p)

    p = command("verify", "identity and equivalence verification")
    p.add_argument("--dim", type=int, default=100, help="Fock truncation")
    p.add_argument("--block", type=int, default=40, help="interior-block bound")
    common(p)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # file values go ahead of the command line, so a given flag wins
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        # looked up per call, not stored in the cached parser, so that a
        # cmd_<name> replaced on the module after the first build still runs
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (UsageError, ValueError, ArithmeticError, TypeError, OSError) as exc:
        # TypeError: argparse stores [] as the value of "--flag=--"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
