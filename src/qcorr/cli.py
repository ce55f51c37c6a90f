"""Command-line front end.

Commands: analyze, verify-theorem1, remark-3xn, xstate, bell,
scan-inclusions.  Exit codes: 0 success, 1 a verified claim failed
(an assertion, a disagreement, or a missing witness), 2 input error
(unreadable or invalid state file, bad parameters).

Every randomized command either takes --seed or prints the seed it
chose, so any reported state can be regenerated exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, bipartite, discord, factorization, families, statefile
from .discord import DEFAULT_OPT, OptimizerConfig
from .errors import QcorrError
from .matlib import DEFAULT_TOL, Tolerance

__all__ = ["main"]

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_INPUT = 2

CSV_HEADER = [
    "family",
    "label",
    "is_valid",
    "is_ppt",
    "is_sppt",
    "is_cq",
    "normality_residual",
    "commutator",
    "discord",
]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-psd", type=float, default=DEFAULT_TOL.eps_psd,
                   help=f"PSD eigenvalue floor (default {DEFAULT_TOL.eps_psd})")
    p.add_argument("--tol-residual", type=float, default=DEFAULT_TOL.eps_residual,
                   help=f"reconstruction/commutator tolerance (default {DEFAULT_TOL.eps_residual})")
    p.add_argument("--tol-sppt", type=float, default=DEFAULT_TOL.eps_sppt,
                   help=f"normality residual tolerance (default {DEFAULT_TOL.eps_sppt})")
    p.add_argument("--tol-discord", type=float, default=DEFAULT_OPT.eps_opt,
                   help=f"discord optimizer accuracy (default {DEFAULT_OPT.eps_opt})")
    p.add_argument("--grid", type=int, default=None,
                   help="grid resolution: theta points for the measurement search "
                        f"(phi gets twice as many; default {DEFAULT_OPT.grid_theta}); "
                        "for scan-inclusions, steps per parameter simplex (default 8)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed; chosen and printed when omitted")
    p.add_argument("--output", type=str, default=None, help="write the result here")
    p.add_argument("--format", choices=("human", "machine"), default="human",
                   help="human text or machine JSON")


def _tol(args) -> Tolerance:
    return dataclasses.replace(
        DEFAULT_TOL,
        eps_psd=args.tol_psd,
        eps_residual=args.tol_residual,
        eps_sppt=args.tol_sppt,
    )


def _opt(args) -> OptimizerConfig:
    fields = {"eps_opt": args.tol_discord}
    if args.grid is not None:
        fields["grid_theta"] = max(2, args.grid)
        fields["grid_phi"] = max(4, 2 * args.grid)
    return dataclasses.replace(DEFAULT_OPT, **fields)


def _seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    seed = int(np.random.SeedSequence().entropy) % (2**63)
    print(f"seed {seed}")
    return seed


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def _flag(value: bool) -> str:
    return "yes" if value else "NO"


def cmd_analyze(args) -> int:
    tol = _tol(args)
    try:
        state, meta = statefile.read_statefile(args.path, tol)
        report = analysis.analyze(state, tol, _opt(args))
    except QcorrError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.format == "machine":
        doc = analysis.to_machine(report)
        if meta:
            doc["metadata"] = meta
        _emit(args, json.dumps(doc, indent=1))
    else:
        text = analysis.to_human(report)
        if meta:
            text = f"metadata            {json.dumps(meta)}\n" + text
        _emit(args, text)
    return EXIT_CLAIM if report.inconsistency else EXIT_OK


def cmd_verify_theorem1(args) -> int:
    tol = _tol(args)
    seed = _seed(args)
    n = args.dim_b
    children = np.random.SeedSequence(seed).spawn(args.samples)
    passes = 0
    max_resid = 0.0
    for child in children:
        state = families.random_cq(2, n, child, tol)
        verdict = factorization.is_sppt(state, tol)
        max_resid = max(max_resid, verdict.residuals["normality"])
        passes += int(verdict.is_sppt)
    ok = passes == args.samples
    if args.format == "machine":
        _emit(args, json.dumps({
            "samples": args.samples,
            "dim_b": n,
            "passes": passes,
            "max_normality_residual": max_resid,
            "seed": seed,
        }, indent=1))
    else:
        _emit(args, f"{passes}/{args.samples} random CQ 2x{n} states SPPT, "
                    f"max normality residual {max_resid:.3e}, seed {seed}")
    return EXIT_OK if ok else EXIT_CLAIM


def cmd_remark_3xn(args) -> int:
    tol = _tol(args)
    seed = _seed(args)
    n = args.dim_b
    children = np.random.SeedSequence(seed).spawn(args.samples)
    offenders = 0
    worst = None
    worst_resid = -1.0
    for k, child in enumerate(children):
        state = families.random_cq(3, n, child, tol)
        fac = factorization.factorize_3xn(state, tol)
        resid = fac.normality_residuals["s12"]
        if resid > tol.eps_sppt:
            offenders += 1
            if resid > worst_resid:
                worst_resid = resid
                worst = (k, state)
    frac = offenders / args.samples if args.samples else 0.0
    lines = [f"{offenders}/{args.samples} random CQ 3x{n} states have non-normal S12 "
             f"(fraction {frac:.3f}), seed {seed}"]
    witness_path = None
    if worst is not None:
        witness_path = args.output or "witness_3xn.json"
        k, state = worst
        statefile.write_statefile(witness_path, state, metadata={
            "label": f"cq-3x{n} with non-normal S12, residual {worst_resid:.6e}",
            "seed": seed,
            "family": f"random_cq(3,{n}); sample index {k}",
        })
        lines.append(f"worst offender (residual {worst_resid:.3e}) written to {witness_path}")
    if args.format == "machine":
        print(json.dumps({
            "samples": args.samples,
            "dim_b": n,
            "offenders": offenders,
            "fraction": frac,
            "worst_s12_normality": None if worst is None else worst_resid,
            "witness": witness_path,
            "seed": seed,
        }, indent=1))
    else:
        print("\n".join(lines))
    return EXIT_OK if offenders > 0 else EXIT_CLAIM


def _verdicts(state: bipartite.BipartiteState, tol: Tolerance):
    """PPT, SPPT and CQ verdicts of one state, with its SPPT report."""
    sppt = factorization.is_sppt(state, tol)
    verdicts = {
        "ppt": bipartite.is_ppt(state, tol).is_ppt,
        "sppt": sppt.is_sppt,
        "cq": discord.cq_detect(state, tol).is_cq,
    }
    return verdicts, sppt


def _xstate_rows(params: families.XStateParams, tol: Tolerance):
    """(analytic, numeric) verdict triples for one X-state parameter set."""
    analytic = {
        "positive": families.xstate_is_positive(params),
        "ppt": families.xstate_is_ppt(params),
        "sppt": families.xstate_is_sppt(params),
        "zero_discord": families.xstate_zero_discord(params),
    }
    w = np.linalg.eigvalsh(families.xstate_matrix(params))
    numeric = {"positive": bool(w[0] >= -tol.eps_psd)}
    if analytic["positive"] and numeric["positive"]:
        verdicts, _ = _verdicts(families.xstate(params, tol), tol)
        numeric.update(ppt=verdicts["ppt"], sppt=verdicts["sppt"], zero_discord=verdicts["cq"])
    return analytic, numeric


def cmd_xstate(args) -> int:
    tol = _tol(args)
    try:
        params = families.XStateParams(
            a11=args.a11, a22=args.a22, b11=args.b11, b22=args.b22,
            a12=args.a12, b12=args.b12,
        )
        analytic, numeric = _xstate_rows(params, tol)
    except QcorrError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    mismatches = [k for k in numeric if analytic[k] != numeric[k]]
    if args.format == "machine":
        _emit(args, json.dumps({
            "params": {
                "a11": args.a11, "a22": args.a22, "b11": args.b11, "b22": args.b22,
                "a12": [args.a12.real, args.a12.imag],
                "b12": [args.b12.real, args.b12.imag],
            },
            "analytic": analytic,
            "numeric": numeric,
            "mismatches": mismatches,
        }, indent=1))
    else:
        lines = ["verdict          analytic  numeric"]
        for k in ("positive", "ppt", "sppt", "zero_discord"):
            num = _flag(numeric[k]) if k in numeric else "-"
            mark = "  <- disagreement" if k in mismatches else ""
            lines.append(f"{k:<16} {_flag(analytic[k]):<9} {num}{mark}")
        _emit(args, "\n".join(lines))
    return EXIT_CLAIM if mismatches else EXIT_OK


def cmd_bell(args) -> int:
    tol = _tol(args)
    opt = _opt(args)
    try:
        p = [float(x) for x in args.p.split(",")]
        if len(p) != 4:
            raise QcorrError(f"--p needs 4 probabilities, got {len(p)}")
        params = families.BellDiagonalParams(*p)
        state = families.bell_diagonal(params, tol)
    except (ValueError, QcorrError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    analytic = {
        "sppt": families.bell_is_sppt(params),
        "zero_discord": families.bell_zero_discord(params),
    }
    verdicts, _ = _verdicts(state, tol)
    numeric = {"sppt": verdicts["sppt"], "zero_discord": verdicts["cq"]}
    com = discord.commutator_criterion(state)
    rep = discord.discord_a(state, opt, tol)
    mismatches = [k for k in numeric if analytic[k] != numeric[k]]
    if args.format == "machine":
        _emit(args, json.dumps({
            "p": p,
            "analytic": analytic,
            "numeric": numeric,
            "commutator": com,
            "discord": rep.discord,
            "mutual_information": rep.mutual_information,
            "mismatches": mismatches,
        }, indent=1))
    else:
        lines = ["verdict       analytic  numeric"]
        for k in ("sppt", "zero_discord"):
            mark = "  <- disagreement" if k in mismatches else ""
            lines.append(f"{k:<13} {_flag(analytic[k]):<9} {_flag(numeric[k])}{mark}")
        lines.append(f"commutator    {com:.3e}")
        lines.append(f"discord       {rep.discord:.6f} bits")
        _emit(args, "\n".join(lines))
    return EXIT_CLAIM if mismatches else EXIT_OK


def _simplex_grid(steps: int):
    if steps <= 0:
        return
    for i, j, k in itertools.combinations_with_replacement(range(steps + 1), 3):
        a, b, c, d = i, j - i, k - j, steps - k
        yield a / steps, b / steps, c / steps, d / steps


def _scan_row(family, label, state, tol):
    """CSV row (discord left blank) and verdicts of one valid scan point."""
    verdicts, sppt = _verdicts(state, tol)
    row = {
        "family": family,
        "label": label,
        "is_valid": True,
        "is_ppt": verdicts["ppt"],
        "is_sppt": verdicts["sppt"],
        "is_cq": verdicts["cq"],
        "normality_residual": f"{sppt.residuals['normality']:.6e}",
        "commutator": f"{discord.commutator_criterion(state):.6e}",
        "discord": "",
    }
    return row, verdicts


def _scan_x_row(label, family, params, tol):
    if not families.xstate_is_positive(params):
        row = dict.fromkeys(CSV_HEADER, "")
        row.update(family=family, label=label, is_valid=False)
        return row, None
    return _scan_row(family, label, families.xstate(params, tol), tol)


def cmd_scan_inclusions(args) -> int:
    tol = _tol(args)
    opt = _opt(args)
    steps = args.grid if args.grid is not None else 8
    seed = _seed(args)
    rng = np.random.default_rng(seed)

    rows = []
    violations = 0
    tally = {"ppt_not_sppt": 0, "sppt_not_cq": 0, "cq": 0, "valid": 0}

    def _note(verdicts):
        nonlocal violations
        if verdicts is None:
            return
        tally["valid"] += 1
        if verdicts["cq"] and not verdicts["sppt"]:
            violations += 1
        if verdicts["sppt"] and not verdicts["ppt"]:
            violations += 1
        tally["ppt_not_sppt"] += int(verdicts["ppt"] and not verdicts["sppt"])
        tally["sppt_not_cq"] += int(verdicts["sppt"] and not verdicts["cq"])
        tally["cq"] += int(verdicts["cq"])

    for diag in _simplex_grid(steps):
        a11, a22, b11, b22 = diag
        for ra, rb in itertools.product((0.0, 0.5, 0.99), repeat=2):
            params = families.XStateParams(
                a11=a11, a22=a22, b11=b11, b22=b22,
                a12=ra * np.sqrt(a11 * a22), b12=rb * np.sqrt(b11 * b22),
            )
            label = f"x({a11:.3g},{a22:.3g},{b11:.3g},{b22:.3g};{ra:.2g},{rb:.2g})"
            row, verdicts = _scan_x_row(label, "xgrid", params, tol)
            _note(verdicts)
            rows.append(row)

    for p in _simplex_grid(steps):
        params = families.BellDiagonalParams(*p)
        state = families.bell_diagonal(params, tol)
        label = f"bell({p[0]:.3g},{p[1]:.3g},{p[2]:.3g},{p[3]:.3g})"
        row, verdicts = _scan_row("bell", label, state, tol)
        _note(verdicts)
        row["discord"] = f"{discord.discord_a(state, opt, tol).discord:.6e}"
        rows.append(row)

    for i in range(args.samples):
        diag = rng.dirichlet(np.ones(4))
        ra, rb = rng.uniform(0.0, 1.2, size=2)
        params = families.XStateParams(
            a11=diag[0], a22=diag[1], b11=diag[2], b22=diag[3],
            a12=ra * np.sqrt(diag[0] * diag[1]), b12=rb * np.sqrt(diag[2] * diag[3]),
        )
        row, verdicts = _scan_x_row(f"xr{i}", "xrandom", params, tol)
        _note(verdicts)
        rows.append(row)

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_HEADER)
    writer.writeheader()
    writer.writerows(rows)
    if args.output:
        Path(args.output).write_text(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    print(
        f"{len(rows)} rows ({tally['valid']} valid), seed {seed}; "
        f"PPT-but-not-SPPT {tally['ppt_not_sppt']}, SPPT-but-not-CQ {tally['sppt_not_cq']}, "
        f"CQ {tally['cq']}; inclusion violations {violations}",
        file=sys.stderr,
    )
    return EXIT_CLAIM if violations else EXIT_OK


def _complex_arg(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Correlation-class analysis of bipartite states: "
                    "PPT, strong PPT, quantum discord, classical-quantum detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report on a state file")
    p.add_argument("path", help="state file (JSON)")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-theorem1", help="random CQ 2xN states are SPPT")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--dim-b", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=cmd_verify_theorem1)

    p = sub.add_parser("remark-3xn", help="random CQ 3xN states: non-normal S12 witness")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--dim-b", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=cmd_remark_3xn)

    p = sub.add_parser("xstate", help="analytic X-state predicates vs the numerical pipeline")
    p.add_argument("--a11", type=float, required=True)
    p.add_argument("--a22", type=float, required=True)
    p.add_argument("--b11", type=float, required=True)
    p.add_argument("--b22", type=float, required=True)
    p.add_argument("--a12", type=_complex_arg, default=0j)
    p.add_argument("--b12", type=_complex_arg, default=0j)
    _add_common(p)
    p.set_defaults(func=cmd_xstate)

    p = sub.add_parser("bell", help="Bell-diagonal predicates vs the numerical pipeline")
    p.add_argument("--p", required=True, help="p1,p2,p3,p4 over (Phi+,Phi-,Psi+,Psi-)")
    _add_common(p)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("scan-inclusions",
                       help="tally PPT / SPPT / CQ membership over grids and samples (CSV)")
    p.add_argument("--samples", type=int, default=200, help="random X-states to add")
    _add_common(p)
    p.set_defaults(func=cmd_scan_inclusions)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QcorrError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
