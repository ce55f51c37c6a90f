"""Command-line front end.

Commands: analyze, verify-theorem1, remark-3xn, xstate, bell,
scan-inclusions.  Exit codes: 0 success, 1 a verified claim failed
(an assertion, a disagreement, or a missing witness), 2 input error
(unreadable or invalid state file, bad parameters), 141 stdout closed
before the output was written (the shell's status for SIGPIPE), with
nothing on stderr.

Reports are JSON under --format machine, else text, written to --output
or stdout; remark-3xn always prints, as its --output names the witness
file, and scan-inclusions writes CSV with its tallies on stderr.

Every randomized command either takes --seed or reports the seed it
chose, so any reported state can be regenerated exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis, discord, factorization, families, statefile
from .discord import DEFAULT_OPT, OptimizerConfig
from .errors import InvalidParams, QcorrError
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


def _int_at_least(low: int):
    """argparse type: an int no smaller than low."""
    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _tol(args) -> Tolerance:
    return Tolerance(args.tol_psd, args.tol_residual, args.tol_sppt)


def _opt(args) -> OptimizerConfig:
    return OptimizerConfig(eps_opt=args.tol_discord)


def _seed(args) -> int:
    return int(args.seed) if args.seed is not None else int(np.random.SeedSequence().entropy) % 2**63


def _emit(args, doc: dict, text: str) -> None:
    """Write doc as JSON under --format machine, else text, to --output or stdout."""
    out = json.dumps(doc, indent=1, allow_nan=False) if args.format == "machine" else text
    if args.output:
        Path(args.output).write_text(out + "\n")
    else:
        print(out)


def _flag(value: bool) -> str:
    return "yes" if value else "NO"


def cmd_analyze(args) -> int:
    tol = _tol(args)
    state, meta = statefile.read_statefile(args.path, tol)
    report = analysis.analyze(state, tol, _opt(args))
    doc = analysis.to_machine(report)
    if meta:
        doc["metadata"] = meta
    _emit(args, doc, analysis.to_human(doc))
    return EXIT_CLAIM if report.inconsistency else EXIT_OK


def cmd_verify_theorem1(args) -> int:
    tol = _tol(args)
    seed = _seed(args)
    n = args.dim_b
    verdicts = (factorization.is_sppt(families.random_cq(2, n, child, tol), tol)
                for child in np.random.SeedSequence(seed).spawn(args.samples))
    results = [(v.is_sppt, v.residuals["normality"]) for v in verdicts]
    passes = sum(ok for ok, _ in results)
    max_resid = max([0.0] + [resid for _, resid in results])
    _emit(args, {
        "samples": args.samples,
        "dim_b": n,
        "passes": passes,
        "max_normality_residual": max_resid,
        "seed": seed,
    }, f"{passes}/{args.samples} random CQ 2x{n} states SPPT, "
       f"max normality residual {max_resid:.3e}, seed {seed}")
    return EXIT_OK if passes == args.samples else EXIT_CLAIM


def cmd_remark_3xn(args) -> int:
    tol = _tol(args)
    seed = _seed(args)
    n = args.dim_b
    children = np.random.SeedSequence(seed).spawn(args.samples)
    resids = np.array([factorization.factorize(families.random_cq(3, n, child, tol), tol)
                       .residuals["normality_s12"] for child in children])
    offenders = int(np.count_nonzero(resids > tol.eps_sppt))
    frac = offenders / args.samples if args.samples else 0.0
    lines = [f"{offenders}/{args.samples} random CQ 3x{n} states have non-normal S12 "
             f"(fraction {frac:.3f}), seed {seed}"]
    witness_path = worst_resid = None
    if offenders:
        k = int(np.argmax(resids))  # the first of the largest residuals
        worst_resid = float(resids[k])
        witness_path = args.output or "witness_3xn.json"
        worst = families.random_cq(3, n, children[k], tol)
        statefile.write_statefile(witness_path, worst, metadata={
            "label": f"cq-3x{n} with non-normal S12, residual {worst_resid:.6e}",
            "seed": seed,
            "family": f"random_cq(3,{n}); sample index {k}",
        })
        lines.append(f"worst offender (residual {worst_resid:.3e}) written to {witness_path}")
    doc = {
        "samples": args.samples,
        "dim_b": n,
        "offenders": offenders,
        "fraction": frac,
        "worst_s12_normality": worst_resid,
        "median_s12_normality": float(np.median(resids)) if args.samples else None,
        "witness": witness_path,
        "seed": seed,
    }
    # not _emit: --output names the witness file, so the report always goes to stdout
    print(json.dumps(doc, indent=1) if args.format == "machine" else "\n".join(lines))
    return EXIT_OK if offenders > 0 else EXIT_CLAIM


def _verdict_table(args, head: dict, analytic: dict, numeric: dict, width: int,
                   tail: dict, lines: list[str]) -> int:
    """Emit analytic against numeric verdicts; EXIT_CLAIM on any disagreement.

    The document is head, analytic, numeric, tail and the mismatched keys.
    The text has one row per analytic verdict, '-' where numeric lacks it,
    with verdict names padded to width, followed by lines.
    """
    mismatches = [k for k in numeric if analytic[k] != numeric[k]]
    rows = [f"{'verdict':<{width}} analytic  numeric"]
    for k, want in analytic.items():
        num = _flag(numeric[k]) if k in numeric else "-"
        mark = "  <- disagreement" if k in mismatches else ""
        rows.append(f"{k:<{width}} {_flag(want):<9} {num}{mark}")
    doc = {**head, "analytic": analytic, "numeric": numeric, **tail, "mismatches": mismatches}
    _emit(args, doc, "\n".join([*rows, *lines]))
    return EXIT_CLAIM if mismatches else EXIT_OK


def cmd_xstate(args) -> int:
    tol = _tol(args)
    params = families.XStateParams(a11=args.a11, a22=args.a22, b11=args.b11, b22=args.b22,
                                   a12=args.a12, b12=args.b12)
    analytic = {
        "positive": families.xstate_is_positive(params),
        "ppt": families.xstate_is_ppt(params),
        "sppt": families.xstate_is_sppt(params),
        "zero_discord": families.xstate_zero_discord(params),
    }
    w = np.linalg.eigvalsh(families.xstate_matrix(params))
    numeric = {"positive": bool(w[0] >= -tol.eps_psd)}
    if analytic["positive"] and numeric["positive"]:
        state = families.xstate(params, tol)
        sppt = factorization.is_sppt(state, tol)
        numeric.update(ppt=sppt.ppt.is_ppt, sppt=sppt.is_sppt,
                       zero_discord=discord.cq_detect(state, tol).is_cq)
    head = {"params": {
        "a11": args.a11, "a22": args.a22, "b11": args.b11, "b22": args.b22,
        "a12": [args.a12.real, args.a12.imag],
        "b12": [args.b12.real, args.b12.imag],
    }}
    return _verdict_table(args, head, analytic, numeric, 16, {}, [])


def cmd_bell(args) -> int:
    tol = _tol(args)
    try:
        p = [float(x) for x in args.p.split(",")]
    except ValueError as exc:
        raise InvalidParams(f"--p: {exc}") from exc
    if len(p) != 4:
        raise InvalidParams(f"--p needs 4 probabilities, got {len(p)}")
    params = families.BellDiagonalParams(*p)
    state = families.bell_diagonal(params, tol)
    analytic = {
        "sppt": families.bell_is_sppt(params),
        "zero_discord": families.bell_zero_discord(params),
    }
    report = analysis.analyze(state, tol, _opt(args))
    numeric = {"sppt": report.sppt.is_sppt, "zero_discord": report.cq.is_cq}
    com, rep = report.commutator, report.discord
    tail = {"commutator": com, "discord": rep.discord,
            "mutual_information": rep.mutual_information}
    lines = [f"commutator    {com:.3e}", f"discord       {rep.discord:.6f} bits"]
    return _verdict_table(args, {"p": p}, analytic, numeric, 13, tail, lines)


def _simplex_grid(steps: int):
    if steps <= 0:
        return
    for i, j, k in itertools.combinations_with_replacement(range(steps + 1), 3):
        a, b, c, d = i, j - i, k - j, steps - k
        yield a / steps, b / steps, c / steps, d / steps


def _xpoint(diag, ra, rb, tol):
    """The X state with diagonal (a11, a22, b11, b22) = diag and couplings
    ra, rb times their Cauchy-Schwarz bounds; None outside the state space."""
    a11, a22, b11, b22 = diag
    params = families.XStateParams(a11=a11, a22=a22, b11=b11, b22=b22,
                                   a12=ra * np.sqrt(a11 * a22), b12=rb * np.sqrt(b11 * b22))
    return families.xstate(params, tol) if families.xstate_is_positive(params) else None


def _scan_row(family, label, state, tol):
    """CSV row of one scan point from its verdicts and commutator, discord
    left blank; state is None for a point outside the state space."""
    row = dict.fromkeys(CSV_HEADER, "")
    row.update(family=family, label=label, is_valid=state is not None)
    if state is not None:
        sppt = factorization.is_sppt(state, tol)
        cq = discord.cq_detect(state, tol)
        row.update(is_ppt=sppt.ppt.is_ppt, is_sppt=sppt.is_sppt, is_cq=cq.is_cq,
                   normality_residual=f"{sppt.residuals['normality']:.6e}",
                   commutator=f"{discord.commutator_criterion(state):.6e}")
    return row


def cmd_scan_inclusions(args) -> int:
    tol = _tol(args)
    opt = _opt(args)
    steps = args.grid
    seed = _seed(args)
    rng = np.random.default_rng(seed)

    rows = []
    for diag in _simplex_grid(steps):
        for ra, rb in itertools.product((0.0, 0.5, 0.99), repeat=2):
            label = "x({:.3g},{:.3g},{:.3g},{:.3g};{:.2g},{:.2g})".format(*diag, ra, rb)
            rows.append(_scan_row("xgrid", label, _xpoint(diag, ra, rb, tol), tol))

    for p in _simplex_grid(steps):
        state = families.bell_diagonal(families.BellDiagonalParams(*p), tol)
        label = f"bell({p[0]:.3g},{p[1]:.3g},{p[2]:.3g},{p[3]:.3g})"
        row = _scan_row("bell", label, state, tol)
        row["discord"] = f"{discord.discord_a(state, opt).discord:.6e}"
        rows.append(row)

    for i in range(args.samples):
        diag = rng.dirichlet(np.ones(4))
        ra, rb = rng.uniform(0.0, 1.2, size=2)
        rows.append(_scan_row("xrandom", f"xr{i}", _xpoint(diag, ra, rb, tol), tol))

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_HEADER)
    writer.writeheader()
    writer.writerows(rows)
    if args.output:
        Path(args.output).write_text(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    valid = [r for r in rows if r["is_valid"]]
    # each row may break CQ => SPPT and SPPT => PPT, and counts once per break
    violations = sum((r["is_cq"] and not r["is_sppt"]) + (r["is_sppt"] and not r["is_ppt"])
                     for r in valid)
    print(
        f"{len(rows)} rows ({len(valid)} valid), seed {seed}; "
        f"PPT-but-not-SPPT {sum(r['is_ppt'] and not r['is_sppt'] for r in valid)}, "
        f"SPPT-but-not-CQ {sum(r['is_sppt'] and not r['is_cq'] for r in valid)}, "
        f"CQ {sum(r['is_cq'] for r in valid)}; inclusion violations {violations}",
        file=sys.stderr,
    )
    return EXIT_CLAIM if violations else EXIT_OK


def _complex_arg(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """Reads a word starting '-' then a digit, '.' digit, inf or nan as a value.

    argparse's own pattern knows only plain decimals and took -1e-3, -0.2j,
    -inf or -0.1,0.5,0.3,0.3 for an option, so only --flag=value worked.  No
    qcorr flag starts so.  Subparsers are built with this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcorr",
        description="Correlation-class analysis of bipartite states: "
                    "PPT, strong PPT, quantum discord, classical-quantum detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flag groups shared by several commands; common goes on all of them
    common, disc, seed, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    common.add_argument("--tol-psd", type=float, default=DEFAULT_TOL.eps_psd,
                        help=f"PSD floor and CQ distance bound (default {DEFAULT_TOL.eps_psd})")
    common.add_argument("--tol-residual", type=float, default=DEFAULT_TOL.eps_residual,
                        help=f"hermiticity/reconstruction tolerance (default {DEFAULT_TOL.eps_residual})")
    common.add_argument("--tol-sppt", type=float, default=DEFAULT_TOL.eps_sppt,
                        help="absolute bound on the SPPT definition residual; remark-3xn's bound"
                             f" on S12's normality residual (default {DEFAULT_TOL.eps_sppt})")
    common.add_argument("--output", type=str, default=None, help="write the result here")
    disc.add_argument("--tol-discord", type=float, default=DEFAULT_OPT.eps_opt,
                      help=f"discord optimizer accuracy (default {DEFAULT_OPT.eps_opt})")
    seed.add_argument("--seed", type=_int_at_least(0), default=None,
                      help="RNG seed; chosen and reported when omitted")
    fmt.add_argument("--format", choices=("human", "machine"), default="human",
                     help="human text or machine JSON")

    p = sub.add_parser("analyze", parents=[common, disc, fmt], help="full report on a state file")
    p.add_argument("path", help="state file (JSON)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-theorem1", parents=[common, seed, fmt],
                       help="random CQ 2xN states are SPPT")
    p.add_argument("--samples", type=_int_at_least(0), default=1000)
    p.add_argument("--dim-b", type=_int_at_least(1), default=4)
    p.set_defaults(func=cmd_verify_theorem1)

    p = sub.add_parser("remark-3xn", parents=[common, seed, fmt],
                       help="random CQ 3xN states: non-normal S12 witness")
    p.add_argument("--samples", type=_int_at_least(0), default=100)
    p.add_argument("--dim-b", type=_int_at_least(1), default=4)
    p.set_defaults(func=cmd_remark_3xn)

    p = sub.add_parser("xstate", parents=[common, fmt],
                       help="analytic X-state predicates vs the numerical pipeline")
    for name in ("--a11", "--a22", "--b11", "--b22"):
        p.add_argument(name, type=float, required=True)
    for name in ("--a12", "--b12"):
        p.add_argument(name, type=_complex_arg, default=0j)
    p.set_defaults(func=cmd_xstate)

    p = sub.add_parser("bell", parents=[common, disc, fmt],
                       help="Bell-diagonal predicates vs the numerical pipeline")
    p.add_argument("--p", required=True, help="p1,p2,p3,p4 over (Phi+,Phi-,Psi+,Psi-)")
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("scan-inclusions", parents=[common, disc, seed],
                       help="tally PPT / SPPT / CQ membership over grids and samples (CSV)")
    p.add_argument("--samples", type=_int_at_least(0), default=200, help="random X-states to add")
    p.add_argument("--grid", type=_int_at_least(0), default=8, help="steps per parameter simplex")
    p.set_defaults(func=cmd_scan_inclusions)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at the interpreter's exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (qcorr analyze F | head -1): that is no
        # input error.  stdout goes to devnull so that the interpreter's final
        # flush is quiet, and the status is the one a shell reports for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (QcorrError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
