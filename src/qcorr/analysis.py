"""Full single-state analysis: every verdict the toolkit can produce,
with machine- and human-readable renderings.

The report asserts internal consistency: a 2xN state detected as
classical-quantum must also be SPPT, so a violation is surfaced as a
prominent inconsistency flag rather than silently reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bipartite, discord, factorization
from .bipartite import BipartiteState, PptVerdict, partial_transpose_a
from .discord import DEFAULT_OPT, CqVerdict, DiscordReport, OptimizerConfig
from .factorization import SpptVerdict
from .matlib import DEFAULT_TOL, Tolerance, hermitize

__all__ = ["AnalysisReport", "analyze", "to_machine", "to_human"]


@dataclass(frozen=True)
class AnalysisReport:
    """Everything known about one state."""

    state: BipartiteState
    trace: float
    spectrum: list[float]
    pt_spectrum: list[float]
    ppt: PptVerdict
    sppt: SpptVerdict
    commutator: float
    mutual_information: float
    discord: DiscordReport
    cq: CqVerdict
    inconsistency: str | None


def analyze(
    state: BipartiteState,
    tol: Tolerance = DEFAULT_TOL,
    opt: OptimizerConfig = DEFAULT_OPT,
) -> AnalysisReport:
    """Run the whole pipeline on one validated state."""
    spectrum = np.linalg.eigvalsh(hermitize(state.rho))[::-1]
    pt_spectrum = np.linalg.eigvalsh(hermitize(partial_transpose_a(state)))[::-1]
    ppt = bipartite.is_ppt(state, tol)
    sppt = factorization.is_sppt(state, tol)
    com = discord.commutator_criterion(state)
    report = discord.discord_a(state, opt, tol)
    cq = discord.cq_detect(state, tol)

    inconsistency = None
    if state.dim_a == 2 and cq.is_cq and not sppt.is_sppt:
        inconsistency = (
            "state is classical-quantum but not SPPT "
            f"(off-block residual {cq.off_block_residual:.3e}, "
            f"normality residual {sppt.residuals.get('normality', float('nan')):.3e})"
        )

    return AnalysisReport(
        state=state,
        trace=float(np.trace(state.rho).real),
        spectrum=[float(x) for x in spectrum],
        pt_spectrum=[float(x) for x in pt_spectrum],
        ppt=ppt,
        sppt=sppt,
        commutator=com,
        mutual_information=report.mutual_information,
        discord=report,
        cq=cq,
        inconsistency=inconsistency,
    )


def to_machine(report: AnalysisReport) -> dict:
    """JSON-serializable rendering; a superset of the human output."""
    meas = report.discord.optimal_measurement
    return {
        "dims": [report.state.dim_a, report.state.dim_b],
        "trace": report.trace,
        "spectrum": report.spectrum,
        "pt_spectrum": report.pt_spectrum,
        "is_ppt": report.ppt.is_ppt,
        "ppt_min_eigenvalue": report.ppt.min_eigenvalue,
        "is_sppt": report.sppt.is_sppt,
        "sppt_residuals": dict(report.sppt.residuals),
        "rank_deficient": report.sppt.rank_deficient,
        "commutator": report.commutator,
        "mutual_information": report.discord.mutual_information,
        "classical_correlation": report.discord.classical_correlation,
        "discord": report.discord.discord,
        "optimal_theta": None if meas is None else meas.theta,
        "optimal_phi": None if meas is None else meas.phi,
        "optimizer_evals": report.discord.optimizer_evals,
        "grid_resolution": report.discord.grid_resolution,
        "is_cq": report.cq.is_cq,
        "cq_off_block_residual": report.cq.off_block_residual,
        "inconsistency": report.inconsistency,
    }


def _fmt_spec(values: list[float]) -> str:
    return " ".join(f"{x:.6f}" for x in values)


def to_human(report: AnalysisReport) -> str:
    """Plain-text rendering of the report."""
    d = report.discord
    meas = d.optimal_measurement
    lines = [
        f"state               {report.state.dim_a}x{report.state.dim_b}, trace {report.trace:.12f}",
        f"spectrum            {_fmt_spec(report.spectrum)}",
        f"pt spectrum         {_fmt_spec(report.pt_spectrum)}",
        f"ppt                 {'yes' if report.ppt.is_ppt else 'NO'}"
        f" (min eigenvalue {report.ppt.min_eigenvalue: .3e})",
        f"sppt                {'yes' if report.sppt.is_sppt else 'NO'}"
        + "".join(f" {k}={v:.3e}" for k, v in sorted(report.sppt.residuals.items())),
    ]
    if report.sppt.rank_deficient:
        lines.append("                    rank-deficient extraction: SPPT not decidable")
    lines += [
        f"commutator          {report.commutator:.6e}",
        f"mutual information  {d.mutual_information:.6f} bits",
        f"classical corr      {d.classical_correlation:.6f} bits",
        f"discord             {d.discord:.6f} bits"
        + (f" (theta={meas.theta:.6f}, phi={meas.phi:.6f})" if meas is not None else ""),
        f"cq                  {'yes' if report.cq.is_cq else 'NO'}"
        f" (off-block residual {report.cq.off_block_residual:.3e})",
    ]
    if report.inconsistency:
        lines.append(f"INCONSISTENT        {report.inconsistency}")
    return "\n".join(lines)
