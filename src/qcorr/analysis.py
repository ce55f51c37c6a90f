"""Full single-state analysis: every verdict the toolkit can produce,
with machine- and human-readable renderings.

The report asserts internal consistency: a 2xN state detected as
classical-quantum must also be SPPT, so a violation is surfaced as a
prominent inconsistency flag rather than silently reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import discord, factorization
from .bipartite import BipartiteState
from .discord import DEFAULT_OPT, CqVerdict, DiscordReport, OptimizerConfig
from .factorization import SpptVerdict
from .matlib import DEFAULT_TOL, Tolerance

__all__ = ["AnalysisReport", "analyze", "to_machine", "to_human"]


@dataclass(frozen=True)
class AnalysisReport:
    """Everything known about one state.  commutator is the state's
    commutator_criterion, a necessary condition for zero discord that no
    verdict reads."""

    state: BipartiteState
    sppt: SpptVerdict
    discord: DiscordReport
    cq: CqVerdict
    commutator: float
    inconsistency: str | None


def analyze(
    state: BipartiteState,
    tol: Tolerance = DEFAULT_TOL,
    opt: OptimizerConfig = DEFAULT_OPT,
) -> AnalysisReport:
    """Run the whole pipeline on one validated state."""
    sppt = factorization.is_sppt(state, tol)
    report = discord.discord_a(state, opt)
    cq = discord.cq_detect(state, tol)

    inconsistency = None
    if state.dim_a == 2 and cq.is_cq and not sppt.is_sppt:
        inconsistency = (
            "state is classical-quantum but not SPPT "
            f"(off-block residual {cq.off_block_residual:.3e}, "
            f"normality residual {sppt.residuals['normality']:.3e})"
        )

    return AnalysisReport(
        state=state,
        sppt=sppt,
        discord=report,
        cq=cq,
        commutator=discord.commutator_criterion(state),
        inconsistency=inconsistency,
    )


# The measurement search fixes its basis to about 1e-8, so a Bloch component
# no larger than that is rounding noise and is set to 0: it decides neither
# the sign of the reported axis nor its azimuth.  When the smaller component
# of a measurement vector is that small the vector sits at a pole, where the
# relative phase of its components, the azimuth, is noise and is reported
# as 0.
_POLE_TOL = 1e-8


def _bloch_angles(d: DiscordReport) -> tuple[float | None, float | None]:
    """Bloch angles (theta, phi) of the axis of a qubit A side's measurement;
    (None, None) for any other dim_a.

    The two measurement vectors have Bloch vectors n and -n, so the
    measurement is the axis +-n whichever column comes first.  With (v0, v1)
    the first column, n = (2 Re(conj(v0) v1), 2 Im(conj(v0) v1),
    |v0|^2 - |v1|^2); components of magnitude at most _POLE_TOL are set to
    0, and the sign is chosen so that the first nonzero of n_z, n_x, n_y is
    positive.  Then theta is arccos n_z (taken as atan2(|(n_x, n_y)|, n_z),
    which stays finite and accurate near the poles) and
    phi = atan2(n_y, n_x) mod 2 pi.
    """
    if d.optimal_basis.shape[0] != 2:
        return None, None
    v0, v1 = d.optimal_basis[:, 0]
    c = 2.0 * np.conj(v0) * v1
    n = np.array([abs(v0) ** 2 - abs(v1) ** 2, c.real, c.imag])  # (z, x, y)
    n[np.abs(n) <= _POLE_TOL] = 0.0
    lead = n[n != 0.0]
    nz, nx, ny = -n if lead.size and lead[0] < 0.0 else n
    theta = float(np.arctan2(np.hypot(nx, ny), nz))
    if min(abs(v0), abs(v1)) <= _POLE_TOL:
        return theta, 0.0
    return theta, float(np.arctan2(ny, nx)) % (2.0 * np.pi)


def to_machine(report: AnalysisReport) -> dict:
    """JSON-serializable rendering; to_human formats it."""
    theta, phi = _bloch_angles(report.discord)
    return {
        "dims": [report.state.dim_a, report.state.dim_b],
        "trace": float(np.trace(report.state.rho).real),
        "spectrum": report.state.spectrum.tolist(),
        "pt_spectrum": report.sppt.ppt.spectrum.tolist(),
        "is_ppt": report.sppt.ppt.is_ppt,
        "ppt_min_eigenvalue": report.sppt.ppt.min_eigenvalue,
        "is_sppt": report.sppt.is_sppt,
        "sppt_residuals": dict(report.sppt.residuals),
        "rank_deficient": report.sppt.rank_deficient,
        "commutator": report.commutator,
        "mutual_information": report.discord.mutual_information,
        "classical_correlation": report.discord.classical_correlation,
        "discord": report.discord.discord,
        "optimal_theta": theta,
        "optimal_phi": phi,
        "optimizer_evals": report.discord.optimizer_evals,
        "grid_resolution": report.discord.grid_resolution,
        "is_cq": report.cq.is_cq,
        "cq_off_block_residual": report.cq.off_block_residual,
        "inconsistency": report.inconsistency,
    }


def _fmt_spec(values) -> str:
    return " ".join(f"{x:.6f}" for x in values)


def to_human(doc: dict) -> str:
    """Plain-text rendering of a to_machine document, its "metadata" first
    when it has one."""
    theta = doc["optimal_theta"]
    lines = [f"metadata            {json.dumps(doc['metadata'])}"] if "metadata" in doc else []
    lines += [
        f"state               {doc['dims'][0]}x{doc['dims'][1]}, trace {doc['trace']:.12f}",
        f"spectrum            {_fmt_spec(doc['spectrum'])}",
        f"pt spectrum         {_fmt_spec(doc['pt_spectrum'])}",
        f"ppt                 {'yes' if doc['is_ppt'] else 'NO'}"
        f" (min eigenvalue {doc['ppt_min_eigenvalue']: .3e})",
        f"sppt                {'yes' if doc['is_sppt'] else 'NO'}"
        + "".join(f" {k}={v:.3e}" for k, v in sorted(doc["sppt_residuals"].items())),
    ]
    if doc["rank_deficient"]:
        lines.append("                    rank-deficient extraction: SPPT not decidable")
    lines += [
        f"commutator          {doc['commutator']:.6e}",
        f"mutual information  {doc['mutual_information']:.6f} bits",
        f"classical corr      {doc['classical_correlation']:.6f} bits",
        f"discord             {doc['discord']:.6f} bits"
        + (f" (theta={theta:.6f}, phi={doc['optimal_phi']:.6f})" if theta is not None else ""),
        f"cq                  {'yes' if doc['is_cq'] else 'NO'}"
        f" (off-block residual {doc['cq_off_block_residual']:.3e})",
    ]
    if doc["inconsistency"]:
        lines.append(f"INCONSISTENT        {doc['inconsistency']}")
    return "\n".join(lines)
