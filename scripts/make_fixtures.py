"""Regenerate the stored state fixtures and their expected analysis verdicts.

Writes tests/fixtures/state_NN.json (one StateFile per fixture) plus
tests/fixtures/expected.json mapping each file name to the boolean verdicts
and float diagnostics the analysis pipeline produced when the fixture was
frozen.  Everything is seeded, so the state files it writes reproduce the
stored ones byte for byte.  expected.json does not: the analysis values
move at rounding level whenever a decomposition's arithmetic changes, and a
whole run rewrites them with that drift.  The stored expected.json is
frozen; the tests compare reports with it to 1e-9, and it is not
regenerated to absorb drift.  Rerun the script whole only when the fixture
roster or a verdict changes on purpose.

Usage: python scripts/make_fixtures.py
"""
from __future__ import annotations

import json
import pathlib

import numpy as np

from qcorr import OptimizerConfig, Tolerance, bipartite, families, statefile
from qcorr.analysis import analyze, to_machine

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# keys of the machine report frozen into expected.json; optimizer argmax
# angles and evaluation counts are deliberately excluded (degenerate optima
# make them unstable under harmless perturbations, unlike the values below)
EXPECTED_KEYS = [
    "dims",
    "trace",
    "spectrum",
    "pt_spectrum",
    "is_ppt",
    "ppt_min_eigenvalue",
    "is_sppt",
    "sppt_residuals",
    "rank_deficient",
    "commutator",
    "mutual_information",
    "classical_correlation",
    "discord",
    "is_cq",
    "cq_off_block_residual",
    "inconsistency",
]


def _ginibre_state(dim_a: int, dim_b: int, seed: int) -> bipartite.BipartiteState:
    return bipartite.validate(
        families.random_ginibre_density(dim_a * dim_b, seed), dim_a, dim_b
    )


def _product_state(seed: int) -> bipartite.BipartiteState:
    rho_a = families.random_ginibre_density(2, seed)
    rho_b = families.random_ginibre_density(3, seed + 1)
    return bipartite.validate(np.kron(rho_a, rho_b), 2, 3)


def build_roster() -> list[tuple[str, bipartite.BipartiteState, dict]]:
    """The twenty fixtures: name, state, descriptive metadata."""
    x_ppt = families.XStateParams(a11=0.3, a22=0.2, b11=0.3, b22=0.2,
                                  a12=0.1, b12=0.05j)
    x_zd = families.XStateParams(a11=0.3, a22=0.2, b11=0.2, b22=0.3,
                                 a12=0.1, b12=0.1j)
    roster = [
        ("cq_2x2", families.random_cq(2, 2, 101), {"family": "cq", "seed": 101}),
        ("cq_2x3", families.random_cq(2, 3, 102), {"family": "cq", "seed": 102}),
        ("cq_2x4", families.random_cq(2, 4, 103), {"family": "cq", "seed": 103}),
        ("cq_2x8", families.random_cq(2, 8, 104), {"family": "cq", "seed": 104}),
        ("cq_3x4", families.random_cq(3, 4, 105), {"family": "cq", "seed": 105}),
        ("sppt_2x1", families.random_sppt(1, 106), {"family": "sppt", "seed": 106}),
        ("sppt_2x3", families.random_sppt(3, 107), {"family": "sppt", "seed": 107}),
        ("sppt_2x5", families.random_sppt(5, 108), {"family": "sppt", "seed": 108}),
        ("ginibre_2x2", _ginibre_state(2, 2, 109), {"family": "ginibre", "seed": 109}),
        ("ginibre_2x3", _ginibre_state(2, 3, 110), {"family": "ginibre", "seed": 110}),
        ("ginibre_3x3", _ginibre_state(3, 3, 111), {"family": "ginibre", "seed": 111}),
        ("pure_2x2", families.random_pure(2, 2, 112), {"family": "pure", "seed": 112}),
        ("pure_2x3", families.random_pure(2, 3, 113), {"family": "pure", "seed": 113}),
        ("xstate_ppt_not_sppt", families.xstate(x_ppt),
         {"family": "xstate", "a12": [0.1, 0.0], "b12": [0.0, 0.05]}),
        ("xstate_zero_discord", families.xstate(x_zd),
         {"family": "xstate", "a12": [0.1, 0.0], "b12": [0.0, 0.1]}),
        ("bell_uniform",
         families.bell_diagonal(families.BellDiagonalParams(0.25, 0.25, 0.25, 0.25)),
         {"family": "bell", "p": [0.25, 0.25, 0.25, 0.25]}),
        ("bell_discordant",
         families.bell_diagonal(families.BellDiagonalParams(0.7, 0.1, 0.1, 0.1)),
         {"family": "bell", "p": [0.7, 0.1, 0.1, 0.1]}),
        ("product_2x3", _product_state(114), {"family": "product", "seed": 114}),
        ("bell_phi_plus", families.bell_diagonal(families.BellDiagonalParams(1, 0, 0, 0)),
         {"family": "pure"}),
        ("mixed_2x2",
         bipartite.validate(np.eye(4) / 4.0, 2, 2), {"family": "mixed"}),
    ]
    return roster


def main() -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    tol = Tolerance()
    opt = OptimizerConfig()
    expected: dict[str, dict] = {}
    for idx, (name, state, meta) in enumerate(build_roster(), start=1):
        fname = f"state_{idx:02d}.json"
        statefile.write_statefile(FIXTURE_DIR / fname, state, {"name": name, **meta})
        report = to_machine(analyze(state, tol, opt))
        expected[fname] = {"name": name, **{k: report[k] for k in EXPECTED_KEYS}}
        print(f"{fname}  {name:<22} ppt={report['is_ppt']} sppt={report['is_sppt']} "
              f"cq={report['is_cq']} discord={report['discord']:.6f}")
    with open(FIXTURE_DIR / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(expected)} fixtures to {FIXTURE_DIR}")


if __name__ == "__main__":
    main()
