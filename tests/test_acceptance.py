"""End-to-end acceptance checks for the correlation-class toolkit.

One test per claim, each asserting the stated tolerance and printing a
single summary line (visible under pytest -s).  The claims cover: CQ
implies SPPT for 2xN, the failure of that implication for 3xN, the
closed-form X-state and Bell-diagonal criteria against the numerical
pipeline, the zero-discord Bell family, the pure-state discord identity,
the measurement optimizer against a brute-force oracle, the commutator
necessity criterion, factorization soundness with gauge invariance, and
the CLI fixture and exit-code contract.
"""
from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from helpers import (brute_discord_2q, child_seeds, factor_x, gauge_transport,
                     pseudo_inverse, sample_xstate_params, simplex_grid, sppt_residuals,
                     vn_entropy)
from qcorr import (OptimizerConfig, Tolerance, bipartite, discord,
                   factorization, families, statefile)
from qcorr.analysis import analyze, to_machine
from qcorr.cli import EXIT_CLAIM, EXIT_INPUT, EXIT_OK, main
from qcorr.matlib import dagger, fro_norm

TOL = Tolerance()
OPT = OptimizerConfig()
FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"


def test_criterion_01_cq_states_are_sppt_for_2xn():
    start = time.perf_counter()
    worst = 0.0
    total = 0
    for n in (1, 2, 3, 4, 8):
        for seed in child_seeds(1000 + n, 1000):
            state = families.random_cq(2, n, seed)
            verdict = factorization.is_sppt(state, TOL)
            assert verdict.is_sppt, f"CQ 2x{n} state (seed {seed}) not SPPT"
            worst = max(worst, verdict.residuals["normality"])
            total += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed <= 60.0
    print(f"acceptance 01: PASS ({total} CQ states SPPT, worst normality "
          f"{worst:.2e}, {elapsed:.1f} s)")


def test_criterion_02_cq_does_not_imply_sppt_for_3xn():
    def commutator(a, b):
        return a @ b - b @ a

    offenders = 0
    worst_identity = 0.0
    for seed in child_seeds(2100, 100):
        spec = families.random_cq_spec(3, 4, seed)
        state = families.build_cq_state(spec)
        f = factorization.factorize(state, TOL)

        # the S12 non-normality is exactly a weighted commutator of the two
        # Hermitian contrasts H_i = X1^+ (sigma_i - sigma_0) X1^+, with
        # weights lam_i = u[0,i] * conj(u[1,i]) from the classical basis
        lam1 = spec.u[0, 1] * np.conj(spec.u[1, 1])
        lam2 = spec.u[0, 2] * np.conj(spec.u[1, 2])
        x1p = pseudo_inverse(f.x[0])
        h1 = x1p @ (spec.sigmas[1] - spec.sigmas[0]) @ x1p
        h2 = x1p @ (spec.sigmas[2] - spec.sigmas[0]) @ x1p
        lhs = commutator(f.s[0, 1], dagger(f.s[0, 1]))
        rhs = (lam1 * np.conj(lam2) - lam2 * np.conj(lam1)) * commutator(h1, h2)
        worst_identity = max(worst_identity, fro_norm(lhs - rhs))
        assert fro_norm(lhs - rhs) <= 1e-8

        if fro_norm(lhs) > 1e-3:
            offenders += 1
            assert discord.cq_detect(state, TOL).is_cq
            assert bipartite.is_ppt(state, TOL).is_ppt
            assert discord.discord_a(state, OPT).discord <= 1e-4
    assert offenders >= 95
    print(f"acceptance 02: PASS ({offenders}/100 CQ 3x4 states with non-normal "
          f"S12, identity residual {worst_identity:.2e})")


def test_criterion_03_xstate_criteria_match_numerics():
    rng = np.random.default_rng(3000)
    kinds = ("generic", "sppt", "zero_discord", "diagonal")
    disagreements = 0
    ppt_not_sppt = None
    sppt_candidate = None
    for i in range(10_000):
        params = sample_xstate_params(rng, kinds[i % 4])
        a_pos = families.xstate_is_positive(params)
        a_ppt = families.xstate_is_ppt(params)
        a_sppt = families.xstate_is_sppt(params)
        n_pos = bool(np.linalg.eigvalsh(families.xstate_matrix(params)).min()
                     >= -TOL.eps_psd)
        if a_pos != n_pos:
            disagreements += 1
            continue
        if not a_pos:
            continue
        state = families.xstate(params, TOL)
        n_ppt = bipartite.is_ppt(state, TOL).is_ppt
        n_sppt = factorization.is_sppt(state, TOL).is_sppt
        disagreements += (a_ppt != n_ppt) + (a_sppt != n_sppt)
        if ppt_not_sppt is None and n_ppt and not n_sppt:
            ppt_not_sppt = params
        if sppt_candidate is None and n_sppt and not families.xstate_zero_discord(params):
            sppt_candidate = params
    assert disagreements == 0
    assert ppt_not_sppt is not None
    assert sppt_candidate is not None
    d = discord.discord_a(families.xstate(sppt_candidate, TOL), OPT).discord
    assert d > 1e-3
    print(f"acceptance 03: PASS (10000 X states, 0 disagreements; witnesses "
          f"PPT-not-SPPT and SPPT with discord {d:.4f})")


def test_criterion_04_bell_diagonal_criteria_on_simplex_grid():
    points = simplex_grid(50)
    worst_comm = 0.0
    for p in points:
        params = families.BellDiagonalParams(*p)
        state = families.bell_diagonal(params, TOL)
        assert families.bell_is_sppt(params) == factorization.is_sppt(state, TOL).is_sppt, p
        cq = discord.cq_detect(state, TOL)
        assert families.bell_zero_discord(params) == cq.is_cq, p
        worst_comm = max(worst_comm, discord.commutator_criterion(state))
    assert worst_comm <= 1e-10
    probe = families.bell_diagonal(families.BellDiagonalParams(0.7, 0.1, 0.1, 0.1), TOL)
    d = discord.discord_a(probe, OPT).discord
    assert d > 0.01
    print(f"acceptance 04: PASS ({len(points)} grid points agree, worst "
          f"commutator {worst_comm:.2e}, probe discord {d:.4f})")


def test_criterion_05_zero_discord_bell_family():
    worst = 0.0
    for q in (-1.0, -0.5, 0.0, 0.5, 1.0):
        params = families.BellDiagonalParams((1 + q) / 4, (1 - q) / 4,
                                             (1 + q) / 4, (1 - q) / 4)
        state = families.bell_diagonal(params, TOL)
        d = discord.discord_a(state, OPT).discord
        worst = max(worst, d)
        assert d <= 1e-4
        assert discord.cq_detect(state, TOL).is_cq
    for i in range(4):
        for j in range(i + 1, 4):
            p = [0.0, 0.0, 0.0, 0.0]
            p[i] = p[j] = 0.5
            state = families.bell_diagonal(families.BellDiagonalParams(*p), TOL)
            d = discord.discord_a(state, OPT).discord
            worst = max(worst, d)
            assert d <= 1e-4
    print(f"acceptance 05: PASS (5 family members and 6 projector-pair "
          f"mixtures, worst discord {worst:.2e})")


def test_criterion_06_pure_state_discord_equals_marginal_entropy():
    worst = 0.0
    seeds = child_seeds(6000, 100)
    for i, seed in enumerate(seeds):
        n = (2, 3, 4)[i % 3]
        state = families.random_pure(2, n, seed)
        d = discord.discord_a(state, OPT).discord
        ent = vn_entropy(bipartite.partial_trace_b(state))
        worst = max(worst, abs(d - ent))
        assert abs(d - ent) <= 1e-3
    print(f"acceptance 06: PASS (100 pure states, worst |discord - S(rho_A)| "
          f"{worst:.2e})")


def test_criterion_07_optimizer_matches_brute_force_oracle():
    worst = 0.0
    for seed in child_seeds(7000, 50):
        state = bipartite.validate(families.random_ginibre_density(4, seed), 2, 2, TOL)
        fast = discord.discord_a(state, OPT).discord
        slow = brute_discord_2q(state)
        worst = max(worst, abs(fast - slow))
        assert abs(fast - slow) <= 1e-3
    print(f"acceptance 07: PASS (50 two-qubit states, worst oracle gap {worst:.2e})")


def test_criterion_08_commutator_necessity():
    worst_cq = 0.0
    for i, seed in enumerate(child_seeds(8000, 1000)):
        m = 2 if i % 2 == 0 else 3
        state = families.random_cq(m, 3, seed)
        worst_cq = max(worst_cq, discord.commutator_criterion(state))
    assert worst_cq <= 1e-9

    checked = 0
    for seed in child_seeds(8500, 1000):
        state = bipartite.validate(families.random_ginibre_density(4, seed), 2, 2, TOL)
        if discord.commutator_criterion(state) > 1e-6:
            checked += 1
            rep = discord.discord_a(state, OPT)
            assert rep.discord > 0.0, f"seed {seed}: commutator large but discord 0"
    assert checked >= 990
    print(f"acceptance 08: PASS (1000 CQ states worst commutator {worst_cq:.2e}; "
          f"{checked} generic states all discordant)")


def test_criterion_09_factorization_soundness_and_gauge_invariance():
    worst_recon = 0.0
    worst_gauge = 0.0
    for i, seed in enumerate(child_seeds(9000, 1000)):
        n = (1, 2, 3, 4, 8)[i % 5]
        state = bipartite.validate(families.random_ginibre_density(2 * n, seed), 2, n, TOL)
        f = factorization.factorize(state, TOL)
        worst_recon = max(worst_recon, f.reconstruction_residual)
        assert f.reconstruction_residual <= 1e-8

        g1 = families.random_unitary(n, seed + 1)
        g2 = families.random_unitary(n, seed + 2)
        g = gauge_transport(f.x, f.s, (g1, g2))
        x = factor_x(g)
        drift = max(fro_norm(dagger(x) @ x - state.rho),
                    abs(sppt_residuals(g.s)[0] - f.residuals["normality"]))
        worst_gauge = max(worst_gauge, drift)
        assert drift <= 1e-8
    print(f"acceptance 09: PASS (1000 factorizations, worst reconstruction "
          f"{worst_recon:.2e}, worst gauge drift {worst_gauge:.2e})")


def _compare_expected(actual: dict, expected: dict, name: str) -> None:
    for key, want in expected.items():
        if key == "name":
            continue
        got = actual[key]
        if isinstance(want, bool) or want is None:
            assert got == want, f"{name}.{key}: {got!r} != {want!r}"
        elif isinstance(want, float):
            assert abs(got - want) <= 1e-9, f"{name}.{key}: {got!r} != {want!r}"
        elif isinstance(want, dict):
            assert set(got) == set(want), f"{name}.{key}: key mismatch"
            for k, v in want.items():
                assert abs(got[k] - v) <= 1e-9, f"{name}.{key}[{k}]"
        elif isinstance(want, list) and want and isinstance(want[0], float):
            assert np.allclose(got, want, rtol=0.0, atol=1e-9), f"{name}.{key}"
        else:
            assert got == want, f"{name}.{key}: {got!r} != {want!r}"


def test_criterion_10_cli_fixture_round_trip_and_exit_codes(tmp_path, capsys):
    with open(FIXTURE_DIR / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    assert len(expected) == 20
    for fname, want in expected.items():
        state, meta = statefile.read_statefile(FIXTURE_DIR / fname)
        assert meta["name"] == want["name"]
        report = to_machine(analyze(state, TOL, OPT))
        _compare_expected(report, want, fname)

    assert main(["analyze", str(FIXTURE_DIR / "state_01.json")]) == EXIT_OK
    assert main(["analyze", str(FIXTURE_DIR / "state_01.json"),
                 "--tol-sppt", "1e-30"]) == EXIT_CLAIM
    bad = tmp_path / "malformed.json"
    bad.write_text('{"dims": [2, 2], "matrix": [')
    assert main(["analyze", str(bad)]) == EXIT_INPUT
    capsys.readouterr()
    print("acceptance 10: PASS (20 fixtures reproduced; exit codes 0/1/2 verified)")
