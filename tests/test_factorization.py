"""Block Cholesky factorization and the strong-PPT certificate.

Closed-form S for X-shaped states, exact reconstruction, the S-adjoint
replacement identity, gauge invariance, the qutrit side, dim_a >= 4, and
agreement with the unrolled 2xN and 3xN factorizations and the rowwise
block Cholesky kept in helpers.
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (NEAR_CQ_SEEDS, NEAR_CQ_SHAPES, NEAR_CQ_WEIGHTS, bell_state, factor_x,
                     factorization_panel, gauge_transport, ginibre_state, near_cq_state,
                     rank2_state, rowwise_factorize, sppt_residuals, unrolled_sppt)
from qcorr import (
    BipartiteState,
    CqSpec,
    XStateParams,
    build_cq_state,
    cq_detect,
    factorize,
    is_ppt,
    is_sppt,
    partial_transpose_a,
    random_cq,
    random_ginibre_density,
    random_pure,
    random_sppt,
    random_unitary,
    validate,
    xstate,
)
from qcorr.analysis import analyze
from qcorr.errors import NotPsd
from qcorr.matlib import dagger, fro_norm


# ---------------------------------------------------------------------------
# 2 x N factorization


def test_xstate_factor_closed_form():
    # X1 = diag(sqrt(a11), sqrt(b11)); S = X1^+ rho12 X1^+ has the two
    # couplings on the antidiagonal, scaled by 1/sqrt(a11 b11)
    p = XStateParams(a11=0.3, a22=0.2, b11=0.3, b22=0.2, a12=0.1j, b12=0.05)
    f = factorize(xstate(p))
    assert np.allclose(f.x[0], np.diag([np.sqrt(0.3), np.sqrt(0.3)]), atol=1e-12)
    denom = np.sqrt(0.3 * 0.3)
    expected_s = np.array([[0.0, 0.1j / denom], [0.05 / denom, 0.0]])
    assert np.allclose(f.s[0, 1], expected_s, atol=1e-12)


def test_reconstruction_is_tight_on_full_rank_states():
    for seed, (da, db) in [(0, (2, 1)), (1, (2, 2)), (2, (2, 3)), (3, (2, 5))]:
        s = ginibre_state(seed, da, db)
        f = factorize(s)
        x = factor_x(f)
        assert fro_norm(dagger(x) @ x - s.rho) < 1e-10
        assert f.reconstruction_residual < 1e-10
        assert not f.rank_deficient


def test_canonical_x1_is_psd_sqrt_of_first_block():
    s = ginibre_state(4, 2, 3)
    f = factorize(s)
    assert np.allclose(f.x[0] @ f.x[0], s.rho[:3, :3], atol=1e-10)
    assert fro_norm(f.x[0] - dagger(f.x[0])) < 1e-12


def test_adjoint_replacement_matches_partial_transpose_iff_normal():
    # SPPT state: Y^dagger Y must equal rho^{T_A}
    s = random_sppt(3, rng_seed=10)
    f = factorize(s)
    y = factor_x(f, adjoint=True)
    assert fro_norm(dagger(y) @ y - partial_transpose_a(s)) < 1e-10
    # state with non-normal S: the same construction must fail to match
    p = XStateParams(a11=0.3, a22=0.2, b11=0.3, b22=0.2, a12=0.15, b12=0.02)
    t = xstate(p)
    g = factorize(t)
    assert g.residuals["normality"] > 1e-3
    y = factor_x(g, adjoint=True)
    assert fro_norm(dagger(y) @ y - partial_transpose_a(t)) > 1e-3


def test_gauge_transform_preserves_state_and_verdict():
    s = ginibre_state(6, 2, 4)
    f = factorize(s)
    g1 = random_unitary(4, rng_seed=1)
    g2 = random_unitary(4, rng_seed=2)
    t = gauge_transport(f.x, f.s, (g1, g2))
    x = factor_x(t)
    assert fro_norm(dagger(x) @ x - s.rho) < 1e-9
    assert sppt_residuals(t.s) == pytest.approx([f.residuals["normality"]], abs=1e-8)
    # S transforms by conjugation, so its spectrum-related invariants survive
    assert fro_norm(t.s) == pytest.approx(fro_norm(f.s), abs=1e-10)


def test_gauge_transform_on_three_levels():
    s = ginibre_state(7, 3, 2)
    f = factorize(s)
    t = gauge_transport(f.x, f.s, [random_unitary(2, rng_seed=k) for k in range(3)])
    x = factor_x(t)
    assert fro_norm(dagger(x) @ x - s.rho) < 1e-9
    # f.residuals lists the normality conditions, then the cross one
    assert sppt_residuals(t.s) == pytest.approx(list(f.residuals.values()), abs=1e-8)


def test_rank_deficient_pure_state_is_flagged_not_certified():
    f = factorize(bell_state())
    assert f.rank_deficient
    v = is_sppt(bell_state())
    assert not v.is_sppt
    assert v.rank_deficient


@pytest.mark.parametrize("rho, dim_a", [
    # rho22 is too small for the off block, so the Schur complement is clearly negative
    (np.array([[0.5, 0.4], [0.4, 0.1]]) / 0.6, 2),
    # an indefinite rho11
    (np.diag([-0.1, 0.6, 0.5]), 3),
    # an indefinite third-row Schur complement after a full-rank extraction
    (np.array([[0.4, 0, 0.3], [0, 0.4, 0.3], [0.3, 0.3, 0.2]]), 3),
], ids=["2x1-row2", "3x1-row1", "3x1-row3"])
def test_validate_alone_rejects_indefinite_block_patterns(rho, dim_a):
    # positivity is decided once, by validate; factorize and its two oracles,
    # handed the same matrix unvalidated, clamp every block and raise nothing,
    # and the reconstruction residual shows that X does not explain rho
    with pytest.raises(NotPsd, match=r"^min eigenvalue -\d\.\d{3}e-0\d below -1\.0e-09$"):
        validate(rho, dim_a, 1)
    state = BipartiteState(dim_a=dim_a, dim_b=1, rho=rho.astype(complex),
                           spectrum=np.linalg.eigvalsh(rho)[::-1])
    f, g = factorize(state), rowwise_factorize(state)
    assert f.reconstruction_residual > 1e-2
    assert f.reconstruction_residual == pytest.approx(g.reconstruction_residual, abs=1e-14)
    assert not is_sppt(state).is_sppt
    assert not unrolled_sppt(state)[0]


def test_sppt_family_certified_across_sizes():
    for n in (1, 2, 3, 5):
        s = random_sppt(n, rng_seed=100 + n)
        v = is_sppt(s)
        assert v.is_sppt, v.residuals
        assert v.residuals["normality"] < 1e-10


def test_unequal_coupling_magnitudes_break_the_certificate():
    p = XStateParams(a11=0.3, a22=0.2, b11=0.3, b22=0.2, a12=0.12, b12=0.04)
    v = is_sppt(xstate(p))
    assert not v.is_sppt
    assert v.residuals["normality"] > 1e-4


def test_npt_state_is_never_sppt():
    v = is_sppt(bell_state())
    assert not v.is_sppt
    assert v.residuals["ppt_min_eigenvalue"] < -0.4


def classical_classical_state(seed: int, dim_a: int, dim_b: int) -> BipartiteState:
    # sum_ij p_ij |a_i><a_i| (x) |b_j><b_j| in random bases, built with np.kron
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(dim_a * dim_b)).reshape(dim_a, dim_b)
    ua = random_unitary(dim_a, rng_seed=seed + 1)
    ub = random_unitary(dim_b, rng_seed=seed + 2)
    rho = sum(
        p[i, j] * np.kron(np.outer(ua[:, i], ua[:, i].conj()), np.outer(ub[:, j], ub[:, j].conj()))
        for i in range(dim_a)
        for j in range(dim_b)
    )
    return validate(rho, dim_a, dim_b)


def test_is_sppt_serves_any_dim_a():
    # classical-classical states are SPPT whatever dim_a is
    for seed, (da, db) in enumerate([(1, 3), (4, 2), (4, 3), (5, 2)]):
        s = classical_classical_state(40 + seed, da, db)
        v = is_sppt(s)
        assert v.is_sppt, (da, db, v.residuals)
        # the definition itself: replacing every S_jl by S_jl^dagger gives rho^{T_A}
        y = factor_x(v.factorization, adjoint=True)
        assert fro_norm(dagger(y) @ y - partial_transpose_a(s)) <= 1e-9
    for seed, (da, db) in enumerate([(4, 2), (4, 3)]):
        assert not is_sppt(ginibre_state(50 + seed, da, db)).is_sppt


def test_residual_keys_for_four_levels():
    v = is_sppt(ginibre_state(12, 4, 2))
    assert list(v.residuals) == [
        "normality_s12", "normality_s13", "normality_s14",
        "normality_s23", "normality_s24", "normality_s34",
        "cross_s12_s13", "cross_s12_s14", "cross_s13_s14", "cross_s23_s24",
        "reconstruction", "unexplained_mass", "ppt_min_eigenvalue",
    ]
    assert v.residuals["reconstruction"] < 1e-10


def test_is_sppt_matches_unrolled_factorizations():
    # the 2xN and 3xN factorizations as they were unrolled, kept in helpers
    verdicts = set()
    for dim_a, dims_b in ((2, (1, 2, 3, 5, 8)), (3, (2, 3, 4, 6))):
        for n in dims_b:
            for seed in range(6):
                states = [
                    random_cq(dim_a, n, rng_seed=seed),
                    ginibre_state(seed, dim_a, n),
                    random_pure(dim_a, n, rng_seed=seed),
                    random_sppt(n, rng_seed=seed) if dim_a == 2
                    else classical_classical_state(seed, dim_a, n),
                ]
                for s in states:
                    v = is_sppt(s)
                    verdict, residuals, deficient = unrolled_sppt(s)
                    assert v.is_sppt == verdict
                    assert v.rank_deficient == deficient
                    assert list(v.residuals) == list(residuals)
                    for key, want in residuals.items():
                        assert abs(v.residuals[key] - want) <= 1e-12, key
                    verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("dim_a", [1, 2, 3, 4])
def test_factorize_matches_the_rowwise_reference(dim_a):
    # the row loop as it was, kept in helpers: separate x and s, the four-way
    # Schur update and the factor reassembled from s @ x.  The same flags and
    # keys, every number to rounding, and on 2xN the same S bit for bit,
    # since row 1 has no Schur update
    for label, s in factorization_panel(dim_a):
        f, want = factorize(s), rowwise_factorize(s)
        assert f.rank_deficient == want.rank_deficient, label
        assert list(f.residuals) == list(want.residuals), label
        for got, ref in [(f.x, want.x), (f.s, want.s)]:
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), label
        for key in (*want.residuals, "reconstruction_residual", "unexplained_mass"):
            ref = want.residuals[key] if key in want.residuals else getattr(want, key)
            got = f.residuals[key] if key in f.residuals else getattr(f, key)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (label, key)
        if dim_a == 2:
            assert np.array_equal(f.s, want.s), label


@pytest.mark.parametrize("dim_a", [1, 2, 3, 4])
def test_the_record_describes_the_factor_it_checked(dim_a):
    # the reconstruction residual reads the factor as it was built, so the
    # factor rebuilt from the record's x and s must be the one checked: the
    # same residual, and s zero on and below the block diagonal
    below = ~np.triu(np.ones((dim_a, dim_a), dtype=bool), 1)
    for label, s in factorization_panel(dim_a):
        f = factorize(s)
        x = factor_x(f)
        assert abs(fro_norm(dagger(x) @ x - s.rho) - f.reconstruction_residual) <= 1e-15, label
        assert not f.s[below].any(), label


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_factorization_reconstructs_random_states(seed, dim_b):
    s = ginibre_state(seed, 2, dim_b)
    f = factorize(s)
    scale = max(1.0, fro_norm(s.rho))
    assert f.reconstruction_residual < 1e-8 * scale
    x = factor_x(f)
    assert fro_norm(dagger(x) @ x - s.rho) < 1e-8 * scale


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cq_states_on_a_qubit_have_normal_s(seed):
    s = random_cq(2, 3, rng_seed=seed)
    v = is_sppt(s)
    assert v.is_sppt
    assert v.residuals["normality"] < 1e-9


# ---------------------------------------------------------------------------
# 3 x N factorization


def test_3xn_reconstruction_and_residual_keys():
    s = ginibre_state(21, 3, 3)
    f = factorize(s)
    x = factor_x(f)
    assert fro_norm(dagger(x) @ x - s.rho) < 1e-9
    assert list(f.residuals) == ["normality_s12", "normality_s13", "normality_s23", "cross"]
    assert not f.rank_deficient


def test_3xn_cq_states_are_ppt_but_usually_not_sppt():
    hits = 0
    for seed in range(8):
        s = random_cq(3, 4, rng_seed=seed)
        assert is_ppt(s).is_ppt
        v = is_sppt(s)
        if not v.is_sppt:
            hits += 1
            assert max(
                v.residuals["normality_s12"],
                v.residuals["normality_s13"],
                v.residuals["normality_s23"],
            ) > 1e-4
    # non-normal S12 is the generic situation for a qutrit-side classical state
    assert hits >= 6


def test_3xn_equal_conditional_states_give_vanishing_s():
    # all sigmas proportional to a common operator: every off block of the
    # factorization vanishes, so the certificate holds trivially
    u = random_unitary(3, rng_seed=5)
    sig = np.eye(4) / 12
    s = build_cq_state(CqSpec(dim_a=3, u=u, sigmas=(sig, sig, sig)))
    f = factorize(s)
    assert fro_norm(f.s[0, 1]) < 1e-10
    assert fro_norm(f.s[0, 2]) < 1e-10
    assert fro_norm(f.s[1, 2]) < 1e-10
    assert is_sppt(s).is_sppt


def test_3xn_gauge_structure_of_cross_residual():
    # the two independently extracted factors must stay consistent:
    # cross residual small for an actually SPPT qutrit-side state
    s = ginibre_state(30, 3, 2)
    f = factorize(s)
    # generic states reconstruct but need not satisfy any normality bound
    assert f.reconstruction_residual < 1e-9
    assert f.residuals["cross"] >= 0.0


# ---------------------------------------------------------------------------
# decomposition count of the verdict path


def test_verdicts_make_one_eigh_per_a_level_and_nothing_more(linalg_calls):
    # pins the design: is_sppt takes one eigh per row of the block Cholesky,
    # rank-deficient or not, and one eigvalsh for PPT; the commutator
    # criterion takes none
    from qcorr import commutator_criterion

    calls = linalg_calls
    states = {m: ginibre_state(60 + m, m, 3) for m in (2, 3, 4)}
    for m, s in states.items():
        calls.update(eigh=0, eigvalsh=0)
        assert not is_sppt(s).rank_deficient
        assert calls == {"eigh": m, "eigvalsh": 1}, m
        calls.update(eigh=0, eigvalsh=0)
        commutator_criterion(s)
        assert calls == {"eigh": 0, "eigvalsh": 0}, m
    # a rank-deficient extraction, whose completion rows are clamped, costs
    # no further decomposition; its mass outside the range, one reduction
    # per row, is the one the per-block norms of np.linalg.norm gave
    mass = {(2, 3): 0.37128406578720446, (3, 3): 0.46754724636971823, (4, 2): 0.5302159837636267}
    for (m, n), want in mass.items():
        s = random_pure(m, n, rng_seed=[70, m, n])
        calls.update(eigh=0, eigvalsh=0)
        v = is_sppt(s)
        assert v.rank_deficient
        assert calls == {"eigh": m, "eigvalsh": 1}, (m, n)
        assert abs(v.residuals["unexplained_mass"] - want) <= 1e-15, (m, n)


def test_only_rows_with_off_blocks_form_a_pseudoinverse(monkeypatch):
    # pins the row step: each of the m rows rebuilds its root from its eigh,
    # and only the m - 1 rows with off blocks also rebuild X_j^+, from the
    # same V^dagger as their root, so an m-row factorization forms m roots
    # and m - 1 pseudoinverses, rank-deficient or not; an accepted cq_detect
    # makes one from_eig call, for its clamped sigma_k
    from qcorr import cq_detect, discord, factorization

    calls, formed = [], []
    real, pair = factorization.from_eig, factorization._root_and_pinv

    def counting(w, v):
        calls.append(w.shape)
        formed.append("root")
        return real(w, v)

    def counting_pair(root, inv, v):
        formed.extend(["root", "pinv"])
        return pair(root, inv, v)

    monkeypatch.setattr(factorization, "from_eig", counting)
    monkeypatch.setattr(factorization, "_root_and_pinv", counting_pair)
    monkeypatch.setattr(discord, "from_eig", counting)
    for m, s in [(2, ginibre_state(62, 2, 3)), (3, ginibre_state(63, 3, 3)),
                 (2, random_pure(2, 3, rng_seed=[70, 2, 3])),
                 (3, random_pure(3, 3, rng_seed=[70, 3, 3]))]:
        formed.clear()
        factorize(s)
        assert formed.count("root") == m and formed.count("pinv") == m - 1, m
        assert formed[-1] == "root", m  # the last row forms its root alone
    calls.clear()
    assert cq_detect(random_cq(3, 2, rng_seed=4)).is_cq
    assert calls == [(3, 2)]


# ---------------------------------------------------------------------------
# the Hermitian part is formed once, by validate


def test_only_validate_forms_a_hermitian_part(hermitize_calls):
    # validate forms one, the state's rho; is_ppt, factorize (at full rank
    # or not), cq_detect (accepting or not) and commutator_criterion hand
    # their matrices to eigh as they are, since eigh reads the lower
    # triangle.  factorization does not even import hermitize: the mass
    # outside the range of a rank-deficient X_j is read off the factor row.
    # discord_a forms one only when it searches: the phase fix of the
    # singular operators, which are Hermitian up to a phase
    from qcorr import commutator_criterion, cq_detect, discord_a, factorization

    assert not hasattr(factorization, "hermitize")
    calls = hermitize_calls
    none = {"bipartite": 0, "discord": 0}
    for m, rho, searched, deficient in [
            (2, random_ginibre_density(6, 64), True, False),
            (3, random_ginibre_density(9, 65), True, False),
            (3, random_pure(3, 2, rng_seed=[70, 3, 2]).rho, False, True),
            (3, random_cq(3, 2, rng_seed=4).rho, False, False)]:
        calls.update(none)
        s = validate(rho, m, len(rho) // m)
        assert calls == {**none, "bipartite": 1}, m
        for call in (is_ppt, factorize, cq_detect, commutator_criterion):
            calls.update(none)
            call(s)
            assert calls == none, (m, call.__name__)
        calls.update(none)
        r = discord_a(s)
        assert (r.grid_resolution > 0) == searched, m
        assert calls == {**none, "discord": int(searched)}, m
        assert factorize(s).rank_deficient == deficient
    assert cq_detect(s).is_cq  # the last state takes the accepting branch


@pytest.mark.parametrize("dim_a", [2, 3, 4])
@pytest.mark.parametrize("dim_b", [1, 2, 3])
def test_exactly_hermitian_input_decomposes_as_its_hermitian_part(dim_a, dim_b, monkeypatch):
    # hermitize of an exactly Hermitian matrix is the matrix, bit for bit,
    # so the decompositions that no longer form it give the same bits.  The
    # first basis discord_a scores is its rho_A eigenbasis, and a CQ state
    # exits there, so its report carries that basis
    from qcorr import block_tensor, cq_detect, discord, discord_a, partial_trace_b
    from qcorr.matlib import from_eig, hermitize

    scored, trial = [], discord._trial
    monkeypatch.setattr(discord, "_trial", lambda u, b: scored.append(u) or trial(u, b))
    for seed in range(4):
        states = [ginibre_state([seed, dim_a, dim_b], dim_a, dim_b),
                  random_cq(dim_a, dim_b, rng_seed=[seed, dim_a, dim_b])]
        for s in states:
            assert np.array_equal(s.rho, dagger(s.rho))
            pt = np.linalg.eigvalsh(hermitize(partial_transpose_a(s)))
            assert np.array_equal(is_ppt(s).spectrum, pt[::-1])
            eig = np.linalg.eigh(hermitize(partial_trace_b(s)))[1][:, ::-1]
            scored.clear()
            r = discord_a(s)
            assert np.array_equal(scored[0], eig)
            w, v = np.linalg.eigh(hermitize(block_tensor(s)[0, 0]))
            assert np.array_equal(factorize(s).x[0], from_eig(np.sqrt(np.maximum(w, 0.0)), v))
            if dim_b == 1:  # a product state
                assert is_sppt(s).is_sppt
        assert np.array_equal(r.optimal_basis, eig)
        v = cq_detect(states[1])
        assert v.is_cq
        assert np.array_equal(v.basis, eig)


def test_a_defect_under_the_hermiticity_bound_leaves_every_number_unmoved():
    # validate keeps only the Hermitian part of a matrix within its
    # Hermiticity bound: a defect delta just under the bound, with an
    # imaginary diagonal, is dropped bit for bit and moves no number at all
    from qcorr import cq_detect
    from qcorr.matlib import hermitize

    rho = random_ginibre_density(6, [0, 2, 3])
    re, im = np.random.default_rng([0, 99]).standard_normal((2, 6, 6))
    g = re + 1j * im
    e = (g - dagger(g)) / 2  # anti-Hermitian, with an imaginary diagonal ...
    e[np.diag_indices(6)] -= np.trace(e) / 6  # ... that leaves the trace at 1
    delta = 0.5 * 1e-8
    e *= delta / fro_norm(e - dagger(e))
    assert np.abs(np.diag(e).imag).min() > 0.0
    assert fro_norm(rho + e - dagger(rho + e)) == pytest.approx(delta, rel=1e-6)
    s, h = validate(rho + e, 2, 3), validate(hermitize(rho + e), 2, 3)
    assert np.array_equal(s.rho, hermitize(rho + e))
    assert np.array_equal(s.rho, dagger(s.rho))
    assert np.array_equal(s.rho, h.rho)
    assert is_sppt(s).residuals == is_sppt(h).residuals
    assert cq_detect(s).off_block_residual == cq_detect(h).off_block_residual


def test_a_defect_at_the_psd_boundary_cannot_turn_a_verdict():
    # |0><0| (x) |0><0| on 2x3 plus an anti-Hermitian E = 3e-9 i (|1><2| + |2><1|):
    # a defect of 8.5e-9 passes validate, and the lower triangle of rho
    # alone has eigenvalues +-3e-9 in its null block, past the PSD floor;
    # the Hermitian part, the one matrix validate keeps, is the product state,
    # PPT and SPPT
    from qcorr.matlib import hermitize

    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = 1.0
    rho[1, 2] = rho[2, 1] = 3e-9j
    s = validate(rho, 2, 3)
    v = is_sppt(s)
    assert v.ppt.is_ppt and v.is_sppt
    assert np.array_equal(s.rho, hermitize(rho))
    assert np.array_equal(s.rho, np.real(rho).astype(complex))


@pytest.mark.parametrize("dim_a", [3, 4])
def test_rows_that_earlier_rows_explain_extract_no_s(dim_a):
    # a rank-2 Mx2 state is explained by its first row, whose X_1 has full
    # rank: every later Schur complement is rounding noise of its block's
    # size.  The pseudoinverse cut follows tr rho_jj, so those rows extract S = 0
    # instead of amplifying the noise through X_j^+ into residuals of order
    # 1e3, and their X_j = 0 instead of square roots of that noise, so a
    # rounding-level nudge of rho moves no residual and no X_j beyond rounding
    for seed in range(10):
        s = rank2_state([seed, dim_a, 2], dim_a, 2)
        rho, v = s.rho, is_sppt(s)
        f = v.factorization
        assert not v.rank_deficient and not v.ppt.is_ppt, seed
        assert not f.s[1:].any() and not f.x[1:].any(), seed
        nudge = np.random.default_rng(seed).standard_normal(rho.shape) * 1e-17
        w = is_sppt(validate(rho + (nudge + nudge.T) / 2, dim_a, 2))
        for key, value in v.residuals.items():
            assert abs(w.residuals[key] - value) <= 1e-12 * max(1.0, value), (seed, key)
        assert np.abs(w.factorization.x - f.x).max() <= 1e-12, seed


def test_a_block_of_negative_trace_under_the_psd_bound_is_rank_zero():
    # validate accepts a diagonal entry of rho down to -eps_psd, so the trace
    # of a block that holds no state can be below 0; its row counts every
    # eigenvalue as zero, not as a rank whose pseudoinverse divides by 0
    rho = np.diag([0.5, 0.5 + 1e-12, -1e-12, 0.0, 0.0, 0.0]).astype(complex)
    v = is_sppt(validate(rho, 3, 2))
    assert v.is_sppt and not v.rank_deficient
    assert not v.factorization.x[1:].any() and not v.factorization.s.any()


# ---------------------------------------------------------------------------
# the near-CQ panel: validated states whose rank cut leaves a Schur complement
# slightly negative

# (seed, t) of the panel states where a Schur complement after an unflagged
# row falls below -eps_psd: the rank cut's projection onto range(X_j) makes
# it negative although rho's least eigenvalue is within rounding of 0
NEGATIVE_COMPLEMENTS = {
    (2, 3): [(5, 1e-10), (12, 1e-10)],
    (2, 4): [(0, 1e-8), (2, 1e-8), (3, 1e-8), (4, 1e-7), (6, 1e-8), (7, 1e-8), (8, 1e-8),
             (9, 1e-8), (10, 1e-8), (12, 1e-8), (13, 1e-8), (14, 1e-8), (16, 1e-8),
             (17, 1e-8), (19, 1e-8)],
    (3, 3): [(0, 1e-8), (4, 1e-10), (6, 1e-9), (9, 1e-9), (12, 1e-9), (13, 1e-9), (14, 1e-8)],
    (4, 2): [(7, 1e-9), (11, 1e-9), (12, 1e-10), (13, 1e-9), (14, 1e-9), (16, 1e-8),
             (17, 1e-9), (19, 1e-8)],
}


# (m, n, seed, t) of the 2xN panel states that are CQ but not SPPT: rho11 has
# an eigenvalue from the t Phi part just above the rank cut, and X_1^+
# amplifies it into S.  A witness on the certified CQ state or a bound on the
# normality residual near the CQ set would mend them; the list may only shrink
CQ_NOT_SPPT = (
    [(2, 3, seed, 1e-9) for seed in (0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 12, 14, 16, 17, 18, 19)]
    + [(2, 4, seed, 1e-9) for seed in NEAR_CQ_SEEDS if seed != 7]
    + [(2, 4, 1, 1e-10), (2, 4, 19, 1e-10)]
)


def test_every_validated_near_cq_state_gets_a_verdict():
    # all 720 states pass validate, and is_sppt and analyze raise nothing on
    # any of them; the 32 NEGATIVE_COMPLEMENTS split 5 SPPT, 8 PPT but not
    # SPPT and 19 not PPT, and the tally pins the (sppt, ppt, rank_deficient)
    # verdicts of the other 688.  No CQ state is not PPT, and the 2xN ones
    # not SPPT are CQ_NOT_SPPT
    tally, negative, cq_not_sppt = Counter(), Counter(), set()
    for m, n in NEAR_CQ_SHAPES:
        for seed in NEAR_CQ_SEEDS:
            for t in NEAR_CQ_WEIGHTS:
                r = analyze(near_cq_state(m, n, seed, t))
                v = r.sppt
                key = (v.is_sppt, v.ppt.is_ppt, v.rank_deficient)
                tally[key] += 1
                if (seed, t) in NEGATIVE_COMPLEMENTS.get((m, n), ()):
                    negative[key] += 1
                if r.cq.is_cq:
                    assert v.ppt.is_ppt, (m, n, seed, t)
                    if m == 2 and not v.is_sppt:
                        cq_not_sppt.add((m, n, seed, t))
    assert cq_not_sppt == set(CQ_NOT_SPPT)
    assert negative == {(True, True, False): 5, (False, True, False): 8, (False, False, False): 19}
    assert tally == {(True, True, False): 200 + 5, (False, True, False): 149 + 8,
                     (False, False, False): 143 + 19, (False, False, True): 146,
                     (False, True, True): 50}


def test_no_state_near_the_cq_set_is_cq_and_not_sppt():
    # rho = (1 - t) chi + t P, chi = random_cq(2, n, [k, 2, n]) and P a Ginibre
    # or a pure state, 21 values of t from 1e-10 to 1e-5: every CQ verdict is
    # SPPT and PPT, so analyze flags none of the 5040 as inconsistent (at the
    # former absolute CQ bound of 1e-6, 2875 were CQ and 245 of those not SPPT)
    cq = 0
    for n in (2, 3, 4, 8):
        for k in range(30):
            chi = random_cq(2, n, [k, 2, n]).rho
            pure = random_pure(2, n, [k, 2, n, 9]).rho
            for p in (random_ginibre_density(2 * n, [k, 2, n, 7]), pure):
                for t in np.logspace(-10, -5, 21):
                    s = validate((1 - t) * chi + t * p, 2, n)
                    if cq_detect(s).is_cq:
                        cq += 1
                        v = is_sppt(s)
                        assert v.is_sppt and v.ppt.is_ppt, (n, k, t)
    assert cq == 1330
