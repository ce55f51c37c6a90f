"""Command line interface: exit codes, output formats, and the
documented CSV schema, exercised in process through main(argv).
"""
from __future__ import annotations

import csv
import io
import json
import pathlib
import re

import numpy as np
import pytest

from helpers import near_cq_state
from qcorr import (BellDiagonalParams, bell_diagonal, factorize, random_cq,
                   random_ginibre_density, read_statefile, validate, write_statefile)
from qcorr.cli import CSV_HEADER, EXIT_CLAIM, EXIT_INPUT, EXIT_OK, build_parser, main

FIXTURE = str(pathlib.Path(__file__).parent / "fixtures" / "state_01.json")


def write_state(tmp_path, name, state, metadata=None):
    path = tmp_path / name
    write_statefile(path, state, metadata)
    return str(path)


def mixed_state_file(tmp_path):
    return write_state(tmp_path, "mixed.json", validate(np.eye(4) / 4, 2, 2))


def bell_state_file(tmp_path):
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    return write_state(tmp_path, "bell.json", validate(np.outer(v, v), 2, 2))


# ---------------------------------------------------------------------------
# analyze


def test_analyze_maximally_mixed_human(tmp_path, capsys):
    rc = main(["analyze", mixed_state_file(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "ppt                 yes" in out
    assert "sppt                yes" in out
    assert "cq                  yes" in out
    assert "discord             0.000000 bits" in out


def test_analyze_machine_output_schema(tmp_path, capsys):
    rc = main(["analyze", mixed_state_file(tmp_path), "--format", "machine"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    expected_keys = {
        "dims", "trace", "spectrum", "pt_spectrum", "is_ppt", "ppt_min_eigenvalue",
        "is_sppt", "sppt_residuals", "rank_deficient", "commutator",
        "mutual_information", "classical_correlation", "discord",
        "optimal_theta", "optimal_phi", "optimizer_evals", "grid_resolution",
        "is_cq", "cq_off_block_residual", "inconsistency",
    }
    assert expected_keys <= set(doc)
    assert doc["dims"] == [2, 2]
    assert doc["is_ppt"] and doc["is_sppt"] and doc["is_cq"]
    assert doc["discord"] <= 1e-6
    assert doc["inconsistency"] is None


def test_analyze_entangled_state(tmp_path, capsys):
    rc = main(["analyze", bell_state_file(tmp_path), "--format", "machine"])
    assert rc == EXIT_OK  # NPT and not CQ is a consistent verdict pair
    doc = json.loads(capsys.readouterr().out)
    assert not doc["is_ppt"]
    assert not doc["is_sppt"]
    assert doc["rank_deficient"]
    assert not doc["is_cq"]
    assert doc["discord"] == pytest.approx(1.0, abs=1e-6)


def test_analyze_echoes_metadata(tmp_path, capsys):
    path = write_state(tmp_path, "m.json", random_cq(2, 2, rng_seed=3), {"label": "probe"})
    rc = main(["analyze", path])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "probe" in out


def test_analyze_rejects_invalid_state_with_input_exit_code(tmp_path, capsys):
    doc = {"dims": [2, 2], "matrix": [[0.225 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]}
    path = tmp_path / "bad_trace.json"
    path.write_text(json.dumps(doc))
    rc = main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert "TraceNotOne" in err


def test_analyze_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{this is not json")
    rc = main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert "ParseError" in err


def test_analyze_rejects_an_integer_beyond_the_float_range(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"dims": [1, 1], "matrix": [[1' + "0" * 400 + ', 0]]}')
    rc = main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert "ParseError" in err and "matrix entry 0" in err


def test_analyze_rejects_non_finite_metadata(tmp_path, capsys):
    # json.loads reads NaN; echoing it would print a report that is not JSON
    path = tmp_path / "nan_seed.json"
    path.write_text('{"dims": [1, 1], "matrix": [[1, 0]], "metadata": {"seed": NaN}}')
    rc = main(["analyze", str(path), "--format", "machine"])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert captured.out == ""
    assert "error: ParseError: metadata must be strict JSON" in captured.err


def test_analyze_missing_file(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "absent.json")])
    assert rc == EXIT_INPUT


def test_analyze_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc = main([
        "analyze", mixed_state_file(tmp_path), "--format", "machine",
        "--output", str(out_path),
    ])
    assert rc == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["dims"] == [2, 2]


def test_analyze_serves_dim_a_4(tmp_path, capsys):
    state = validate(random_ginibre_density(8, 7), 4, 2)
    rc = main(["analyze", write_state(tmp_path, "g42.json", state), "--format", "machine"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == [4, 2]
    assert 0.0 < doc["discord"] <= doc["mutual_information"]
    assert doc["optimal_theta"] is None


def test_analyze_reports_zero_azimuth_at_a_pole(tmp_path, capsys):
    # the optimal measurement of this state is along z; its azimuth would be
    # the phase of a rounding-level component
    path = write_state(tmp_path, "bd.json", bell_diagonal(BellDiagonalParams(0.4, 0.3, 0.2, 0.1)))
    assert main(["analyze", path, "--format", "machine"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimal_phi"] == 0.0
    assert doc["optimal_theta"] == pytest.approx(0.0, abs=1e-9)
    assert main(["analyze", path]) == EXIT_OK
    assert "(theta=0.000000, phi=0.000000)" in capsys.readouterr().out


def test_analyze_impossible_tolerance_reports_inconsistency(tmp_path, capsys):
    # a classical-quantum qubit-side state must be SPPT; squeezing the
    # normality tolerance to an unreachable level makes the numerical SPPT
    # check fail and the cross-check flags it as a claim failure
    path = write_state(tmp_path, "cq.json", random_cq(2, 3, rng_seed=8))
    rc = main(["analyze", path, "--tol-sppt", "1e-30", "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == EXIT_CLAIM
    assert doc["is_cq"] and not doc["is_sppt"]
    assert doc["inconsistency"]


def test_a_state_near_the_cq_set_is_not_a_claim_failure(tmp_path, capsys):
    # rho = (1 - t) chi + t P at t = 10^-7.5, chi classical-quantum and P a
    # Ginibre density: is_sppt rejects it at a normality residual of 1.244e-7,
    # and its off-block residual of 1.025e-7 is far past the CQ bound
    # eps_psd / sqrt(2), so it is not CQ either and no claim has failed
    from qcorr.analysis import analyze

    t = 10 ** -7.5
    rho = (1 - t) * random_cq(2, 2, [6, 2, 2]).rho + t * random_ginibre_density(4, [6, 2, 2, 7])
    s = validate(rho, 2, 2)
    rc = main(["analyze", write_state(tmp_path, "near_cq.json", s)])
    capsys.readouterr()
    assert analyze(s).inconsistency is None
    assert rc == EXIT_OK


def test_tol_psd_moves_the_cq_verdict(tmp_path, capsys):
    # the near-CQ 2x2 state at seed 0 and t = 1e-8 is SPPT, and sqrt(2) times
    # its off-block residual, 7.07e-9, lies between the default eps_psd and
    # 1e-8: it is CQ under the looser floor only, and neither is a claim failure
    path = write_state(tmp_path, "near_cq.json", near_cq_state(2, 2, 0, 1e-8))
    assert main(["analyze", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cq                  NO (off-block residual 5.000e-09)" in out
    assert "sppt                yes" in out
    assert main(["analyze", path, "--tol-psd", "1e-8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cq                  yes (off-block residual 5.000e-09)" in out
    assert "sppt                yes" in out


def test_a_valid_state_whose_rank_cut_leaves_a_negative_complement_is_analyzed(tmp_path, capsys):
    # the near-CQ 2x3 state at seed 5 and t = 1e-10: rho11's least eigenvalue
    # is under the rank cut, so M_22 = rho22 - P A P keeps only the part of A
    # inside P = range(X_1) and reads -1.7e-9, although rho's least eigenvalue
    # is -1.6e-17.  Positivity is validate's decision, so this is a verdict
    # and not an input error
    rc = main(["analyze", write_state(tmp_path, "near_cq.json", near_cq_state(2, 3, 5, 1e-10))])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "cq                  yes" in out
    assert "sppt                yes" in out


def test_analyze_human_flags_a_rank_deficient_extraction(tmp_path, capsys):
    assert main(["analyze", bell_state_file(tmp_path)]) == EXIT_OK
    assert "\n                    rank-deficient extraction: SPPT not decidable\n" in (
        capsys.readouterr().out)


def test_readme_analyze_example_is_the_output(tmp_path, capsys):
    # every line of the README block, the truncated sppt line up to its "..."
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n(state {15}2x2, .*?)\n```", readme, re.S).group(1).splitlines()
    path = write_state(tmp_path, "bd.json", bell_diagonal(BellDiagonalParams(0.4, 0.3, 0.2, 0.1)))
    assert main(["analyze", path]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(block)
    for got, want in zip(out, block):
        if want.endswith(" ..."):
            assert got.startswith(want.removesuffix("..."))
        else:
            assert got == want


def test_state_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"dims": [1, 1], "matrix": [[1, 0]], "metadata": {"label": "\u00e9"}}'
                     .encode("latin-1"))
    assert main(["analyze", str(path)]) == EXIT_INPUT
    assert "error: ParseError: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", FIXTURE],
    ["verify-theorem1", "--samples", "2", "--seed", "1"],
    ["remark-3xn", "--samples", "2", "--seed", "1"],
    ["scan-inclusions", "--grid", "0", "--samples", "0", "--seed", "1"],
])
def test_an_output_path_that_cannot_be_written_is_an_input_error(argv, tmp_path, capsys):
    rc = main([*argv, "--output", str(tmp_path / "absent" / "out.txt")])
    assert rc == EXIT_INPUT
    assert "error: FileNotFoundError: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify-theorem1 and remark-3xn


def test_verify_theorem1_small_run(capsys):
    rc = main(["verify-theorem1", "--samples", "25", "--dim-b", "3", "--seed", "7",
               "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert doc["passes"] == 25
    assert doc["max_normality_residual"] < 1e-9
    assert doc["seed"] == 7


def test_verify_theorem1_fails_under_impossible_tolerance(capsys):
    rc = main(["verify-theorem1", "--samples", "3", "--seed", "1",
               "--tol-sppt", "1e-30"])
    assert rc == EXIT_CLAIM


def test_verify_theorem1_prints_chosen_seed_when_omitted(capsys):
    rc = main(["verify-theorem1", "--samples", "2", "--dim-b", "2"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert re.fullmatch(r"2/2 random CQ 2x2 states SPPT, max normality residual \S+, "
                        r"seed \d+\n", out)


@pytest.mark.parametrize("command", ["verify-theorem1", "remark-3xn"])
def test_machine_output_parses_when_the_seed_is_chosen(command, tmp_path, monkeypatch, capsys):
    # the chosen seed is in the document, and nothing precedes it on stdout
    monkeypatch.chdir(tmp_path)
    main([command, "--samples", "2", "--dim-b", "2", "--format", "machine"])
    assert isinstance(json.loads(capsys.readouterr().out)["seed"], int)


def test_scan_inclusions_csv_starts_with_its_header_when_the_seed_is_chosen(capsys):
    assert main(["scan-inclusions", "--grid", "0", "--samples", "1"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == ",".join(CSV_HEADER)
    assert re.search(r"\), seed \d+; ", err)


def test_remark_3xn_finds_witness_and_roundtrips(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    rc = main(["remark-3xn", "--samples", "10", "--dim-b", "4", "--seed", "11",
               "--output", str(witness), "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert doc["offenders"] >= 9  # non-normal S12 is generic
    assert doc["witness"] == str(witness)
    state, meta = read_statefile(witness)
    assert (state.dim_a, state.dim_b) == (3, 4)
    assert meta["seed"] == 11
    # the witness is classical-quantum and PPT yet fails the SPPT criteria
    rc2 = main(["analyze", str(witness), "--format", "machine"])
    assert rc2 == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["is_cq"] and rep["is_ppt"] and not rep["is_sppt"]
    assert rep["discord"] <= 1e-4


def test_remark_3xn_reports_the_median_s12_normality(tmp_path, monkeypatch, capsys):
    # the median is over the residuals of the same spawned sample states
    monkeypatch.chdir(tmp_path)
    rc = main(["remark-3xn", "--dim-b", "2", "--samples", "5", "--seed", "7",
               "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    resids = [factorize(random_cq(3, 2, child)).residuals["normality_s12"]
              for child in np.random.SeedSequence(7).spawn(5)]
    assert doc["median_s12_normality"] == np.median(resids)
    assert doc["median_s12_normality"] <= doc["worst_s12_normality"]
    assert main(["remark-3xn", "--samples", "0", "--seed", "7", "--format", "machine"]) == EXIT_CLAIM
    assert json.loads(capsys.readouterr().out)["median_s12_normality"] is None


def test_remark_3xn_human_output(tmp_path, capsys):
    witness = tmp_path / "w.json"
    assert main(["remark-3xn", "--samples", "4", "--dim-b", "2", "--seed", "3",
                 "--output", str(witness)]) == EXIT_OK
    first, second = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"\d/4 random CQ 3x2 states have non-normal S12 "
                        r"\(fraction \d\.\d{3}\), seed 3", first)
    assert re.fullmatch(rf"worst offender \(residual \d\.\d{{3}}e[-+]\d\d\) written to "
                        rf"{re.escape(str(witness))}", second)
    assert witness.exists()


# ---------------------------------------------------------------------------
# xstate and bell


def test_xstate_agreement_exit_zero(capsys):
    rc = main(["xstate", "--a11", "0.3", "--a22", "0.2", "--b11", "0.3", "--b22", "0.2",
               "--a12", "0.1", "--b12", "0.1", "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert doc["mismatches"] == []
    assert doc["analytic"]["sppt"] and doc["numeric"]["sppt"]
    assert not doc["analytic"]["zero_discord"]


def test_xstate_complex_coupling_parses(capsys):
    rc = main(["xstate", "--a11", "0.3", "--a22", "0.2", "--b11", "0.2", "--b22", "0.3",
               "--a12", "0.1", "--b12", "0.1j", "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert doc["analytic"]["zero_discord"] and doc["numeric"]["zero_discord"]
    assert doc["params"]["b12"] == [0.0, 0.1]


def test_xstate_invalid_params_exit_input(capsys):
    rc = main(["xstate", "--a11", "0.5", "--a22", "0.5", "--b11", "0.3", "--b22", "0.2"])
    assert rc == EXIT_INPUT


def test_bell_zero_discord_family(capsys):
    rc = main(["bell", "--p", "0.5,0,0.5,0", "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert doc["analytic"] == {"sppt": True, "zero_discord": True}
    assert doc["numeric"] == {"sppt": True, "zero_discord": True}
    assert doc["discord"] <= 1e-4
    assert doc["commutator"] < 1e-10


def test_bell_discordant_point(capsys):
    rc = main(["bell", "--p", "0.7,0.1,0.1,0.1", "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert doc["analytic"] == {"sppt": False, "zero_discord": False}
    assert doc["discord"] == pytest.approx(0.3651484, abs=1e-4)
    assert doc["commutator"] < 1e-10


def test_bell_human_output(capsys):
    assert main(["bell", "--p", "0.7,0.1,0.1,0.1"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["verdict       analytic  numeric",
                         "sppt          NO        NO",
                         "zero_discord  NO        NO",
                         "commutator    0.000e+00"]
    assert re.fullmatch(r"discord       0\.3651\d\d bits", lines[4])  # Luo: 0.3651484
    assert len(lines) == 5


def test_bell_rejects_bad_probability_strings(capsys):
    assert main(["bell", "--p", "0.5,0.5"]) == EXIT_INPUT
    assert main(["bell", "--p", "a,b,c,d"]) == EXIT_INPUT
    assert main(["bell", "--p", "0.5,0.5,0.5,-0.5"]) == EXIT_INPUT


@pytest.mark.parametrize("flag, value, code", [
    ("--a12", "-1e-3", EXIT_OK), ("--b12", "-0.2j", EXIT_OK), ("--a12", "-.1", EXIT_OK),
    ("--a12", "-inf", EXIT_INPUT), ("--b12", "-NaNj", EXIT_INPUT),
])
def test_xstate_negative_values_parse_as_the_equals_form_does(flag, value, code, capsys):
    base = ["xstate", "--a11", ".3", "--a22", ".2", "--b11", ".3", "--b22", ".2"]
    rc = main([*base, f"{flag}={value}"])
    want = capsys.readouterr()
    assert main([*base, flag, value]) == rc == code
    assert capsys.readouterr() == want


def test_bell_negative_leading_weight_reaches_the_probability_check(capsys):
    assert main(["bell", "--p", "-0.1,0.5,0.3,0.3"]) == EXIT_INPUT
    assert "error: InvalidParams:" in capsys.readouterr().err


def test_xstate_rejects_a_coupling_that_is_not_a_complex_number(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["xstate", "--a11", ".3", "--a22", ".2", "--b11", ".3", "--b22", ".2", "--a12", "1+"])
    assert exc.value.code == EXIT_INPUT
    assert "not a complex number: '1+'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--a11", "nan"), ("--a12", "nanj"), ("--b12", "inf")])
def test_xstate_rejects_non_finite_parameters(flag, value, capsys):
    # a NaN weight passes every sign and sum check, and a NaN coupling would
    # reach eigvalsh, so both are rejected as input errors up front
    args = {"--a11": "0.3", "--a22": "0.2", "--b11": "0.3", "--b22": "0.2", flag: value}
    assert main(["xstate", *(x for kv in args.items() for x in kv)]) == EXIT_INPUT
    assert "error: InvalidParams: non-finite" in capsys.readouterr().err


def test_xstate_boundary_disagreement_is_a_claim_failure(capsys):
    # couplings differing by 1e-10: unequal to the exact predicate, but far
    # below the numerical normality tolerance; the disagreement is the whole
    # point of the cross-check and must surface in the exit code
    rc = main(["xstate", "--a11", "0.3", "--a22", "0.2", "--b11", "0.3", "--b22", "0.2",
               "--a12", "0.1", "--b12", "0.1000000001", "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == EXIT_CLAIM
    assert doc["mismatches"] == ["sppt"]
    assert not doc["analytic"]["sppt"] and doc["numeric"]["sppt"]


XSTATE_AGREE = ["--a11", ".3", "--a22", ".2", "--b11", ".3", "--b22", ".2", "--a12", ".1"]


@pytest.mark.parametrize("params, rc, table", [
    (XSTATE_AGREE + ["--b12", ".1"], EXIT_OK,
     ["positive         yes       yes",
      "ppt              yes       yes",
      "sppt             yes       yes",
      "zero_discord     NO        NO"]),
    (XSTATE_AGREE + ["--b12", "0.1000000001"], EXIT_CLAIM,
     ["positive         yes       yes",
      "ppt              yes       yes",
      "sppt             NO        yes  <- disagreement",
      "zero_discord     NO        NO"]),
    # not a state: the numeric pipeline stops after the eigenvalue check
    (["--a11", ".5", "--a22", ".5", "--b11", "0", "--b22", "0", "--b12", "0.1"], EXIT_OK,
     ["positive         NO        NO",
      "ppt              NO        -",
      "sppt             NO        -",
      "zero_discord     NO        -"]),
])
def test_xstate_human_table(params, rc, table, capsys):
    assert main(["xstate", *params]) == rc
    out, err = capsys.readouterr()
    assert out == "\n".join(["verdict          analytic  numeric", *table]) + "\n"
    assert err == ""


@pytest.mark.parametrize("argv, keys", [
    (["xstate", *XSTATE_AGREE], ["params", "analytic", "numeric", "mismatches"]),
    (["bell", "--p", "0.7,0.1,0.1,0.1"],
     ["p", "analytic", "numeric", "commutator", "discord", "mutual_information", "mismatches"]),
    (["verify-theorem1", "--samples", "2", "--seed", "1"],
     ["samples", "dim_b", "passes", "max_normality_residual", "seed"]),
    (["remark-3xn", "--samples", "2", "--dim-b", "2", "--seed", "1"],
     ["samples", "dim_b", "offenders", "fraction", "worst_s12_normality",
      "median_s12_normality", "witness", "seed"]),
])
def test_machine_output_key_order(argv, keys, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # remark-3xn writes its witness to the working directory
    main([*argv, "--format", "machine"])
    assert list(json.loads(capsys.readouterr().out)) == keys


# ---------------------------------------------------------------------------
# scan-inclusions


def test_scan_inclusions_csv_schema_and_tallies(tmp_path, capsys):
    out_csv = tmp_path / "scan.csv"
    rc = main(["scan-inclusions", "--grid", "3", "--samples", "5", "--seed", "2",
               "--output", str(out_csv)])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    assert "inclusion violations 0" in captured.err
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    # C(6,3) = 20 diagonal simplex points: 9 coupling pairs each, plus 20
    # Bell rows and 5 random rows
    assert len(rows) == 20 * 9 + 20 + 5
    assert list(rows[0]) == CSV_HEADER
    families_seen = {r["family"] for r in rows}
    assert families_seen == {"xgrid", "bell", "xrandom"}
    for r in rows:
        assert r["is_valid"] in ("True", "False")
        if r["family"] == "bell":
            assert r["discord"] != ""
        if r["is_valid"] == "True":
            # inclusion chain on every valid row: CQ => SPPT => PPT
            chain = (r["is_cq"], r["is_sppt"], r["is_ppt"])
            assert chain.count("True") == 0 or not (
                chain[0] == "True" and chain[1] == "False"
            ) and not (chain[1] == "True" and chain[2] == "False")
    # the stderr summary counts the rows written
    valid = [r for r in rows if r["is_valid"] == "True"]
    yes = [{k: r[k] == "True" for k in ("is_ppt", "is_sppt", "is_cq")} for r in valid]
    want = (
        len(rows), len(valid),
        sum(v["is_ppt"] and not v["is_sppt"] for v in yes),
        sum(v["is_sppt"] and not v["is_cq"] for v in yes),
        sum(v["is_cq"] for v in yes),
        sum((v["is_cq"] and not v["is_sppt"]) + (v["is_sppt"] and not v["is_ppt"]) for v in yes),
    )
    got = re.fullmatch(
        r"(\d+) rows \((\d+) valid\), seed 2; PPT-but-not-SPPT (\d+), SPPT-but-not-CQ (\d+), "
        r"CQ (\d+); inclusion violations (\d+)\n", captured.err)
    assert tuple(map(int, got.groups())) == want


def test_scan_inclusions_empty_grid_writes_header_only(capsys):
    rc = main(["scan-inclusions", "--grid", "0", "--samples", "0", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    lines = [ln for ln in captured.out.splitlines() if ln.strip()]
    assert lines == [",".join(CSV_HEADER)]


def test_scan_inclusions_stdout_csv(capsys):
    rc = main(["scan-inclusions", "--grid", "2", "--samples", "0", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert len(rows) == 10 * 9 + 10
    ppt_not_sppt = sum(
        1 for r in rows if r["is_ppt"] == "True" and r["is_sppt"] == "False"
    )
    assert f"PPT-but-not-SPPT {ppt_not_sppt}" in captured.err


# ---------------------------------------------------------------------------
# option surface and argument validation

TOLS = ["--tol-psd", "--tol-residual", "--tol-sppt", "--output"]
FLAGS = {
    "analyze": TOLS + ["--tol-discord", "--format"],
    "verify-theorem1": TOLS + ["--seed", "--format", "--samples", "--dim-b"],
    "remark-3xn": TOLS + ["--seed", "--format", "--samples", "--dim-b"],
    "xstate": TOLS + ["--format", "--a11", "--a22", "--b11", "--b22", "--a12", "--b12"],
    "bell": TOLS + ["--tol-discord", "--format", "--p"],
    "scan-inclusions": TOLS + ["--tol-discord", "--seed", "--samples", "--grid"],
}


def test_each_command_takes_only_the_flags_it_reads():
    (sub,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    found = {
        name: sorted(o for a in p._actions for o in a.option_strings
                     if o.startswith("--") and o != "--help")
        for name, p in sub.choices.items()
    }
    assert found == {name: sorted(flags) for name, flags in FLAGS.items()}
    assert sum(map(len, found.values())) == 48


@pytest.mark.parametrize("argv", [
    ["analyze", FIXTURE, "--grid", "3"],
    ["analyze", FIXTURE, "--seed", "9"],
    ["xstate", "--a11", ".25", "--a22", ".25", "--b11", ".25", "--b22", ".25", "--tol-discord", "1"],
    ["scan-inclusions", "--format", "machine"],
])
def test_flag_a_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    ("--tol-psd", "nan", "eps_psd"),
    ("--tol-psd", "-1", "eps_psd"),
    ("--tol-residual", "-inf", "eps_residual"),
    ("--tol-sppt", "inf", "eps_sppt"),
    ("--tol-discord", "nan", "eps_opt"),
])
def test_non_finite_or_negative_tolerance_is_an_input_error(flag, value, field, capsys):
    rc = main(["analyze", FIXTURE, f"{flag}={value}"])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert captured.out == ""
    assert f"InvalidParams: {field} must be finite and non-negative" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify-theorem1", "--samples", "-3"],
    ["remark-3xn", "--samples", "-2"],
    ["verify-theorem1", "--dim-b", "-1"],
    ["remark-3xn", "--dim-b", "0"],
    ["scan-inclusions", "--grid", "-1"],
    ["scan-inclusions", "--samples", "-1"],
    ["verify-theorem1", "--seed", "-1"],
])
def test_negative_count_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "must be at least" in capsys.readouterr().err
