"""State file serialization: exact round trips, full-precision floats,
and structured parse errors.
"""
from __future__ import annotations

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from helpers import ginibre_state
from qcorr import (
    BellDiagonalParams,
    CqSpec,
    XStateParams,
    bell_diagonal,
    build_cq_state,
    random_cq,
    random_ginibre_density,
    random_pure,
    random_sppt,
    random_unitary,
    read_statefile,
    statefile,
    validate,
    write_statefile,
    xstate,
)
from qcorr.errors import ParseError, TraceNotOne
from qcorr.matlib import dagger, fro_norm, hermitize
from qcorr.statefile import state_from_dict, state_to_dict


def test_dict_round_trip_is_bit_exact():
    s = ginibre_state(0, 2, 3)
    doc = state_to_dict(s, metadata={"label": "test", "seed": 0})
    t, meta = state_from_dict(doc)
    assert (t.dim_a, t.dim_b) == (2, 3)
    assert np.array_equal(t.rho, s.rho)
    assert meta == {"label": "test", "seed": 0}


def test_file_round_trip_through_json(tmp_path):
    s = random_cq(3, 2, rng_seed=5)
    path = tmp_path / "state.json"
    write_statefile(path, s, metadata={"family": "cq"})
    t, meta = read_statefile(path)
    assert np.array_equal(t.rho, s.rho)
    assert meta["family"] == "cq"
    # the document itself is plain JSON with the documented keys
    doc = json.loads(path.read_text())
    assert doc["dims"] == [3, 2]
    assert len(doc["matrix"]) == 36
    assert all(len(pair) == 2 for pair in doc["matrix"])


def test_a_state_is_one_exactly_hermitian_matrix_that_a_file_keeps(tmp_path):
    # every family's state is exactly Hermitian and reads back bit for bit;
    # a file whose matrix has a defect under the Hermiticity bound is written
    # back as its Hermitian part, the one matrix validate keeps
    path = tmp_path / "s.json"
    states = [
        xstate(XStateParams(a11=0.3, a22=0.2, b11=0.3, b22=0.2, a12=0.1, b12=0.05j)),
        bell_diagonal(BellDiagonalParams(0.4, 0.3, 0.2, 0.1)),
        build_cq_state(CqSpec(2, random_unitary(2, 3), (np.diag([0.3, 0.2]), np.diag([0.1, 0.4])))),
        random_cq(3, 2, rng_seed=5),
        random_sppt(3, rng_seed=5),
        random_pure(2, 3, rng_seed=5),
        ginibre_state(5, 3, 2),
    ]
    for s in states:
        assert np.array_equal(s.rho, s.rho.conj().T)
        write_statefile(path, s)
        assert np.array_equal(read_statefile(path)[0].rho, s.rho)

    rho = random_ginibre_density(6, 7)
    g = np.random.default_rng(8).standard_normal((6, 6)) * 1j
    e = (g + g.T) / 2  # anti-Hermitian, with an imaginary diagonal
    e[np.diag_indices(6)] -= np.trace(e) / 6  # of trace 0, so tr(rho + e) = 1
    e *= 0.5e-8 / fro_norm(e - dagger(e))
    doc = {"dims": [2, 3], "matrix": [[z.real, z.imag] for z in (rho + e).reshape(-1)]}
    s, _ = state_from_dict(doc)
    write_statefile(path, s)
    written = np.array(json.loads(path.read_text())["matrix"]).view(np.complex128).reshape(6, 6)
    assert np.array_equal(written, hermitize(rho + e))
    assert not np.array_equal(written, rho + e)


def test_full_precision_floats_survive():
    rho = np.diag([1 / 3, 1 / 3 + 1e-16, 0.0])
    rho[2, 2] = 1.0 - rho[0, 0] - rho[1, 1]
    s = validate(rho.astype(complex), 1, 3)
    t, _ = state_from_dict(json.loads(json.dumps(state_to_dict(s))))
    assert np.array_equal(t.rho, s.rho)


def test_row_major_pair_layout():
    s = ginibre_state(3, 1, 2)
    doc = state_to_dict(s)
    flat = np.array(doc["matrix"], dtype=float)
    rebuilt = (flat[:, 0] + 1j * flat[:, 1]).reshape(2, 2)
    assert np.array_equal(rebuilt, s.rho)


def test_metadata_key_is_omitted_when_empty():
    s = ginibre_state(4, 2, 2)
    doc = state_to_dict(s)
    assert "metadata" not in doc
    t, meta = state_from_dict(doc)
    assert meta == {}
    assert np.array_equal(t.rho, s.rho)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("dims"),
        lambda d: d.update(dims=["two", 2]),
        lambda d: d.update(dims=[0, 4]),
        # True == 1, so a 1x2 matrix would otherwise pass the length check
        lambda d: d.update(dims=[True, 2], matrix=d["matrix"][:4]),
        lambda d: d.update(dims=[2, 2, 2]),
        lambda d: d.update(matrix=d["matrix"][:-1]),
        lambda d: d["matrix"].__setitem__(0, [0.1]),
        lambda d: d["matrix"].__setitem__(0, [float("nan"), 0.0]),
        lambda d: d["matrix"].__setitem__(0, ["x", 0.0]),
        lambda d: d.update(metadata=[1, 2]),
        # a falsy non-object is as malformed as a truthy one
        lambda d: d.update(metadata=[]),
        lambda d: d.update(metadata=0),
        lambda d: d.update(metadata=False),
        lambda d: d.update(metadata=""),
        # json.loads reads NaN and Infinity, which RFC 8259 JSON does not allow
        lambda d: d.update(metadata={"seed": float("nan")}),
        lambda d: d.update(metadata={"family": "cq", "runs": [{"t": [0.5, float("-inf")]}]}),
    ],
)
def test_structural_errors_raise_parse_error(mutate):
    doc = state_to_dict(ginibre_state(5, 2, 2))
    doc["matrix"] = [list(p) for p in doc["matrix"]]
    mutate(doc)
    with pytest.raises(ParseError):
        state_from_dict(doc)


def test_absent_or_null_metadata_reads_as_empty():
    doc = state_to_dict(ginibre_state(5, 1, 2))
    assert state_from_dict(doc)[1] == {}
    assert state_from_dict({**doc, "metadata": None})[1] == {}


@pytest.mark.parametrize(
    "entry", [[True, 0.0], [0.0, False], [10**400, 0], [0.5, -(10**400)], [2**1024, 0]]
)
def test_booleans_and_integers_beyond_the_float_range_raise_parse_error(entry):
    doc = state_to_dict(ginibre_state(8, 1, 2))
    doc["matrix"][2] = entry
    with pytest.raises(ParseError, match="matrix entry 2 "):
        state_from_dict(doc)


@pytest.mark.parametrize("index", [0, 2, 15])
@pytest.mark.parametrize("entry", [
    [True, 0.0], [0.0, False],  # bool is an int subclass, yet no number
    [[0.5], 0.0], [[0.5, 0.0], [0.0, 0.0]],  # nested lists
    [0.5], [0.5, 0.0, 0.0], [],  # too short, too long
    ["0.5", 0.0], "ab", None, 0.5, {"re": 0.5, "im": 0.0}, (0.5, 0.0),
    [10**400, 0.0], [0.0, -(2**1024)],  # integers beyond the float range
    [float("nan"), 0.0], [0.0, float("inf")], [float("-inf"), 0.0],
])
def test_a_malformed_entry_is_named_by_its_index(entry, index):
    # the one-pass check keeps the per-entry message: the first bad entry,
    # by index, with its repr.  A later entry that is not finite is not the
    # one named; index 15 is the last, after valid entries only
    doc = state_to_dict(ginibre_state(9, 2, 2))
    doc["matrix"][index] = entry
    if index < 15:
        doc["matrix"][15] = [0.0, float("nan")]
    with pytest.raises(ParseError) as exc:
        state_from_dict(doc)
    assert str(exc.value) == f"matrix entry {index} must be a finite [re, im] pair, got {entry!r}"


@pytest.mark.parametrize("token, shown", [
    ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")])
def test_json_nan_and_infinity_entries_are_named_by_their_index(token, shown):
    doc = json.loads(f'{{"dims": [1, 2], "matrix": [[0.5, 0], [0, 0], [0, {token}], [0.5, 0]]}}')
    with pytest.raises(ParseError) as exc:
        state_from_dict(doc)
    assert str(exc.value) == f"matrix entry 2 must be a finite [re, im] pair, got [0, {shown}]"


class _Converted(Exception):
    """Carries the matrix state_from_dict hands to validate."""


def test_a_valid_matrix_converts_to_the_array_of_its_entries(monkeypatch):
    # bit for bit the array np.array builds from the entries, on every fixture
    # and on entries mixing ints, ints beyond 2^53 and 2^64, -0.0 and
    # subnormals (validate is replaced, so the values need not be a state)
    def capture(rho, m, n, tol):
        raise _Converted(rho)

    monkeypatch.setattr(statefile, "validate", capture)
    fixtures = sorted((pathlib.Path(__file__).parent / "fixtures").glob("state_*.json"))
    assert len(fixtures) == 20
    docs = [json.loads(path.read_text(encoding="utf-8")) for path in fixtures]
    docs.append({"dims": [1, 2], "matrix": [[1, -0.0], [2**53 + 1, 5e-324],
                                             [-(2**64 + 1), -5e-324], [0, 2**1000]]})
    for doc in docs:
        with pytest.raises(_Converted) as exc:
            state_from_dict(doc)
        (rho,) = exc.value.args
        want = np.array(doc["matrix"], dtype=np.float64)
        assert rho.shape == (len(want) ** 0.5,) * 2
        assert rho.reshape(-1).view(np.float64).tobytes() == want.tobytes(), doc.get("metadata")


def test_int_float_and_numpy_float_entries_are_numbers():
    # a -0.0 is read as itself.  The Hermitian part validate keeps has
    # imaginary part 0.0 on the diagonal; off it, hermitize's complex product
    # (a + a^dagger) * 0.5 keeps an imaginary -0.0 where the real part is
    # negative, so the sign is checked on such a conjugate pair
    doc = {"dims": [1, 2], "matrix": [[0.5, 0], [-0.25, -0.0], [np.float64(-0.25), 0], [0.5, 0.0]]}
    t, _ = state_from_dict(doc)
    assert np.array_equal(t.rho, [[0.5, -0.25], [-0.25, 0.5]])
    assert np.signbit(t.rho[0, 1].imag) and not np.signbit(t.rho[1, 0].imag)


def test_non_dict_document_raises_parse_error():
    with pytest.raises(ParseError):
        state_from_dict([1, 2, 3])


def test_validation_errors_pass_through():
    doc = state_to_dict(ginibre_state(6, 2, 2))
    doc["matrix"] = [
        [0.45 if (i == j and i < 2) else 0.0, 0.0] for i in range(4) for j in range(4)
    ]
    with pytest.raises(TraceNotOne):
        state_from_dict(doc)


def test_read_statefile_wraps_io_and_json_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        read_statefile(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        read_statefile(bad)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"dims": [1, 1], "matrix": [[1, 0]], "metadata": {"label": "\xe9"}}')
    with pytest.raises(ParseError, match="^cannot read .*utf-8"):
        read_statefile(latin1)


def test_write_statefile_ends_with_newline(tmp_path):
    path = tmp_path / "s.json"
    write_statefile(path, ginibre_state(7, 2, 2))
    assert path.read_text().endswith("\n")


def test_fixture_generator_reproduces_the_stored_fixtures(tmp_path):
    # the generator is the only record of how the frozen fixtures were made,
    # so every state file it writes (matrix, name and metadata) must still
    # equal the stored one byte for byte.  Its expected.json is not compared:
    # that file is frozen, reports are checked against it to 1e-9, and it is
    # never regenerated to absorb rounding drift
    root = pathlib.Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location("make_fixtures", root / "scripts" / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    roster = make_fixtures.build_roster()
    assert len(roster) == 20
    for idx, (name, state, meta) in enumerate(roster, start=1):
        fname = f"state_{idx:02d}.json"
        write_statefile(tmp_path / fname, state, {"name": name, **meta})
        stored = (root / "tests" / "fixtures" / fname).read_bytes()
        assert (tmp_path / fname).read_bytes() == stored, name
