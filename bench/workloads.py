"""Seeded inputs, per-state calls and output checks for the three workloads.

Each workload is a fixed recipe of input kinds and shapes.  The seed changes
the random values drawn for every input and the order they are sent in, never
the mix, so runs with different seeds do the same kind and amount of work.
Every call into qcorr goes through a module attribute (bipartite.is_ppt, not
a bare is_ppt) so that a traced run sees it.

random_verdicts  random CQ, SPPT, Ginibre and pure states, the same number of
                 each kind and shape; is_ppt, is_sppt, cq_detect and
                 commutator_criterion on each.  A synthetic mix that drives
                 the factorization, not the traffic of a CLI command:
                 verify-theorem1 runs only is_sppt on random CQ 2xN states and
                 remark-3xn only factorize_3xn on random CQ 3xN states.  The
                 factorization does most of the work; cq_detect stays on its
                 non-degenerate fast path and discord_a never runs.
closed_forms     the Bell-diagonal simplex and an X-state grid, the same four
                 calls, each verdict checked against its closed form: the
                 verdict calls of acceptance criterion 04 and scan-inclusions.
                 scan-inclusions also runs discord_a on each Bell point; this
                 workload leaves it out, so that what it measures is
                 cq_detect's cluster search, where degenerate marginals send it.
analyze_reports  read_statefile -> analyze -> to_machine on the committed
                 fixtures and on generated 2xN and 3xN state files (what
                 qcorr analyze does per file, without its printing).
                 discord_a is nearly all of it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qcorr import analysis, bipartite, discord, factorization, families, statefile
from qcorr.discord import DEFAULT_OPT
from qcorr.matlib import DEFAULT_TOL

TOL = DEFAULT_TOL
OPT = DEFAULT_OPT
TESTS = Path(__file__).resolve().parent.parent / "tests"

# the acceptance suite's comparator for the frozen fixture reports, used as is
# so that the benchmark and the suite cannot disagree on what matches
sys.path.insert(0, str(TESTS))
try:
    from test_acceptance import _compare_expected
finally:
    sys.path.remove(str(TESTS))
if not __debug__:
    sys.exit("the fixture check asserts; run the benchmark without python -O")


@dataclass
class Item:
    """One input: what is sent to qcorr and what its outputs must satisfy."""

    label: str
    kind: str
    dims: tuple[int, int]
    payload: object  # a BipartiteState, or a state-file path for analyze_reports
    expect: dict = field(default_factory=dict)
    digest_bytes: bytes = b""


def _order(seed: int, items: list[Item]) -> list[Item]:
    perm = np.random.default_rng([seed, 1 << 30]).permutation(len(items))
    return [items[i] for i in perm]


def input_digest(items: list[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.label.encode())
        h.update(item.digest_bytes)
    return h.hexdigest()


def _state_item(label: str, kind: str, state, **expect) -> Item:
    return Item(
        label=label,
        kind=kind,
        dims=(state.dim_a, state.dim_b),
        payload=state,
        expect=expect,
        digest_bytes=state.rho.tobytes(),
    )


def _verdicts(state):
    return (
        bipartite.is_ppt(state, TOL),
        factorization.is_sppt(state, TOL),
        discord.cq_detect(state, TOL, OPT),
        discord.commutator_criterion(state),
    )


def _chain_failure(dim_a: int, ppt: bool, sppt: bool, cq: bool) -> str | None:
    if sppt and not ppt:
        return "SPPT but not PPT"
    if cq and not ppt:
        return "CQ but not PPT"
    if dim_a == 2 and cq and not sppt:
        return "2xN CQ but not SPPT"
    return None


# ---------------------------------------------------------------------------
# random_verdicts

RV_SLOTS = (
    [("cq", 2, n) for n in (1, 2, 4, 8)]
    + [("cq", 3, n) for n in (2, 4, 8)]
    + [("sppt", 2, n) for n in (1, 2, 4, 8)]
    + [("ginibre", 2, n) for n in (1, 2, 4, 8)]
    + [("ginibre", 3, n) for n in (2, 4, 8)]
    + [("pure", 2, n) for n in (1, 2, 4, 8)]
    + [("pure", 3, n) for n in (2, 4, 8)]
)
RV_PER_SLOT = 8


def _random_state(kind: str, dim_a: int, n: int, entropy):
    if kind == "cq":
        return families.random_cq(dim_a, n, entropy, TOL)
    if kind == "sppt":
        return families.random_sppt(n, entropy, TOL)
    if kind == "ginibre":
        rho = families.random_ginibre_density(dim_a * n, entropy)
        return bipartite.validate(rho, dim_a, n, TOL)
    return families.random_pure(dim_a, n, entropy, TOL)


def build_random_verdicts(seed: int, workdir: Path) -> list[Item]:
    items = []
    for index, (kind, dim_a, n) in enumerate(
        slot for slot in RV_SLOTS for _ in range(RV_PER_SLOT)
    ):
        entropy = [seed, index]  # printed with a failure, so the input can be rebuilt
        state = _random_state(kind, dim_a, n, entropy)
        items.append(_state_item(f"{kind} {dim_a}x{n} seed={entropy}", kind, state))
    return _order(seed, items)


def run_verdicts(item: Item):
    return _verdicts(item.payload)


def check_random_verdicts(item: Item, out) -> str | None:
    ppt, sppt, cq, _ = out
    dim_a, n = item.dims
    chain = _chain_failure(dim_a, ppt.is_ppt, sppt.is_sppt, cq.is_cq)
    if chain:
        return chain
    if n == 1 and not (ppt.is_ppt and cq.is_cq and (dim_a != 2 or sppt.is_sppt)):
        return "a state with dim_b = 1 is a product state, so CQ, SPPT and PPT"
    if item.kind == "cq" and not cq.is_cq:
        return f"built CQ, cq_detect says not (residual {cq.off_block_residual:.3e})"
    if item.kind == "sppt" and not sppt.is_sppt:
        return f"built SPPT, is_sppt says not ({sppt.residuals})"
    if item.kind == "pure" and n > 1 and ppt.is_ppt:
        return "Haar-random pure state is entangled, yet is_ppt says PPT"
    return None


# ---------------------------------------------------------------------------
# closed_forms

BELL_STEPS = 6
X_DIAG_STEPS = 4
X_RATIOS = (0.0, 0.5, 0.99, 1.0)


def _simplex(steps: int):
    for i, j, k in itertools.combinations_with_replacement(range(steps + 1), 3):
        yield i / steps, (j - i) / steps, (k - j) / steps, (steps - k) / steps


def build_closed_forms(seed: int, workdir: Path) -> list[Item]:
    items = []
    for p in _simplex(BELL_STEPS):
        params = families.BellDiagonalParams(*p)
        items.append(
            _state_item(
                f"bell{p}",
                "bell",
                families.bell_diagonal(params, TOL),
                ppt=families.xstate_is_ppt(families.induced_xstate(params)),
                sppt=families.bell_is_sppt(params),
                cq=families.bell_zero_discord(params),
            )
        )
    rng = np.random.default_rng([seed, 0])
    for diag in _simplex(X_DIAG_STEPS):
        a11, a22, b11, b22 = diag
        for ra, rb in itertools.product(X_RATIOS, repeat=2):
            pa, pb = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2))
            params = families.XStateParams(
                a11=a11, a22=a22, b11=b11, b22=b22,
                a12=ra * np.sqrt(a11 * a22) * pa, b12=rb * np.sqrt(b11 * b22) * pb,
            )
            items.append(
                _state_item(
                    f"x{diag} ratios=({ra},{rb}) seed={seed}",
                    "xstate",
                    families.xstate(params, TOL),
                    ppt=families.xstate_is_ppt(params),
                    sppt=families.xstate_is_sppt(params),
                    cq=families.xstate_zero_discord(params),
                )
            )
    return _order(seed, items)


def check_closed_forms(item: Item, out) -> str | None:
    ppt, sppt, cq, _ = out
    got = {"ppt": ppt.is_ppt, "sppt": sppt.is_sppt, "cq": cq.is_cq}
    wrong = [k for k, want in item.expect.items() if got[k] != want]
    if wrong:
        return f"verdicts {got} disagree with the closed forms {item.expect} on {wrong}"
    return None


# ---------------------------------------------------------------------------
# analyze_reports

AR_SLOTS = (
    [(kind, 2, n) for n in (1, 2, 4, 8) for kind in ("ginibre", "pure", "cq")]
    + [(kind, 3, n) for n in (2, 4) for kind in ("ginibre", "pure", "cq")]
)
# two of each: with the 20 fixtures the median then falls among the 2x3
# fixture reports and the tail percentile among the 2x8 reports, not in the
# gap between two clusters where a little machine noise moves it a lot
AR_PER_SLOT = 2


def _marginal_entropy_a(rho: np.ndarray, dim_a: int, n: int) -> float:
    rho_a = np.trace(rho.reshape(dim_a, n, dim_a, n), axis1=1, axis2=3)
    w = np.linalg.eigvalsh((rho_a + rho_a.conj().T) / 2)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def build_analyze_reports(seed: int, workdir: Path) -> list[Item]:
    fixture_dir = TESTS / "fixtures"
    expected = json.loads((fixture_dir / "expected.json").read_text(encoding="utf-8"))
    items = []
    for fname, want in expected.items():
        path = fixture_dir / fname
        items.append(
            Item(
                label=f"fixture {fname}",
                kind="fixture",
                dims=tuple(want["dims"]),
                payload=path,
                expect=want,
                digest_bytes=path.read_bytes(),
            )
        )
    for index, (kind, dim_a, n) in enumerate(
        slot for slot in AR_SLOTS for _ in range(AR_PER_SLOT)
    ):
        entropy = [seed, index]
        state = _random_state(kind, dim_a, n, entropy)
        path = workdir / f"state_{index:02d}.json"
        statefile.write_statefile(path, state, {"name": f"{kind}_{dim_a}x{n}"})
        item = _state_item(f"{kind} {dim_a}x{n} seed={entropy}", kind, state)
        item.payload = path
        if kind == "pure":
            item.expect["s_a"] = _marginal_entropy_a(state.rho, dim_a, n)
        items.append(item)
    return _order(seed, items)


def run_report(item: Item):
    state, meta = statefile.read_statefile(item.payload, TOL)
    return meta, analysis.to_machine(analysis.analyze(state, TOL, OPT))


def check_report(item: Item, out) -> str | None:
    meta, doc = out
    if item.kind == "fixture":
        if meta.get("name") != item.expect["name"]:
            return f"metadata name {meta.get('name')!r} != {item.expect['name']!r}"
        try:
            _compare_expected(doc, item.expect, item.payload.name)
        except AssertionError as exc:
            return f"differs from the frozen report: {exc}"
        return None
    d, mi = doc["discord"], doc["mutual_information"]
    if doc["inconsistency"] is not None:
        return f"inconsistency: {doc['inconsistency']}"
    if not 0.0 <= d <= mi:
        return f"discord {d!r} outside [0, MI = {mi!r}]"
    if item.kind == "pure" and abs(d - item.expect["s_a"]) > 1e-3:
        return f"pure-state discord {d!r} != S(rho_A) = {item.expect['s_a']!r}"
    if item.kind == "cq":
        if d > 1e-4 or not doc["is_cq"]:
            return f"CQ state: discord {d!r}, is_cq {doc['is_cq']}"
        if item.dims[0] == 2 and not doc["is_sppt"]:
            return "2xN CQ state is not SPPT"
    return None


@dataclass(frozen=True)
class Workload:
    build: object
    run: object
    check: object
    tail_pct: float  # fixed per workload, with at least ten inputs beyond it


WORKLOADS = {
    "random_verdicts": Workload(build_random_verdicts, run_verdicts, check_random_verdicts, 95.0),
    "closed_forms": Workload(build_closed_forms, run_verdicts, check_closed_forms, 98.0),
    "analyze_reports": Workload(build_analyze_reports, run_report, check_report, 80.0),
}


def warm_up() -> None:
    """Fill lazy caches (the measurement grid) with one unchecked call."""
    state = bipartite.validate(np.eye(4) / 4, 2, 2, TOL)
    _verdicts(state)
    analysis.to_machine(analysis.analyze(state, TOL, OPT))
