"""Record what a fixed list of qcorr CLI commands prints, so two trees can be
compared byte for byte.

Each command runs as `python -m qcorr.cli` with TREE/src alone on
PYTHONPATH and OUTDIR as its working directory, so a relative --output name
lands in OUTDIR.  For a command named NAME the script writes NAME.stdout,
NAME.stderr and NAME.exit (the exit code); NAME.out is the file the command
wrote through --output, if it wrote one.  The fixtures are TREE's own
tests/fixtures/state_NN.json.  The script also writes malformed state files
into OUTDIR (see malformed_files) and analyzes each, so the messages and
exit codes of the read path's errors are compared too, and one near-CQ
state (see write_near_cq) that it analyzes in both formats.  OUTDIR must
not exist yet.

Usage: python scripts/cli_snapshot.py TREE OUTDIR

To compare a change with its parent, extract the parent with git archive,
snapshot both trees and diff the two directories:

    mkdir "$SCRATCH/parent" && git archive HEAD~1 | tar -x -C "$SCRATCH/parent"
    python scripts/cli_snapshot.py "$SCRATCH/parent" "$SCRATCH/snap-parent"
    python scripts/cli_snapshot.py . "$SCRATCH/snap-change"
    diff -r "$SCRATCH/snap-parent" "$SCRATCH/snap-change"
"""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
NEAR_CQ = "near-cq-2x3.json"


def malformed_files() -> dict[str, str]:
    """File name -> text of each malformed 1x2 state file: one bad entry at
    index 1 (a boolean, a short pair, an integer beyond the float range), and
    a document cut short."""
    def doc(entry: str) -> str:
        return f'{{"dims": [1, 2], "matrix": [[0.5, 0.0], {entry}, [0.0, 0.0], [0.5, 0.0]]}}\n'

    return {
        "bad-bool.json": doc("[true, 0.0]"),
        "bad-short-pair.json": doc("[0.0]"),
        "bad-big-int.json": doc(f"[0.0, {'9' * 400}]"),
        "bad-truncated.json": doc("[0.0, 0.0]")[:40],
    }


def write_near_cq(outdir: pathlib.Path) -> None:
    """Write NEAR_CQ, near_cq_state(2, 3, 0, 1e-9) of this checkout's
    tests/helpers: a CQ state whose rho_11 has an eigenvalue just above the
    rank cut, so its S_12 is far from normal although the state is SPPT.  It
    is built here, by the script's own checkout, so every TREE reads the
    same bytes."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
    from helpers import near_cq_state
    from qcorr import statefile

    statefile.write_statefile(outdir / NEAR_CQ, near_cq_state(2, 3, 0, 1e-9),
                              {"label": "near_cq_state(2, 3, 0, 1e-9)"})


def commands(tree: pathlib.Path) -> list[tuple[str, list[str]]]:
    """(NAME, arguments) of every command, in run order."""
    cmds = []
    for path in sorted((tree / "tests" / "fixtures").glob("state_*.json")):
        for fmt in ("human", "machine"):
            cmds.append((f"analyze-{path.stem}-{fmt}", ["analyze", str(path), "--format", fmt]))
    cmds += [(f"analyze-{name.removesuffix('.json')}", ["analyze", name])
             for name in malformed_files()]
    cmds += [(f"analyze-near-cq-2x3-{fmt}", ["analyze", NEAR_CQ, "--format", fmt])
             for fmt in ("human", "machine")]
    cmds += [
        ("scan-inclusions", ["scan-inclusions", "--seed", "5"]),
        ("bell-human", ["bell", "--p", "0.4,0.3,0.2,0.1"]),
        ("bell-machine", ["bell", "--p", "0.4,0.3,0.2,0.1", "--format", "machine"]),
        ("bell-vertex-human", ["bell", "--p", "1,0,0,0"]),
        ("bell-vertex-machine", ["bell", "--p", "1,0,0,0", "--format", "machine"]),
    ]
    x_ppt = ["--a11", ".3", "--a22", ".2", "--b11", ".3", "--b22", ".2",
             "--a12", "0.1", "--b12", "-0.05j"]
    for name, args in [
        ("xstate", ["xstate", *x_ppt]),
        # outside the state space: a11 a22 = 0 < |a12|^2
        ("xstate-outside", ["xstate", "--a11", ".5", "--a22", "0", "--b11", ".25",
                            "--b22", ".25", "--a12", ".1"]),
        ("verify-theorem1", ["verify-theorem1", "--seed", "7", "--samples", "1000"]),
        ("remark-3xn", ["remark-3xn", "--seed", "1", "--samples", "200"]),
    ]:
        cmds += [(name, args), (f"{name}-machine", args + ["--format", "machine"])]
    return [(name, args + ["--output", f"{name}.out"]) for name, args in cmds]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/cli_snapshot.py TREE OUTDIR", file=sys.stderr)
        return 2
    tree, outdir = pathlib.Path(argv[0]).resolve(), pathlib.Path(argv[1]).resolve()
    outdir.mkdir(parents=True)  # a fresh OUTDIR keeps no output of an earlier run
    for name, text in malformed_files().items():
        (outdir / name).write_text(text)
    write_near_cq(outdir)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, args in commands(tree):
        done = subprocess.run([sys.executable, "-m", "qcorr.cli", *args], cwd=outdir, env=env,
                              capture_output=True)
        (outdir / f"{name}.stdout").write_bytes(done.stdout)
        (outdir / f"{name}.stderr").write_bytes(done.stderr)
        (outdir / f"{name}.exit").write_text(f"{done.returncode}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
