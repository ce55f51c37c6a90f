"""Record what a fixed list of qcorr CLI commands prints, so two trees can be
compared byte for byte.

Each command runs as `python -m qcorr.cli` with TREE/src alone on
PYTHONPATH and OUTDIR as its working directory, so a relative --output name
lands in OUTDIR.  For a command named NAME the script writes NAME.stdout,
NAME.stderr and NAME.exit (the exit code); NAME.out is the file the command
wrote through --output, if it wrote one.  The fixtures are TREE's own
tests/fixtures/state_NN.json.  OUTDIR must not exist yet.

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


def commands(tree: pathlib.Path) -> list[tuple[str, list[str]]]:
    """(NAME, arguments) of every command, in run order."""
    cmds = []
    for path in sorted((tree / "tests" / "fixtures").glob("state_*.json")):
        for fmt in ("human", "machine"):
            cmds.append((f"analyze-{path.stem}-{fmt}", ["analyze", str(path), "--format", fmt]))
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
