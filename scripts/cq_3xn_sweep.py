"""How strongly does CQ fail to imply SPPT once the A side has 3 levels?

For 2xN states every classical-quantum state is strong PPT; for 3xN the
canonical S12 is generically non-normal.  This sweep samples random CQ 3xN
states over a range of N and records the distribution of the S12
non-normality norm ||[S12, S12^+]||_F together with the fraction of samples
the pipeline still certifies as SPPT.  Output is one CSV row per N.

Usage: python scripts/cq_3xn_sweep.py [--samples K] [--seed S]
            [--dims 2,3,4,6,8] [--output out.csv]
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from qcorr import Tolerance, factorization, families
from qcorr.matlib import commutator, dagger, fro_norm

HEADER = ("dim_b,samples,sppt_fraction,min_nonnormality,median_nonnormality,"
          "max_nonnormality,median_cross")


def sweep_row(n: int, samples: int, seed: int, tol: Tolerance) -> str:
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**63 - 1, size=samples)
    nonnormal = np.empty(samples)
    cross = np.empty(samples)
    sppt = 0
    for i, s in enumerate(seeds):
        state = families.random_cq(3, n, int(s), tol)
        f = factorization.factorize_3xn(state, tol)
        nonnormal[i] = fro_norm(commutator(f.s12, dagger(f.s12)))
        cross[i] = f.cross_residual
        sppt += factorization.is_sppt(state, tol).is_sppt
    return (f"{n},{samples},{sppt / samples:.4f},{nonnormal.min():.6e},"
            f"{np.median(nonnormal):.6e},{nonnormal.max():.6e},"
            f"{np.median(cross):.6e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20260815)
    ap.add_argument("--dims", default="2,3,4,6,8",
                    help="comma-separated B-side dimensions")
    ap.add_argument("--output", default=None)
    args = ap.parse_args(argv)

    tol = Tolerance()
    dims = [int(x) for x in args.dims.split(",")]
    lines = [HEADER]
    for k, n in enumerate(dims):
        lines.append(sweep_row(n, args.samples, args.seed + k, tol))
        print(f"dim_b={n} done", file=sys.stderr)
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
