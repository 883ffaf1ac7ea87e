"""Print how many (row, component) pairs each EM iteration solves.

For one synthetic corpus seed, this fits the mixture the way fit_gmm does
(default FitConfig, k-means seed 0) and prints one row per EM iteration:
the pairs solved, as a count and as a share of the distinct rows times the
components; the window widths of the components (smallest, median,
largest); the pairs the fix-up pass solved; and whether the iteration
solved every pair.  A summary line follows.  This script is not collected
by pytest.  Run it from the repository root:

    python tests/em_solve_stats.py [--seed N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gmmgen import FitConfig, SynthConfig, default_scene, generate_demonstrations  # noqa: E402
from gmmgen import model  # noqa: E402
from helpers import record_e_steps  # noqa: E402


def solve_stats(seed: int) -> tuple[int, list[dict]]:
    """(distinct row count, helpers.record_e_steps' records) of the seed's fit."""
    demos, _ = generate_demonstrations(default_scene(), SynthConfig(seed=seed))
    data = np.vstack([np.column_stack([d.times, d.values]) for d in demos])
    config = FitConfig()
    _, init = model.kmeans_init(data, config.n_components, config.seed, config.cov_floor)
    with pytest.MonkeyPatch.context() as patch:
        records = record_e_steps(patch)
        model.em_fit(data, init, config)
    return len(np.unique(data, axis=0)), records


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="synthetic corpus seed (default 0)")
    args = parser.parse_args(argv)
    n_rows, records = solve_stats(args.seed)
    total = n_rows * FitConfig().n_components
    print(f"corpus seed {args.seed}: {n_rows} distinct rows x {FitConfig().n_components} "
          f"components = {total} pairs per iteration")
    print(f"{'iter':>4} {'solved':>7} {'share':>6} {'win min':>7} {'median':>7} {'max':>7} "
          f"{'fix-ups':>7}  every pair")
    pairs = [sum(map(len, rec["solves"])) for rec in records]
    every = [rec["windows"] is None for rec in records]
    for i, (rec, solved) in enumerate(zip(records, pairs), 1):
        windows = rec["windows"]
        widths = None if windows is None else windows[:, 1] - windows[:, 0]
        spans = ("-", "-", "-") if widths is None else (
            int(widths.min()), int(np.median(widths)), int(widths.max()))
        print(f"{i:>4} {solved:>7} {solved / total:>6.3f} {spans[0]:>7} "
              f"{spans[1]:>7} {spans[2]:>7} {rec['fixups']:>7}  {'yes' if every[i - 1] else ''}")
    bounded = [solved / total for solved, full in zip(pairs, every) if not full]
    print(f"{len(records)} iterations; solved {sum(pairs) / (total * len(records)):.3f} "
          f"of all pairs, {np.mean(bounded) if bounded else float('nan'):.3f} on bounded "
          f"iterations; {sum(r['fixups'] for r in records)} fix-up pairs; every pair solved "
          f"on iterations {[i for i, full in enumerate(every, 1) if full]}")


if __name__ == "__main__":
    main()
