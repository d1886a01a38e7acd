"""Workload generator: the benchmark seed is its only input.

Each workload is a list of `zpmeasures` CLI invocations (argv lists).  The
program receives nothing but these generated arguments.  The seed -> inputs
map is fixed: changing it changes what a workload measures, so a later
change must not edit it and then compare against an older baseline.
"""

from __future__ import annotations

import random

# Seed whose report digests are pinned in digests.json.
DEFAULT_SEED = 0

# Each workload is one sample, run many times per benchmark run: a sample
# of two to three seconds gives 9-20 samples in a 40 s run, whose median holds
# still on a host where one process's speed varies 10-20 % from the next.
#
# The seed draws every seed-dependent input from a band of inputs of equal
# cost (measured at the commit that defined the benchmark: medians of 4-5
# calibrated workers, and the work counts of a traced run).  A comparison
# runs each workload with ten seeds and takes the spread of their results,
# so a seed that cost more would read as noise and hide the regressions the
# bounds are meant to catch.

# Unit c for `emit iwasawa --measure N2 --p 5 --nmax 3`.  It is fixed: the
# emit's `MPoly.evaluate` calls grow with c (980, 1470, 2058 and 2744 for
# c = 6, 7, 8 and 9), so no two units cost the same, and ten-seed runs that
# drew c from 6-8 read c = 8 about 9 % slower than c = 6.  The seed varies
# the suite seed of this workload instead.
N2_UNIT = 7

# Unit residues s for `verify octagon --p 3 --n 2 --sigma-rep s` (width 9):
# 1, 2 and 4 cost the same within 1 %; 5, 7 and 8 cost 9-16 % more.
OCTAGON_RESIDUES = (1, 2, 4)

# Suite seeds for `verify measures --p 5 --nmax 2` and `verify transforms
# --p 5 --nmax 3`: each tabulates 47482 table points in 107 level-table
# builds whatever the seed, and these make 42.1k-43.0k `padic.vp` and
# 11.9k-12.5k `MPoly.evaluate` calls (seeds 1, 18, 21 and 31 make 10-50 %
# fewer).
TABLE_SEEDS = (0, 5, 6, 7, 9, 11, 13, 23, 24, 30)

# Suite seeds for `verify magnus --p 3 --nmax 3` and `verify corrections
# --p 2`: over seeds 0-95 the ten random kernel words hold 11.6k-30.8k
# letters in 393 `embed_E` calls, with 2.9k-8.1k series terms, and the
# suite's time varies about 1.5x; seeds 32, 62, 67 and 93 give
# 18.1k-18.5k letters and 5.0k-5.3k terms.  (Seeds 9, 14 and 21, with
# 17.3k-17.5k letters but 3.7k, 3.5k and 5.2k terms, read 2.61, 2.70 and
# 2.79 s in ten-seed runs: the series terms count too.)
WORD_SEEDS = (32, 62, 67, 93)


def _octagon_sweep(rng: random.Random):
    residue = rng.choice(OCTAGON_RESIDUES)
    return [
        ["verify", "octagon", "--p", "5", "--n", "1", "--format", "json"],
        ["verify", "octagon", "--p", "3", "--n", "2",
         "--sigma-rep", str(residue), "--format", "json"],
    ]


def _tables_transforms(rng: random.Random):
    seed = str(rng.choice(TABLE_SEEDS))
    return [
        ["verify", "measures", "--p", "5", "--nmax", "2", "--seed", seed,
         "--format", "json"],
        ["verify", "transforms", "--p", "5", "--nmax", "3", "--seed", seed,
         "--format", "json"],
        ["emit", "iwasawa", "--measure", "N2", "--p", "5", "--nmax", "3",
         "--terms", "6", "--c", str(N2_UNIT)],
    ]


def _words_integrands(rng: random.Random):
    seed = str(rng.choice(WORD_SEEDS))
    return [
        ["verify", "magnus", "--p", "3", "--nmax", "3", "--seed", seed,
         "--format", "json"],
        ["verify", "corrections", "--p", "2", "--seed", seed,
         "--format", "json"],
    ]


WORKLOADS = ("octagon-sweep", "tables-transforms", "words-integrands")


def generate(workload: str, seed: int):
    """The CLI invocations of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "octagon-sweep":
        return _octagon_sweep(rng)
    if workload == "tables-transforms":
        return _tables_transforms(rng)
    if workload == "words-integrands":
        return _words_integrands(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
