"""The conic layer against programs with a planted optimum (tests/planted.py):
random families of every kind and random rows, whose optimal value c x*
is known by construction."""

from collections import Counter

import numpy as np

from corrquant.conic import verify_solution
from planted import planted

SEEDS = range(140)


def test_planted_optimum_is_found_and_verified():
    ended = Counter()
    for seed in SEEDS:
        prog, x = planted(seed)
        want = prog.objective() @ x
        sol = prog.solve()
        ended[sol.ended] += 1
        assert sol.status == "optimal", (seed, sol.ended)
        assert abs(sol.value - want) <= 1e-8 * (1 + abs(want)), (seed, sol.value, want)
        assert verify_solution(prog, sol).ok(), (seed, verify_solution(prog, sol))
    print(f"planted optimum, {len(SEEDS)} programs, ended: {dict(ended)}")
