"""Common-subexpression extraction over partial-clause conjunctions.

Section II of the paper: trained TM models show "significant sharing of
boolean expressions among the clauses within the class as well as among
the classes", which synthesis "logic absorption" turns into LUT savings.
This module is our model of that absorption: a greedy cube-factoring pass
(single-cube extraction, in the spirit of ``fast_extract``) applied to
all partial clauses of one HCB before any gates are created.

Algorithm: count literal-pair frequencies across the cubes, repeatedly
materialize the most frequent pair as a shared AND node and substitute it
back into every cube that contains it, until no pair occurs twice.  Each
substitution removes ``count - 1`` AND gates from the design.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

__all__ = ["factor_cubes", "FactorResult"]


class FactorResult:
    """Outcome of factoring: per-cube symbol sets plus the shared steps."""

    def __init__(self, cubes, steps):
        self.cubes = cubes          # list of tuples of symbols (net ids / step ids)
        self.steps = steps          # list of (new_symbol, a, b) in creation order
        self.n_extracted = len(steps)


def _pk(a, b):
    """Canonical pair key (repr ordering works across mixed symbol types)."""
    return tuple(sorted((a, b), key=repr))


def _pair_counts(cubes):
    counts = Counter()
    for cube in cubes:
        if len(cube) < 2:
            continue
        for a, b in combinations(sorted(cube, key=repr), 2):
            counts[_pk(a, b)] += 1
    return counts


def factor_cubes(cubes, min_count=2, max_steps=None):
    """Greedy pair extraction over conjunction cubes.

    Parameters
    ----------
    cubes:
        Iterable of iterables of hashable symbols (typically net ids).
        Duplicated symbols within a cube are collapsed.
    min_count:
        Only extract pairs occurring at least this often (>= 2).
    max_steps:
        Optional cap on extraction rounds (safety valve).

    Returns
    -------
    :class:`FactorResult` whose ``cubes[i]`` is the factored symbol tuple
    for input cube ``i`` and whose ``steps`` list the shared AND nodes to
    materialize, in dependency order.  New symbols are ``("f", n)`` tuples
    so they can never collide with integer net ids.
    """
    if min_count < 2:
        raise ValueError("min_count must be >= 2")
    work = [set(c) for c in cubes]
    steps = []
    counts = _pair_counts(work)
    next_id = 0

    while counts:
        (a, b), best = counts.most_common(1)[0]
        if best < min_count:
            break
        if max_steps is not None and len(steps) >= max_steps:
            break
        sym = ("f", next_id)
        next_id += 1
        steps.append((sym, a, b))
        # Substitute into every cube containing both symbols, updating the
        # pair counts incrementally.  Cubes are sets holding ("f", n)
        # tuples, whose iteration order follows the per-process string
        # hash; walking them in repr order keeps the Counter's insertion
        # order — and so most_common's tie-breaks and the netlist —
        # independent of PYTHONHASHSEED.
        for cube in work:
            if a in cube and b in cube:
                for x in sorted(cube, key=repr):
                    if x != a and x != b:
                        for pair in (_pk(x, a), _pk(x, b)):
                            counts[pair] -= 1
                            if counts[pair] <= 0:
                                del counts[pair]
                cube.discard(a)
                cube.discard(b)
                for x in sorted(cube, key=repr):
                    counts[_pk(x, sym)] += 1
                cube.add(sym)
        counts.pop(_pk(a, b), None)

    return FactorResult(cubes=[tuple(sorted(c, key=repr)) for c in work], steps=steps)
