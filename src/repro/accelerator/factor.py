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

Tie-break: among equally frequent pairs the one first inserted into the
pair counts wins (a pair whose count fell to 0 and came back counts as
new).  The pass reads the winner off a lazy max-heap of
``(-count, insertion number, pair)`` and finds the cubes holding both
symbols through a symbol -> cube-index map, so a step costs the cubes it
rewrites rather than a scan of every pair and every cube.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations, count

__all__ = ["factor_cubes", "FactorResult"]


class FactorResult:
    """Outcome of factoring: per-cube symbol sets plus the shared steps."""

    def __init__(self, cubes, steps):
        self.cubes = cubes          # list of tuples of symbols (net ids / step ids)
        self.steps = steps          # list of (new_symbol, a, b) in creation order
        self.n_extracted = len(steps)


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
    rank = {s: repr(s) for cube in work for s in cube}
    key = rank.__getitem__
    holders = {}                # symbol -> indices of the cubes holding it
    for i, cube in enumerate(work):
        for s in cube:
            holders.setdefault(s, set()).add(i)
    counts = {}                 # pair -> number of cubes holding both
    seq = {}                    # pair -> insertion number (the tie-break)
    n_seq = count()
    for cube in work:
        for pair in combinations(sorted(cube, key=key), 2):
            if pair in counts:
                counts[pair] += 1
            else:
                counts[pair] = 1
                seq[pair] = next(n_seq)
    # Lazy max-heap: a pair's entry may overstate its count (decrements
    # push nothing) but never understates it (new pairs are pushed with
    # their full count), so the first entry that is still exact is the
    # most frequent pair, earliest inserted among ties.
    heap = [(-n, seq[pair], pair) for pair, n in counts.items()]
    heapify(heap)
    steps = []

    while heap:
        neg, order, pair = heappop(heap)
        if seq.get(pair) != order:
            continue            # deleted since it was pushed
        best = counts[pair]
        if best != -neg:
            heappush(heap, (-best, order, pair))
            continue
        if best < min_count:
            break
        if max_steps is not None and len(steps) >= max_steps:
            break
        a, b = pair
        sym = ("f", len(steps))
        steps.append((sym, a, b))
        rank[sym] = rs = repr(sym)
        ra, rb = rank[a], rank[b]
        # Substitute into every cube holding both symbols, in cube order,
        # walking each cube's other symbols in repr order.  Sets of
        # ("f", n) tuples iterate in per-process string-hash order; the
        # repr walk keeps the pair insertion order — and so the tie-breaks
        # and the netlist — independent of PYTHONHASHSEED.
        both = sorted(holders[a] & holders[b])
        holders[a].difference_update(both)
        holders[b].difference_update(both)
        holders[sym] = set(both)
        new = {}
        for i in both:
            cube = work[i]
            cube.discard(a)
            cube.discard(b)
            rest = sorted(cube, key=key)
            for x in rest:
                rx = rank[x]
                for p in ((a, x) if ra < rx else (x, a),
                          (b, x) if rb < rx else (x, b)):
                    n = counts[p] - 1
                    if n:
                        counts[p] = n
                    else:
                        del counts[p], seq[p]
                p = (sym, x) if rs < rx else (x, sym)
                new[p] = new.get(p, 0) + 1
            cube.add(sym)
        del counts[pair], seq[pair]
        for p, n in new.items():
            counts[p] = n
            seq[p] = order = next(n_seq)
            heappush(heap, (-n, order, p))

    return FactorResult(cubes=[tuple(sorted(c, key=key)) for c in work], steps=steps)
