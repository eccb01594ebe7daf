"""``factor_cubes`` against the Counter-based implementation it replaced.

The heap version must pick the same pair at every step — the most
frequent, earliest inserted among ties — so the generated netlists stay
byte-identical.  Small alphabets make ties common; symbols up to 15 make
repr order differ from numeric order ('10' < '9').
"""

from collections import Counter
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.factor import factor_cubes


# -- verbatim copy of the Counter-based factor_cubes ---------------------
def _pk(a, b):
    return tuple(sorted((a, b), key=repr))


def _pair_counts(cubes):
    counts = Counter()
    for cube in cubes:
        if len(cube) < 2:
            continue
        for a, b in combinations(sorted(cube, key=repr), 2):
            counts[_pk(a, b)] += 1
    return counts


def counter_factor_cubes(cubes, min_count=2, max_steps=None):
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

    return [tuple(sorted(c, key=repr)) for c in work], steps
# ------------------------------------------------------------------------


@st.composite
def cube_lists(draw):
    alphabet = draw(st.integers(2, 16))
    symbol = st.integers(0, alphabet - 1)
    return draw(st.lists(st.lists(symbol, max_size=8), max_size=24))


@settings(max_examples=300, deadline=None)
@given(cubes=cube_lists(), min_count=st.integers(2, 3),
       max_steps=st.one_of(st.none(), st.integers(0, 5)))
def test_heap_matches_counter_factoring(cubes, min_count, max_steps):
    got = factor_cubes(cubes, min_count=min_count, max_steps=max_steps)
    want_cubes, want_steps = counter_factor_cubes(
        cubes, min_count=min_count, max_steps=max_steps)
    assert got.cubes == want_cubes
    assert got.steps == want_steps
