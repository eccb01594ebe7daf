"""Automated clause-budget search — the MILEAGE paradigm (paper ref [17]).

MILEAGE searches for the smallest clause count that reaches a target
accuracy, because clause count is the dominant hardware cost knob while
throughput is bandwidth-fixed.  :func:`search_clause_budget` is a
doubling search with early stopping: grow the budget until accuracy
saturates (or the target is met), then binary-refine between the last
two budgets.  For the broader (clauses, T, s) exploration of ref [18],
use the successive-halving scheduler in :mod:`repro.sweep.scheduler`.

The search returns every evaluated point so the caller can plot the
accuracy/cost frontier, and delegates its candidate evaluations to the
sweep executor (:func:`repro.sweep.executor.parallel_map`): pass
``jobs=N`` to evaluate the budget ladder in speculative waves of
``jobs`` — results are identical to the serial search (points past the
stopping rung are discarded), only the wall clock changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sweep.executor import parallel_map
from .machine import TsetlinMachine

__all__ = ["SearchPoint", "SearchResult", "search_clause_budget"]


@dataclass
class SearchPoint:
    """One evaluated configuration."""

    n_clauses: int
    T: int
    s: float
    accuracy: float
    include_count: int
    epochs: int

    def cost(self):
        """Hardware cost proxy: total includes (AND terms in silicon)."""
        return self.include_count


@dataclass
class SearchResult:
    """Outcome of a search run."""

    best: SearchPoint
    evaluated: list = field(default_factory=list)
    target_met: bool = False

    def frontier(self):
        """Pareto frontier: points not dominated in (cost, accuracy)."""
        from ..sweep.pareto import pareto_front

        return pareto_front(
            self.evaluated, (("cost", "min"), ("accuracy", "max"))
        )


def _train_eval(ds_train, ds_val, n_clauses, T, s, epochs, seed,
                backend="vectorized"):
    X_train, y_train = ds_train
    X_val, y_val = ds_val
    tm = TsetlinMachine(
        n_classes=int(max(y_train.max(), y_val.max())) + 1,
        n_features=X_train.shape[1],
        n_clauses=n_clauses,
        T=T,
        s=s,
        seed=seed,
        backend=backend,
    )
    tm.fit(X_train, y_train, epochs=epochs)
    acc = tm.evaluate(X_val, y_val)
    return SearchPoint(
        n_clauses=n_clauses,
        T=T,
        s=s,
        accuracy=acc,
        include_count=tm.team.include_count(),
        epochs=epochs,
    ), tm


def _eval_task(task):
    """Executor worker: one (datasets + hyperparameters) evaluation.

    Module-level (picklable) so ``parallel_map`` can ship it to pool
    workers; returns ``(SearchPoint, machine)``.
    """
    ds_train, ds_val, n_clauses, T, s, epochs, seed, backend = task
    return _train_eval(ds_train, ds_val, n_clauses, T, s, epochs, seed,
                       backend=backend)


def search_clause_budget(X_train, y_train, X_val, y_val, target_accuracy=None,
                         start=4, max_clauses=256, epochs=5, s=4.0, seed=0,
                         tolerance=0.005, backend="vectorized", jobs=1):
    """Find the smallest clause budget that suffices.

    Doubles the budget from ``start`` until the target accuracy is met
    (or accuracy improves by less than ``tolerance`` — saturation), then
    refines between the last two budgets with one bisection step.

    Candidates train on the ``backend`` engine (default the vectorized
    one — results are bit-identical with the reference backend, so only
    the wall-clock changes) and are evaluated through the sweep executor:
    with ``jobs>1`` the budget ladder is explored in speculative parallel
    waves whose results match the serial search exactly.  Returns
    ``(SearchResult, best_machine)``.
    """
    if start < 2 or start % 2:
        raise ValueError("start must be an even integer >= 2")
    ds_train = (X_train, y_train)
    ds_val = (X_val, y_val)

    ladder = []
    budget = start
    while budget <= max_clauses:
        ladder.append(budget)
        budget *= 2

    def task_for(n_clauses, n_epochs):
        T = max(2, n_clauses // 2)
        return (ds_train, ds_val, n_clauses, T, s, n_epochs, seed, backend)

    evaluated = []
    machines = {}
    prev_acc = -1.0
    stopped = False
    wave_width = max(1, int(jobs))
    for lo in range(0, len(ladder), wave_width):
        wave = ladder[lo:lo + wave_width]
        outcomes = parallel_map(
            _eval_task, [task_for(b, epochs) for b in wave], jobs=jobs
        )
        # Replay the wave serially so early stopping discards exactly the
        # points the sequential search would never have evaluated.
        for b, (point, tm) in zip(wave, outcomes):
            evaluated.append(point)
            machines[b] = tm
            met = (target_accuracy is not None
                   and point.accuracy >= target_accuracy)
            saturated = point.accuracy - prev_acc < tolerance and prev_acc >= 0
            if met or saturated:
                stopped = True
                break
            prev_acc = point.accuracy
        if stopped:
            break

    # One bisection step between the two best budgets, if there is room.
    if len(evaluated) >= 2:
        hi = evaluated[-1].n_clauses
        lo = evaluated[-2].n_clauses
        mid = (hi + lo) // 2
        mid += mid % 2
        if lo < mid < hi:
            [(point, tm)] = parallel_map(
                _eval_task, [task_for(mid, epochs)], jobs=1
            )
            evaluated.append(point)
            machines[mid] = tm

    if target_accuracy is not None:
        feasible = [p for p in evaluated if p.accuracy >= target_accuracy]
        if feasible:
            best = min(feasible, key=lambda p: p.n_clauses)
            return (
                SearchResult(best=best, evaluated=evaluated, target_met=True),
                machines[best.n_clauses],
            )
    best = max(evaluated, key=lambda p: (p.accuracy, -p.n_clauses))
    return (
        SearchResult(best=best, evaluated=evaluated, target_met=False),
        machines[best.n_clauses],
    )
