"""Successive-halving AutoML scheduler with a search -> deploy loop.

The exhaustive sweep (:func:`~repro.sweep.run.run_sweep`) spends the full
epoch budget on every candidate; this module spends it where it matters.
:func:`run_automl` trains every :class:`~repro.sweep.spec.SweepSpec`
candidate for a small epoch budget, ranks the rung on layered Pareto
fronts over the paper's design axes (accuracy max / latency min / LUTs
min), keeps the top ``1/eta`` fraction with an ``eta``-multiplied budget,
and repeats until one winner has consumed the full ``max_budget`` —
the classic successive-halving ladder, so the total training cost is a
small fraction of ``n_candidates * max_budget`` (the exhaustive grid).

Determinism is the load-bearing property.  Candidates train exclusively
through ``partial_fit`` one epoch at a time, with the epoch's sample
order drawn from ``default_rng((train_seed, epoch))`` — the trained
state at budget ``B`` is therefore a pure function of ``(config, B)``,
so a survivor continued *warm* from its in-memory rung state is
bit-identical to a candidate replayed *cold* from epoch 0 (pinned by
``tests/test_automl.py``).  Rung records are cached in the
content-addressed :class:`~repro.sweep.cache.SweepCache` keyed on
``(config, budget)``: a crashed or re-launched run replays to the exact
same rung tables, eliminations, and winner.

:func:`deploy_winner` closes the loop against the serving stack: the
winner is packaged through the existing :class:`~repro.serving.Registry`
path (the rung-0 baseline of the same config is published as the
champion), a :class:`~repro.serving.Gateway` fleet serves warm-up
traffic, and a :class:`~repro.streaming.Promoter` shadow-gates
and rolls the winner replica-by-replica — zero dropped requests, with
the per-replica roll events embedded in the audit report.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..flow.flow import FlowConfig, MatadorFlow
from ..obs import get_registry
from .cache import SweepCache, sweep_key
from .executor import parallel_map
from .pareto import dominates, objective_values
from .result import METRIC_FIELDS

__all__ = [
    "AUTOML_OBJECTIVES",
    "AutoMLResult",
    "deploy_winner",
    "evaluate_candidate",
    "rank_candidates",
    "run_automl",
    "rung_budgets",
    "train_candidate",
]

#: Ranking axes of the budget allocator — the paper's design-space trade
#: minus power (which tracks LUTs closely at this scale).
AUTOML_OBJECTIVES = (("accuracy", "max"), ("latency_us", "min"), ("luts", "min"))

#: Bump when rung-evaluation semantics change; invalidates cached rung
#: records the same way ``CACHE_VERSION`` invalidates sweep records.
AUTOML_VERSION = 1


def rung_budgets(min_budget, max_budget, eta):
    """The successive-halving budget ladder ``[min, min*eta, ..., max]``.

    Budgets multiply by ``eta`` per rung and the final rung is clipped to
    exactly ``max_budget``, so the winner is always trained to the same
    epoch count an exhaustive sweep would have used.
    """
    min_budget, max_budget, eta = int(min_budget), int(max_budget), int(eta)
    if min_budget < 1:
        raise ValueError("min_budget must be >= 1")
    if max_budget < min_budget:
        raise ValueError("max_budget must be >= min_budget")
    if eta < 2:
        raise ValueError("eta must be >= 2")
    budgets = [min_budget]
    while budgets[-1] < max_budget:
        budgets.append(min(budgets[-1] * eta, max_budget))
    return budgets


def _epoch_order(train_seed, epoch, n_samples):
    """Deterministic per-epoch shuffle: a pure function of (seed, epoch)."""
    rng = np.random.default_rng((int(train_seed) % 2**32, int(epoch)))
    return rng.permutation(int(n_samples))


def _snapshot(machine):
    """Portable warm-training state, or ``None`` when unsupported.

    The automata state plus the RNG stream position fully determine
    future ``partial_fit`` updates, so restoring this snapshot into a
    freshly built machine of the same config continues training
    bit-identically (object pickling of live machines does not — numpy
    view aliasing inside the backend caches is not pickle-stable).
    """
    rng = getattr(machine, "rng", None)
    gen = getattr(rng, "_gen", None)
    if gen is None or not hasattr(machine, "team"):
        return None
    state = {
        "team": np.array(machine.team.state, copy=True),
        "rng": gen.bit_generator.state,
        "weights": None,
    }
    weights = getattr(machine, "weights", None)
    if weights is not None:
        state["weights"] = np.array(weights, copy=True)
    return state


def _restore(machine, state):
    """Load a :func:`_snapshot` into a freshly built machine."""
    machine.team.state[:] = state["team"]
    machine.rng._gen.bit_generator.state = state["rng"]
    if state.get("weights") is not None:
        machine.weights[:] = state["weights"]
    backend = getattr(machine, "backend", None)
    if hasattr(backend, "sync"):
        # Inference reads the backend's packed include caches, which are
        # rebuilt from team.state only on sync (training syncs itself in
        # begin_fit; a restore followed directly by evaluate would not).
        backend.sync()
    return machine


def train_candidate(config, budget, state=None, start_epoch=0):
    """Deterministically train one candidate to ``budget`` epochs.

    With ``state`` (a warm snapshot taken at ``start_epoch``) training
    continues from there; without one it replays from epoch 0.  Both
    paths land on bit-identical machines, which is what lets rung
    results be cached as plain metrics and rebuilt on demand.  Returns
    ``(flow, machine)`` with the flow's dataset, machine, frozen model
    (for families that export one), and test accuracy populated.
    """
    if not isinstance(config, FlowConfig):
        config = FlowConfig.from_dict(config)
    flow = MatadorFlow(config)
    ds = flow.load_data()
    machine = flow.build_machine(ds)
    start = 0
    if state is not None:
        _restore(machine, state)
        start = int(start_epoch)
    for epoch in range(start, int(budget)):
        order = _epoch_order(config.train_seed, epoch, len(ds.X_train))
        machine.partial_fit(ds.X_train[order], ds.y_train[order])
    flow.result.machine = machine
    if hasattr(machine, "export_model"):
        flow.result.model = machine.export_model(config.name)
    predictor = flow.result.model or machine
    flow.result.accuracy = predictor.evaluate(ds.X_test, ds.y_test)
    return flow, machine


def evaluate_candidate(payload):
    """Worker: evaluate one ``{"config", "budget", "state", "start_epoch"}``.

    Trains to the rung budget (warm from ``state`` when given, cold
    replay otherwise), runs the hardware stages for families that have
    them, and returns the rung record with the flattened
    ``METRIC_FIELDS`` metrics plus the machine's warm ``"state"`` for
    the next rung (popped by the scheduler before caching — cached rung
    records are metrics only).
    """
    from .run import flatten_metrics

    record = {
        "config": dict(payload["config"]),
        "budget": int(payload["budget"]),
        "metrics": {name: None for name in METRIC_FIELDS},
        "error": None,
        "state": None,
    }
    try:
        flow, machine = train_candidate(
            payload["config"],
            payload["budget"],
            state=payload.get("state"),
            start_epoch=payload.get("start_epoch", 0),
        )
        if flow.result.model is not None:
            flow.analyze()
            flow.generate()
            flow.implement()
        record["config"] = flow.config.to_dict()
        record["metrics"] = flatten_metrics(flow.result)
        record["state"] = _snapshot(machine)
    except Exception as exc:  # noqa: BLE001 - one bad candidate must not kill the run
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["state"] = None
    return record


def _min_vector(metrics, objectives):
    """Minimize-form objective vector of one metrics dict (or ``None``)."""
    values = objective_values(metrics, objectives)
    if values is None:
        return None
    return tuple(
        v if sense == "min" else -v for v, (_k, sense) in zip(values, objectives)
    )


def _tie_break(record):
    """Deterministic within-front order: accuracy, latency, LUTs, key."""
    metrics = record["metrics"]
    accuracy = metrics.get("accuracy")
    latency = metrics.get("latency_us")
    luts = metrics.get("luts")
    return (
        -(accuracy if accuracy is not None else -1.0),
        latency if latency is not None else float("inf"),
        luts if luts is not None else float("inf"),
        record["key"],
    )


def rank_candidates(records, objectives=AUTOML_OBJECTIVES):
    """Best-first deterministic ordering of rung records.

    Layered non-dominated sorting: front 0 (no record dominates them)
    first, then the front of what remains, and so on — inside a front
    the order is accuracy desc, latency asc, LUTs asc, key asc.
    Records missing an objective (families without hardware metrics)
    rank after every complete record, ordered by the same tie-break;
    errored records always rank last.  Every record needs ``"key"``,
    ``"metrics"``, and ``"error"`` entries.
    """
    objectives = tuple(objectives)
    ok = [r for r in records if r.get("error") is None]
    errored = sorted(
        (r for r in records if r.get("error") is not None), key=lambda r: r["key"]
    )
    complete, partial = [], []
    vectors = {}
    for record in ok:
        vector = _min_vector(record["metrics"], objectives)
        if vector is None:
            partial.append(record)
        else:
            vectors[id(record)] = vector
            complete.append(record)

    ordered = []
    remaining = list(complete)
    while remaining:
        front = [
            r
            for r in remaining
            if not any(dominates(vectors[id(o)], vectors[id(r)]) for o in remaining)
        ]
        front.sort(key=_tie_break)
        ordered.extend(front)
        taken = {id(r) for r in front}
        remaining = [r for r in remaining if id(r) not in taken]

    partial.sort(key=_tie_break)
    return ordered + partial + errored


@dataclass
class AutoMLResult:
    """Everything one successive-halving run produced."""

    rungs: list = field(default_factory=list)
    eliminations: list = field(default_factory=list)
    winner: dict = None
    eta: int = 3
    budgets: list = field(default_factory=list)
    objectives: tuple = AUTOML_OBJECTIVES
    n_candidates: int = 0
    spent_epochs: int = 0
    grid_epochs: int = 0
    jobs: int = 1
    elapsed_s: float = None
    deploy: dict = None
    # In-memory warm state of the winner (never serialized into the
    # report; lets deploy_winner skip the cold replay when available).
    winner_state: dict = None
    winner_state_epochs: int = 0

    @property
    def budget_fraction(self):
        """Spent training epochs over the exhaustive-grid epoch count."""
        if not self.grid_epochs:
            return None
        return self.spent_epochs / self.grid_epochs

    def report(self):
        """Deterministic JSON-ready audit report (no wall-clock inside)."""
        fraction = self.budget_fraction
        return {
            "schema": "repro.sweep.automl/1",
            "objectives": [list(obj) for obj in self.objectives],
            "eta": self.eta,
            "budgets": list(self.budgets),
            "n_candidates": self.n_candidates,
            "rungs": self.rungs,
            "eliminations": self.eliminations,
            "winner": self.winner,
            "budget": {
                "spent_epochs": self.spent_epochs,
                "grid_epochs": self.grid_epochs,
                "fraction": round(fraction, 6) if fraction is not None else None,
            },
            "deploy": self.deploy,
        }

    def to_json(self):
        return json.dumps(self.report(), indent=1, sort_keys=True)

    def summary(self):
        fraction = self.budget_fraction
        text = (
            f"automl: {self.n_candidates} candidates, "
            f"{len(self.budgets)} rungs (eta={self.eta}), "
            f"{self.spent_epochs}/{self.grid_epochs} epochs"
        )
        if fraction is not None:
            text += f" ({fraction:.1%} of the grid)"
        if self.winner is not None:
            metrics = self.winner["metrics"]
            accuracy = metrics.get("accuracy")
            if accuracy is not None:
                text += f", winner accuracy {accuracy:.4f}"
        else:
            text += ", no winner (every candidate errored)"
        if self.elapsed_s is not None:
            text += f", {self.elapsed_s:.2f}s at jobs={self.jobs}"
        return text


def run_automl(
    spec,
    eta=3,
    min_budget=1,
    max_budget=None,
    objectives=AUTOML_OBJECTIVES,
    jobs=1,
    cache_dir=None,
    resume=True,
    progress=None,
    metrics=None,
):
    """Successive-halving search over ``spec``; returns an :class:`AutoMLResult`.

    Parameters
    ----------
    spec:
        A :class:`~repro.sweep.spec.SweepSpec` (or iterable of
        :class:`~repro.flow.flow.FlowConfig`).
    eta:
        Halving rate: each rung keeps the top ``ceil(n / eta)``
        candidates and multiplies the epoch budget by ``eta``.
    min_budget, max_budget:
        First-rung and final epoch budgets (``max_budget`` defaults to
        the largest ``epochs`` value among the candidates).
    objectives:
        Ranking axes, ``(metric, "min"|"max")`` pairs.
    jobs:
        Process-pool width per rung (1 = inline).  The rung tables and
        winner are identical for any ``jobs`` value.
    cache_dir, resume:
        Content-addressed rung-record cache: with ``resume=True`` a
        re-launched run replays cached rungs bit-identically and only
        trains what never finished.
    progress:
        Optional callback ``progress(rung_index, budget, ranked)`` after
        each rung is ranked.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` rung/evaluation/
        promotion counters and the ``automl_spent_epochs`` gauge are
        recorded into (defaults to the process registry).
    """
    t0 = time.perf_counter()
    configs = list(spec)
    if not configs:
        raise ValueError("empty sweep spec: nothing to schedule")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if max_budget is None:
        max_budget = max(cfg.epochs for cfg in configs)
    budgets = rung_budgets(min_budget, max_budget, eta)
    eta = int(eta)
    cache = SweepCache(cache_dir) if cache_dir else None
    obs = metrics if metrics is not None else get_registry()
    m_rungs = obs.counter("automl_rungs_total")
    m_evals = {
        cached: obs.counter("automl_evaluations_total", cached=cached)
        for cached in ("true", "false")
    }
    m_promotions = obs.counter("automl_promotions_total")
    m_eliminations = obs.counter("automl_eliminations_total")
    m_spent = obs.gauge("automl_spent_epochs")

    cfg_dicts = [cfg.to_dict() for cfg in configs]
    candidate_keys = [
        sweep_key({"automl": AUTOML_VERSION, "config": d}) for d in cfg_dicts
    ]
    states = {i: None for i in range(len(configs))}
    state_epochs = {i: 0 for i in range(len(configs))}
    survivors = list(range(len(configs)))

    rungs = []
    eliminations = []
    spent_epochs = 0
    prev_budget = 0

    for rung_index, budget in enumerate(budgets):
        last_rung = rung_index == len(budgets) - 1
        rung_keys = {
            i: sweep_key(
                {"automl": AUTOML_VERSION, "config": cfg_dicts[i], "budget": budget}
            )
            for i in survivors
        }
        records = {}
        pending = []
        for i in survivors:
            cached = cache.get(rung_keys[i]) if (cache is not None and resume) else None
            if cached is not None:
                records[i] = {
                    "config": cached["config"],
                    "budget": budget,
                    "metrics": cached["metrics"],
                    "error": cached.get("error"),
                    "key": candidate_keys[i],
                    "cached": True,
                }
            else:
                pending.append(i)

        tasks = [
            {
                "config": cfg_dicts[i],
                "budget": budget,
                "start_epoch": state_epochs[i] if states[i] is not None else 0,
                "state": states[i],
            }
            for i in pending
        ]
        fresh = parallel_map(evaluate_candidate, tasks, jobs=jobs)
        for i, record in zip(pending, fresh):
            state = record.pop("state", None)
            if state is not None:
                states[i] = state
                state_epochs[i] = budget
            if cache is not None and record.get("error") is None:
                cache.put(
                    rung_keys[i],
                    {k: record[k] for k in ("config", "budget", "metrics", "error")},
                )
            records[i] = dict(record, key=candidate_keys[i], cached=False)

        # Budget accounting is algorithmic (warm-path epoch deltas), so
        # the audit report is identical whether or not the cache hit.
        spent_epochs += (budget - prev_budget) * len(survivors)
        m_rungs.inc()
        if len(survivors) - len(pending):
            m_evals["true"].inc(len(survivors) - len(pending))
        if pending:
            m_evals["false"].inc(len(pending))
        m_spent.set(spent_epochs)

        ranked = rank_candidates([records[i] for i in survivors], objectives)
        keep = 1 if last_rung else max(1, math.ceil(len(survivors) / eta))
        promoted_keys = {r["key"] for r in ranked[:keep] if r.get("error") is None}
        entries = [
            {
                "key": record["key"],
                "rank": rank,
                "config": dict(sorted(record["config"].items())),
                "metrics": {k: record["metrics"].get(k) for k in METRIC_FIELDS},
                "error": record.get("error"),
                "promoted": record["key"] in promoted_keys,
            }
            for rank, record in enumerate(ranked)
        ]
        rungs.append(
            {
                "rung": rung_index,
                "budget": budget,
                "n_candidates": len(survivors),
                "trained_epochs": (budget - prev_budget) * len(survivors),
                "candidates": entries,
            }
        )
        for entry in entries:
            if entry["promoted"]:
                m_promotions.inc()
            else:
                m_eliminations.inc()
                eliminations.append(
                    {
                        "rung": rung_index,
                        "budget": budget,
                        "key": entry["key"],
                        "reason": "error" if entry["error"] else "pareto-rank",
                    }
                )
        if progress is not None:
            progress(rung_index, budget, ranked)

        by_key = {records[i]["key"]: i for i in survivors}
        ranked_survivors = [
            by_key[r["key"]] for r in ranked if r["key"] in promoted_keys
        ]
        survivors = ranked_survivors
        prev_budget = budget
        if not survivors:
            break  # every remaining candidate errored

    winner = None
    winner_state = None
    winner_state_epochs = 0
    if survivors:
        index = survivors[0]
        record = records[index]
        winner = {
            "key": record["key"],
            "config": dict(sorted(record["config"].items())),
            "metrics": {k: record["metrics"].get(k) for k in METRIC_FIELDS},
            "budget": budgets[-1],
        }
        winner_state = states.get(index)
        winner_state_epochs = state_epochs.get(index, 0)

    return AutoMLResult(
        rungs=rungs,
        eliminations=eliminations,
        winner=winner,
        eta=eta,
        budgets=budgets,
        objectives=tuple(objectives),
        n_candidates=len(configs),
        spent_epochs=spent_epochs,
        grid_epochs=len(configs) * budgets[-1],
        jobs=jobs,
        elapsed_s=time.perf_counter() - t0,
        winner_state=winner_state,
        winner_state_epochs=winner_state_epochs,
    )


def deploy_winner(
    result,
    name=None,
    replicas=2,
    mode="inline",
    max_batch=32,
    warmup=64,
    requests=256,
    margin=0.0,
):
    """Ship the scheduler's winner to a live Gateway fleet.

    The search -> deploy handoff: the winner's config trained to the
    *first* rung budget is published to a fresh
    :class:`~repro.serving.Registry` as the fleet's champion (v1), a
    :class:`~repro.serving.ReplicaPool` + `Gateway` serve warm-up
    traffic on it, and the fully trained winner is then shadow-gated
    and rolled replica-by-replica through a
    :class:`~repro.streaming.Promoter` — the zero-downtime,
    zero-drop promotion path the nightly CI job asserts end to end.

    Returns the deterministic deploy record (versions, roll events,
    request/shed counts, accuracies — no wall-clock), which
    :mod:`repro.flow.cli` embeds in the audit report as ``"deploy"``.
    """
    from ..serving import Gateway, Registry, ReplicaPool
    from ..streaming import Promoter

    if result.winner is None:
        raise ValueError("no winner to deploy (every candidate errored)")
    config = FlowConfig.from_dict(result.winner["config"])
    name = name or config.name or "automl_winner"
    baseline_budget = result.budgets[0]
    base_flow, base_machine = train_candidate(config, baseline_budget)
    win_flow, win_machine = train_candidate(
        config,
        result.budgets[-1],
        state=result.winner_state,
        start_epoch=result.winner_state_epochs,
    )
    champion = base_flow.result.model or base_machine
    challenger = win_flow.result.model or win_machine
    ds = win_flow.result.dataset

    registry = Registry()
    engine = registry.publish(name, champion)
    pool = ReplicaPool(engine, n_replicas=replicas, mode=mode, max_batch=max_batch)
    try:
        gateway = Gateway(pool, max_batch=max_batch)
        n_warm = max(0, int(warmup))
        if n_warm:
            X_warm = ds.X_test[np.arange(n_warm) % len(ds.X_test)]
            gateway.submit_many(X_warm)
            gateway.flush()
        promoter = Promoter(registry, name, gateway, margin=margin)
        record = promoter.promote(challenger, ds.X_test, ds.y_test)
        n_post = max(1, int(requests))
        X_post = ds.X_test[np.arange(n_post) % len(ds.X_test)]
        y_post = ds.y_test[np.arange(n_post) % len(ds.y_test)]
        tickets = gateway.submit_many(X_post)
        gateway.flush()
        answered = [(t, int(lbl)) for t, lbl in zip(tickets, y_post) if not t.shed]
        correct = sum(t.result() == lbl for t, lbl in answered)
        report = {
            "model": name,
            "replicas": int(replicas),
            "mode": mode,
            "baseline_budget": baseline_budget,
            "baseline_version": engine.version,
            "winner_budget": result.budgets[-1],
            "promoted": bool(record.get("promoted")),
            "new_version": record.get("new_version"),
            "champion_accuracy": record.get("champion_accuracy"),
            "challenger_accuracy": record.get("challenger_accuracy"),
            "roll": record.get("roll"),
            "fleet": record.get("fleet"),
            "fleet_versions": pool.versions(),
            "requests": n_warm + n_post,
            "served": n_warm + len(answered),
            "shed": int(gateway.stats.shed),
            "served_accuracy": (
                round(correct / len(answered), 4) if answered else None
            ),
        }
    finally:
        pool.close()
    return report
