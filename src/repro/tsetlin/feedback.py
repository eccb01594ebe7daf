"""Type I and Type II feedback — the TM learning rules.

Both rules act on the TA states of one class's clause bank given a single
datapoint's literal vector.  They are fully vectorized over
``(clauses, literals)``:

* **Type I** combats false negatives: it reinforces clauses toward
  memorizing the patterns present in positive examples, with an erosion
  component (probability ``1/s``) that keeps clauses general.
* **Type II** combats false positives: when a clause fires for the wrong
  class, it includes one of the literals that are currently 0 so the clause
  stops matching the offending input.

The rules follow Granmo's original formulation [9]; ``boost_true_positive``
replaces the ``(s-1)/s`` strengthening probability with 1, a common
variation that speeds convergence on sparse data.  Type I's random
decisions come from one ``rng.bernoulli(1 / s, ...)`` mask over the
selected clauses, the draw every backend makes per event.
"""

from __future__ import annotations

import numpy as np

__all__ = ["type_i_feedback", "type_ii_feedback", "clause_outputs",
           "any_violated"]


def clause_outputs(include, literals, empty_output=1):
    """Evaluate a bank of clauses on one literal vector.

    Parameters
    ----------
    include:
        Boolean array ``(clauses, 2 * features)`` — the include actions.
    literals:
        ``(2 * features,)`` array of 0/1 literal values.
    empty_output:
        Output for clauses with no includes: 1 during training (the paper's
        hardware convention, HCB 0 initializes all clauses to ``1'b1``),
        0 during inference so that unformed clauses do not vote.

    Returns
    -------
    ``(clauses,)`` uint8 array of clause outputs.
    """
    literals = np.asarray(literals, dtype=bool)
    # A clause fails iff any included literal is 0.
    violated = include & ~literals[np.newaxis, :]
    out = ~violated.any(axis=1)
    if empty_output == 0:
        out &= include.any(axis=1)
    return out.astype(np.uint8)


# Cap on each float32 operand block that ``any_violated`` multiplies.
DENSE_BLOCK_BYTES = 1 << 18


def any_violated(not_literals, include):
    """Dense batch test: does any included literal read 0?

    ``not_literals`` is the ``(samples, 2 * features)`` 0/1 uint8
    complement of each sample's literals and ``include`` a ``(banks,
    clauses, 2 * features)`` include matrix.  Returns ``(samples, banks,
    clauses)`` bool.  The violated-literal counts are float32 matmuls,
    exact because a count is at most ``2 * features`` < 2^24.  Both
    operands are cast to float32 in blocks of whole rows, each at most
    ``DENSE_BLOCK_BYTES`` (or one row), so neither is copied whole.

    >>> import numpy as np
    >>> include = np.zeros((1, 1, 512), dtype=bool)
    >>> include[0, 0, :256] = True  # 256 included literals, all violated
    >>> any_violated(np.ones((1, 512), dtype=np.uint8), include).tolist()
    [[[True]]]
    """
    banks, clauses, width = np.shape(include)
    include = np.asarray(include).reshape(banks * clauses, width)
    n = len(not_literals)
    violated = np.empty((n, banks * clauses), dtype=bool)
    rows = max(1, DENSE_BLOCK_BYTES // max(4 * width, 1))
    for c in range(0, banks * clauses, rows):
        inc_t = include[c:c + rows].T.astype(np.float32)
        for a in range(0, n, rows):
            counts = not_literals[a:a + rows].astype(np.float32) @ inc_t
            np.greater(counts, 0, out=violated[a:a + rows, c:c + rows])
    return violated.reshape(n, banks, clauses)


def _literal_rows(literals):
    """Normalize literals to a broadcastable ``(clauses or 1, 2f)`` bool array.

    Accepts a single literal vector ``(2f,)`` (flat/coalesced machines) or a
    per-clause literal matrix ``(clauses, 2f)`` (convolutional machines,
    where every clause reinforces against its own chosen patch).
    """
    lit = np.asarray(literals, dtype=bool)
    return lit[np.newaxis, :] if lit.ndim == 1 else lit


def type_i_feedback(team, class_index, clause_mask, outputs, literals, s, rng,
                    boost_true_positive=False):
    """Apply Type I feedback to the selected clauses of one class.

    Memorize and erode act on disjoint literals: a clause that fired
    memorizes its 1-valued literals (``base = fired & literal``) and
    every other literal of a selected clause erodes.  One mask ``S ~
    Bernoulli(1 / s)`` over ``(selected clauses, literals)`` drives
    both: ``erode = ~base & S`` and ``memorize = base & ~S`` (or all of
    ``base`` with ``boost_true_positive``).  An empty selection draws
    nothing.

    Parameters
    ----------
    team:
        :class:`repro.tsetlin.automata.AutomataTeam` of shape
        ``(classes, clauses, 2 * features)``.
    class_index:
        Which class's clause bank to update.
    clause_mask:
        Boolean ``(clauses,)`` — which clauses receive feedback this step.
    outputs:
        ``(clauses,)`` clause outputs for this datapoint (training
        convention: empty clauses output 1).
    literals:
        ``(2 * features,)`` 0/1 literal values for the datapoint, or a
        ``(clauses, 2 * features)`` matrix of per-clause literals (the
        convolutional machine's chosen patches).
    s:
        Specificity hyperparameter (``s >= 1``); larger values produce more
        specific (more-include) clauses.
    rng:
        :class:`repro.tsetlin.rng.TMRandom`.
    boost_true_positive:
        If True, strengthen matching literals with probability 1 instead of
        ``(s - 1) / s``.
    """
    states = team.state[class_index]
    clause_mask = np.asarray(clause_mask, dtype=bool)
    n_selected = int(clause_mask.sum())
    if not n_selected:
        return
    sample = np.zeros(states.shape, dtype=bool)
    sample[clause_mask] = rng.bernoulli(1.0 / s,
                                        (n_selected, states.shape[1]))
    lit = _literal_rows(literals)
    base = np.asarray(outputs, dtype=bool)[:, np.newaxis] & lit

    erode = ~base & sample  # ``sample`` is False on unselected clauses
    memorize = base & clause_mask[:, np.newaxis]
    if not boost_true_positive:
        memorize &= ~sample

    states += memorize.astype(np.int16)
    states -= erode.astype(np.int16)
    np.clip(states, 1, 2 * team.n_states, out=states)


def type_ii_feedback(team, class_index, clause_mask, outputs, literals):
    """Apply Type II feedback to the selected clauses of one class.

    For every selected clause that (wrongly) fired, each literal with value 0
    whose automaton currently excludes it is stepped one state toward
    include.  Including such a literal guarantees the clause will no longer
    match this datapoint.  Type II is deterministic.
    """
    states = team.state[class_index]
    clause_mask = np.asarray(clause_mask, dtype=bool)
    if not clause_mask.any():
        return
    lit = _literal_rows(literals)
    fired = (np.asarray(outputs, dtype=bool) & clause_mask)[:, np.newaxis]
    excluded = states <= team.n_states

    bump = fired & ~lit & excluded
    states += bump.astype(np.int16)
    np.clip(states, 1, 2 * team.n_states, out=states)
