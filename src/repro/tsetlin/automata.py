"""Tsetlin Automata state storage.

A Tsetlin Automaton (TA) is a two-action finite state machine with ``2N``
states.  States ``1..N`` map to the *exclude* action (boolean action 0) and
states ``N+1..2N`` map to *include* (boolean action 1).  A clause owns one TA
per literal; a multiclass machine owns a team of shape
``(classes, clauses, 2 * features)``.

The state array is the entire trainable model.  After training, thresholding
it at ``N`` yields the include/exclude matrix that MATADOR translates into
hardware (Fig. 2 of the paper).
"""

from __future__ import annotations

import numpy as np

__all__ = ["AutomataTeam"]


class AutomataTeam:
    """A team of Tsetlin Automata: the int16 state array the backends update.

    Parameters
    ----------
    shape:
        Shape of the team, e.g. ``(classes, clauses, 2 * features)``.
    n_states:
        Number of states per action (``N``); the automaton has ``2N`` states
        total.  The paper's implementations typically use ``N = 127`` so a
        state fits in a signed byte plus sign.
    rng:
        A :class:`repro.tsetlin.rng.TMRandom`; used for the random
        middle-of-the-road initialization.  Without an rng the team still
        starts on the include/exclude boundary, but *deterministically
        mixed*: automata alternate exclude/include along the literal axis,
        giving the same ~50% include density as the coin-flip init without
        consuming a random stream.  (Earlier versions silently initialized
        every automaton to the exclude side, which left fresh teams with
        zero includes — clauses could never fire at inference before
        training.)
    """

    def __init__(self, shape, n_states=127, rng=None):
        if n_states < 1:
            raise ValueError("n_states must be >= 1")
        self.n_states = int(n_states)
        self.shape = tuple(shape)
        if rng is None:
            # Deterministic-but-mixed: alternate the include coin along the
            # flattened team so density is ~0.5 and reproducible with no rng.
            size = int(np.prod(self.shape)) if self.shape else 1
            init_coin = (np.arange(size) % 2 == 1).reshape(self.shape)
        else:
            init_coin = rng.bernoulli(0.5, self.shape)
        # Initialize on the include/exclude boundary: N or N + 1.
        self.state = np.where(init_coin, self.n_states + 1, self.n_states)
        self.state = self.state.astype(np.int16)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def actions(self):
        """Boolean action of every automaton (True = include)."""
        return self.state > self.n_states

    def include_count(self):
        """Total number of automata currently in the include action."""
        return int(np.count_nonzero(self.actions()))

    def include_fraction(self):
        """Fraction of automata in the include action (model density)."""
        return self.include_count() / self.state.size

    # ------------------------------------------------------------------
    # Serialization helpers
    # ------------------------------------------------------------------
    def to_dict(self):
        return {
            "n_states": self.n_states,
            "shape": list(self.shape),
            "state": self.state.tolist(),
        }

    @classmethod
    def from_dict(cls, payload):
        team = cls.__new__(cls)
        team.n_states = int(payload["n_states"])
        team.shape = tuple(payload["shape"])
        team.state = np.asarray(payload["state"], dtype=np.int16).reshape(team.shape)
        return team

    def __repr__(self):
        return (
            f"AutomataTeam(shape={self.shape}, n_states={self.n_states}, "
            f"include_fraction={self.include_fraction():.4f})"
        )
