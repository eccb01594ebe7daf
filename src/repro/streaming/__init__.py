"""Online continual learning: streams, drift detection, hot promotion.

The flow trains once and deploys a frozen design; this package keeps a
deployed model fresh when the data distribution shifts.  It layers on
the three prior subsystems: machines gained ``partial_fit`` (epoch-free
incremental updates, bit-identical to ``fit`` over the same sample
order), the serving registry gained ``pin``/``unpin`` so promotion can
hold a known-good version, and the serving gateway drains itself as a
context manager and swaps engines replica by replica.

Layer map::

    StreamSource       iterable of StreamBatch chunks with global sample
                       indices; ReplayStream cycles a repro.data Dataset
    DriftStream        injects synthetic concept drift (abrupt shift or
                       sliding-window ramp) via label/feature transforms
    OnlineTrainer      prequential (test-then-train) wrapper around a
                       machine's partial_fit
    DriftDetector      ADWIN-style windowed mean-shift test over the
                       served-prediction-vs-delayed-label correctness
                       stream
    Promoter           shadow-evaluates a challenger against the live
                       champion, publishes to the Registry on win, and
                       rolls it replica-by-replica through the serving
                       Gateway (one-replica Batcher or a whole fleet)
                       with per-replica drain + health check; rollback
                       re-rolls the fleet to the displaced version
    StreamSession      the standing loop: serve -> detect -> adapt ->
                       promote, with a JSON-able report
"""

from .sources import (
    DRIFT_KINDS,
    DriftStream,
    ReplayStream,
    StreamBatch,
    StreamSource,
    drift_transform,
    flip_features,
    permute_labels,
)
from .online import OnlineTrainer
from .drift import DriftDetector
from .promote import Promoter
from .session import StreamSession, run_stream

__all__ = [
    "DRIFT_KINDS",
    "DriftStream",
    "ReplayStream",
    "StreamBatch",
    "StreamSource",
    "drift_transform",
    "flip_features",
    "permute_labels",
    "OnlineTrainer",
    "DriftDetector",
    "Promoter",
    "StreamSession",
    "run_stream",
]
