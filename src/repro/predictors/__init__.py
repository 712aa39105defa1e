"""End-host congestion predictors and their state-machine scoring."""

from .analysis import (
    TransitionCounts,
    coalesce_events,
    false_positive_times,
    high_to_loss_fraction,
    score_predictor,
)
from .base import Predictor
from .classic import (
    CardPredictor,
    CimPredictor,
    DualPredictor,
    TriSPredictor,
    VegasPredictor,
)
from .extra import SyncTcpPredictor, TcpBfaPredictor
from .threshold import (
    EwmaRttPredictor,
    InstantRttPredictor,
    MovingAverageRttPredictor,
)

__all__ = [
    "Predictor",
    "CardPredictor",
    "TriSPredictor",
    "DualPredictor",
    "VegasPredictor",
    "CimPredictor",
    "SyncTcpPredictor",
    "TcpBfaPredictor",
    "InstantRttPredictor",
    "EwmaRttPredictor",
    "MovingAverageRttPredictor",
    "TransitionCounts",
    "score_predictor",
    "high_to_loss_fraction",
    "false_positive_times",
    "coalesce_events",
]
