"""From-scratch dense and LSTM layers, the contextual tweet classifier, and
gradient-checking utilities."""

from .lstm import init_lstm_params, lstm_forward
from .model import (
    ContextualLstmModel,
    NetConfig,
    TrainingTrace,
    blended_loss,
    train,
)

__all__ = [
    "ContextualLstmModel",
    "NetConfig",
    "TrainingTrace",
    "blended_loss",
    "init_lstm_params",
    "lstm_forward",
    "train",
]
