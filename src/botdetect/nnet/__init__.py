"""From-scratch dense and LSTM layers and the contextual tweet classifier."""

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
