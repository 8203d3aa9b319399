"""From-scratch dense and LSTM layers and the contextual tweet classifier.

The package re-exports nothing, so that a baseline importing `nnet.layers`
loads no recurrence and no model: import from `nnet.layers`, `nnet.lstm` and
`nnet.model` directly.
"""
