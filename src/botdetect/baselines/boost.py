"""AdaBoost (SAMME) over depth-1 decision stumps, binary case.

A stump is (feature, threshold, polarity): with polarity +1 it predicts bot
where x[feature] >= threshold, with polarity -1 the opposite side. Stump
weights are alpha = ln((1 - err) / err); for two classes the SAMME class-count
term ln(K - 1) vanishes. Scores are the logistic transform of the
alpha-weighted vote margin.
"""

from __future__ import annotations

import numpy as np

from .common import BaselineConfig
from ..errors import DataError
from ..nnet.layers import sigmoid

_ERR_CLAMP = 1e-10


def _stump_candidates(x, y):
    """Per feature, what does not change between rounds: the stable order of
    the rows, which sorted rows are bots and humans, and the n + 1 candidate
    thresholds with their validity. Candidates lie below the minimum
    (everything on the >= side), at midpoints between distinct neighbors and
    above the maximum; a midpoint between equal values is invalid.
    """
    n, d = x.shape
    signs = 2.0 * y - 1.0
    candidates = []
    for f in range(d):
        order = np.argsort(x[:, f], kind="stable")
        sv = x[order, f]
        valid = np.ones(n + 1, dtype=bool)
        valid[1:n] = sv[:-1] < sv[1:]
        thresholds = np.empty(n + 1)
        thresholds[0] = -np.inf
        thresholds[1:n] = (sv[:-1] + sv[1:]) / 2.0
        thresholds[n] = np.inf
        candidates.append((order, signs[order] > 0, signs[order] < 0, valid, thresholds))
    return candidates


def _best_stump(candidates, weights):
    """Stump minimizing weighted 0-1 error; exhaustive over features and
    thresholds via prefix sums. Ties keep the lowest feature, then the lowest
    threshold, then polarity +1.
    """
    best = (0, -np.inf, 1.0)
    best_err = np.inf
    for f, (order, is_bot, is_human, valid, thresholds) in enumerate(candidates):
        sw = weights[order]
        # err for polarity +1 at threshold position k (first k rows predicted
        # human): weight of bots among first k + weight of humans among rest.
        prefix_pos = np.concatenate([[0.0], np.cumsum(np.where(is_bot, sw, 0.0))])
        prefix_neg = np.concatenate([[0.0], np.cumsum(np.where(is_human, sw, 0.0))])
        w_pos_total = float(prefix_pos[-1])
        w_neg_total = float(prefix_neg[-1])
        err_plus = prefix_pos + (w_neg_total - prefix_neg)
        for polarity in (1.0, -1.0):
            errs = err_plus if polarity == 1.0 else (w_pos_total + w_neg_total) - err_plus
            errs = np.where(valid, errs, np.inf)
            k = int(np.argmin(errs))
            if errs[k] < best_err - 1e-15:
                best_err = float(errs[k])
                best = (f, float(thresholds[k]), polarity)
    return best, best_err


def _stump_predict(x, feature, threshold, polarity):
    side = (x[:, int(feature)] >= threshold).astype(np.float64)
    return side if polarity > 0 else 1.0 - side


def fit_adaboost(x: np.ndarray, y: np.ndarray, config: BaselineConfig) -> dict:
    n = x.shape[0]
    weights = np.full(n, 1.0 / n)
    stumps = []
    candidates = _stump_candidates(x, y)
    for _ in range(config.n_stumps):
        (feature, threshold, polarity), err = _best_stump(candidates, weights)
        err = min(max(err, _ERR_CLAMP), 1.0 - _ERR_CLAMP)
        if err >= 0.5 and stumps:
            break
        # err < 0.5 once a stump exists, so alpha > 0; only a first stump at
        # err = 0.5 has alpha 0, which the clamp lifts.
        alpha = max(float(np.log((1.0 - err) / err)), _ERR_CLAMP)
        stumps.append((float(feature), threshold, polarity, alpha))
        predicted = _stump_predict(x, feature, threshold, polarity)
        miss = predicted != y
        weights = weights * np.exp(alpha * miss)
        weights /= weights.sum()
        if err <= _ERR_CLAMP:
            break
    return {"stumps": np.array(stumps, dtype=np.float64)}


def stumps_params(arrays, width: int) -> dict:
    """The stumps of a checkpoint (`persist.load_model`), a DataError unless
    there is one at least and each (feature, threshold, polarity, alpha) row
    has a whole feature in [0, width), a polarity of +-1 and a finite alpha;
    a threshold may be +-inf, which `_stump_candidates` writes at the ends."""
    stumps = arrays["stumps"]
    if not (stumps.ndim == 2 and stumps.shape[0] and stumps.shape[1] == 4 and np.all(
            (0 <= stumps[:, 0]) & (stumps[:, 0] < width) & (stumps[:, 0] == np.floor(stumps[:, 0]))
            & (np.abs(stumps[:, 2]) == 1) & np.isfinite(stumps[:, 3]))):
        raise DataError(f"{arrays.path}: tensor 'stumps' cannot score {width}-wide rows")
    return {"stumps": stumps}


def adaboost_margin(params: dict, x: np.ndarray) -> np.ndarray:
    margins = np.zeros(x.shape[0])
    for feature, threshold, polarity, alpha in params["stumps"]:
        votes = 2.0 * _stump_predict(x, feature, threshold, polarity) - 1.0
        margins += alpha * votes
    return margins


def predict_adaboost(params: dict, x: np.ndarray) -> np.ndarray:
    return sigmoid(adaboost_margin(params, x))

