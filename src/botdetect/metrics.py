"""Evaluation suite: precision, recall, F1, accuracy, and ROC/AUC.

Bot is the positive class. The decision rule at a threshold is inclusive:
score >= threshold predicts Bot. Reported metrics are bot-class metrics; the
macro average over both classes is included for comparison.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import Label
from .errors import DataError


def confusion_at(scores, labels, threshold: float = 0.5) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) with score >= threshold predicting Bot."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int8)
    if scores.size == 0 or scores.shape != labels.shape:
        raise DataError("scores and labels must be equal-length and non-empty")
    predicted = scores >= threshold
    actual = labels == Label.BOT
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    tn = int(np.sum(~predicted & ~actual))
    return tp, fp, fn, tn


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float, bool, bool]:
    precision_defined = (tp + fp) > 0
    recall_defined = (tp + fn) > 0
    precision = tp / (tp + fp) if precision_defined else 0.0
    recall = tp / (tp + fn) if recall_defined else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return precision, recall, f1, precision_defined, recall_defined


def roc_points(scores, labels) -> list[tuple[float, float]]:
    """ROC curve traced over all distinct score thresholds.

    Equal scores are grouped into one step, which gives tied pairs half
    credit in the area (the Mann-Whitney convention). Points run from (0, 0)
    to (1, 1) and are monotone in both coordinates.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int8)
    n_pos = int(np.sum(labels == Label.BOT))
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC requires both classes present")
    if np.isnan(scores).any():
        # NaN has no rank; such scores come from a numerically broken model.
        raise DataError("scores contain NaN; the model is numerically broken")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    # The last position of each run of equal scores closes one step.
    ends = np.append(np.flatnonzero(ranked[1:] != ranked[:-1]), ranked.shape[0] - 1)
    tp = np.cumsum(labels[order] == Label.BOT)[ends]
    fp = ends + 1 - tp
    return [(0.0, 0.0), *zip((fp / n_neg).tolist(), (tp / n_pos).tolist())]


def _area(points) -> float:
    """Trapezoidal area under ROC points, summed left to right."""
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def auc(scores, labels) -> float:
    """Trapezoidal area under the ROC curve."""
    return _area(roc_points(scores, labels))


class EvalReport(NamedTuple):
    """One evaluation. The fields before `roc_points` are the scalars in
    `report.kv` order: `to_kv_lines` writes them as declared, then the
    config echo."""

    precision: float
    recall: float
    f1: float
    accuracy: float
    auc: float
    threshold: float
    tp: int
    fp: int
    fn: int
    tn: int
    macro_precision: float
    macro_recall: float
    macro_f1: float
    precision_defined: bool
    recall_defined: bool
    roc_points: tuple[tuple[float, float], ...]
    config_echo: dict[str, str]

    def to_kv_lines(self) -> list[str]:
        lines = [f"{name} = {value!r}" for name, value in zip(self._fields[:-2], self)]
        lines += [f"config.{key} = {self.config_echo[key]}" for key in sorted(self.config_echo)]
        return lines

    def to_text(self) -> str:
        rows = [
            "evaluation report (positive class: bot)",
            f"  precision  {self.precision:.4f}",
            f"  recall     {self.recall:.4f}",
            f"  f1         {self.f1:.4f}",
            f"  accuracy   {self.accuracy:.4f}",
            f"  auc        {self.auc:.4f}",
            f"  threshold  {self.threshold:.4f}  (score >= threshold -> bot)",
            f"  confusion  tp={self.tp} fp={self.fp} fn={self.fn} tn={self.tn}",
            f"  macro avg  precision={self.macro_precision:.4f} "
            f"recall={self.macro_recall:.4f} f1={self.macro_f1:.4f}",
        ]
        if not self.precision_defined:
            rows.append("  note: no predicted positives; precision reported as 0")
        return "\n".join(rows) + "\n"

    def roc_csv_lines(self) -> list[str]:
        lines = ["fpr,tpr"]
        lines.extend(f"{fpr!r},{tpr!r}" for fpr, tpr in self.roc_points)
        return lines


def evaluate(
    scores,
    labels,
    threshold: float = 0.5,
    config_echo: dict[str, str] | None = None,
) -> EvalReport:
    """Full evaluation of scores against labels at one threshold."""
    tp, fp, fn, tn = confusion_at(scores, labels, threshold)
    precision, recall, f1, p_def, r_def = _prf(tp, fp, fn)
    # Human-class metrics come from the transposed confusion.
    h_precision, h_recall, h_f1, _, _ = _prf(tn, fn, fp)
    accuracy = (tp + tn) / (tp + fp + fn + tn)
    points = roc_points(scores, labels)
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        auc=_area(points),
        threshold=threshold,
        tp=tp, fp=fp, fn=fn, tn=tn,
        macro_precision=(precision + h_precision) / 2.0,
        macro_recall=(recall + h_recall) / 2.0,
        macro_f1=(f1 + h_f1) / 2.0,
        precision_defined=p_def,
        recall_defined=r_def,
        roc_points=tuple(points),
        config_echo=dict(config_echo or {}),
    )
