"""The contextual tweet classifier and its tweet-only variant.

A tweet arrives as row ids into the frozen embedding matrix, which its batch
hands to a 32-unit LSTM together with the matrix; the final state is
concatenated with the six standardized metadata counters before two ReLU
layers (128, 64) and a sigmoid output. An auxiliary sigmoid head reads the
LSTM state directly; it exists for training regularization only and its loss
is blended with the main loss at fixed weights (main 0.8, aux 0.2). The
tweet-only variant drops the metadata path and the auxiliary head.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..config import from_strings, to_strings
from ..data import CHECKPOINT_KINDS, TWEET_METADATA_COLUMNS, Standardizer, checked
from ..errors import DataError, TrainingError, float_errors
from ..metrics import auc
from ..persist import save_model
from .layers import Adam, affine, affine_backward, bce, bce_grad_wrt_logit, \
    dense_backward, dense_forward, glorot_uniform, sigmoid
from .lstm import GATES, init_lstm_params, lstm_backward, lstm_forward
from .lstm import stack_sequences  # noqa: F401  (perfbench/tracing.py wraps it by this name)

METADATA_DIM = len(TWEET_METADATA_COLUMNS)
# The main head's layers, as (W key, b key): dense1 -> dense2 -> main.
HEAD = (("dense1.W", "dense1.b"), ("dense2.W", "dense2.b"), ("main.W", "main.b"))


@checked
class NetConfig(NamedTuple):
    embedding_dim: int
    hidden_dim: int = 32
    dense_sizes: tuple[int, int] = (128, 64)
    use_metadata: bool = True
    use_aux: bool = True
    loss_weights: tuple[float, float] = (0.8, 0.2)  # (main, aux)
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 64
    epochs: int = 30
    seed: int = 0

    def _check(self):
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be positive")
        w_main, w_aux = self.loss_weights
        if w_main < 0 or w_aux < 0 or abs(w_main + w_aux - 1.0) > 1e-12:
            raise ValueError("loss weights must be non-negative and sum to 1")
        if not self.use_aux and w_aux != 0.0:
            raise ValueError("aux loss weight must be 0 when the aux head is off")

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Every parameter's shape, in the order `initialize` creates them."""
        h, (d1, d2) = self.hidden_dim, self.dense_sizes
        shapes = {}
        for gate in GATES:
            shapes.update({f"W_{gate}": (h, self.embedding_dim), f"U_{gate}": (h, h),
                           f"b_{gate}": (h,)})
        if self.use_aux:
            shapes.update({"aux.W": (1, h), "aux.b": (1,)})
        shapes.update({"dense1.W": (d1, h + (METADATA_DIM if self.use_metadata else 0)),
                       "dense1.b": (d1,), "dense2.W": (d2, d1), "dense2.b": (d2,),
                       "main.W": (1, d2), "main.b": (1,)})
        return shapes


class ContextualLstmModel:
    """All learned parameters plus the hyperparameters that produced them."""

    def __init__(self, config: NetConfig, params: dict[str, np.ndarray],
                 metadata_standardizer: Standardizer | None):
        self.config = config
        self.params = params
        self.metadata_standardizer = metadata_standardizer

    @classmethod
    def initialize(cls, config: NetConfig) -> ContextualLstmModel:
        """Fresh parameters; a net that reads metadata starts with the
        identity standardizer (mean 0, std 1), which `train` replaces."""
        rng = np.random.Generator(np.random.PCG64(config.seed))
        params = init_lstm_params(rng, config.embedding_dim, config.hidden_dim)
        # The heads follow the LSTM's tensors.
        for name, shape in list(config.param_shapes().items())[len(params):]:
            params[name] = glorot_uniform(rng, shape) if name.endswith(".W") else np.zeros(shape)
        identity = Standardizer(mean=np.zeros(METADATA_DIM), std=np.ones(METADATA_DIM))
        return cls(config, params, identity if config.use_metadata else None)

    # -- forward ---------------------------------------------------------

    def forward_batch(self, matrix: np.ndarray, ids: np.ndarray, lengths: np.ndarray,
                      metadata: np.ndarray | None, keep_cache: bool = False):
        """Batched forward pass on (B, max_len) row ids into the embedding
        matrix and raw metadata, which it standardizes.

        Returns (main_scores, aux_scores, final_h, cache); the cache is None
        unless ``keep_cache``.
        """
        p = self.params
        cfg = self.config
        final_h, lstm_cache = lstm_forward(p, ids, lengths, matrix, keep_cache)
        if cfg.use_metadata:
            if metadata is None or metadata.shape[1] != METADATA_DIM:
                raise DataError("metadata must be a (B, 6) array")
            u = np.concatenate([final_h, self.metadata_standardizer.transform(metadata)], axis=1)
        else:
            u = final_h
        z_main, head = dense_forward(p, HEAD, u)
        main_scores = sigmoid(z_main)[:, 0]
        if cfg.use_aux:
            z_aux = affine(final_h, p["aux.W"], p["aux.b"])
            aux_scores = sigmoid(z_aux)[:, 0]
        else:
            aux_scores = None
        cache = {"lstm": lstm_cache, "final_h": final_h, "head": head} if keep_cache else None
        return main_scores, aux_scores, final_h, cache

    def forward(self, matrix: np.ndarray, ids: np.ndarray, length: int,
                metadata: np.ndarray | None = None):
        """Single-tweet forward on its (max_len,) row ids into the embedding
        matrix: (main_score, aux_score, hidden_trace, cell_trace).

        The traces hold the LSTM's hidden and cell states at every real
        timestep, one row each; the metadata argument is raw counts and is
        standardized internally.
        """
        if self.config.use_metadata:
            metadata = np.asarray(metadata, dtype=np.float64).reshape(1, METADATA_DIM)
        main, aux, _, cache = self.forward_batch(matrix, ids[None], np.array([length]), metadata,
                                                 keep_cache=True)
        hidden, cells = (cache["lstm"][key][1:, 0] for key in ("h", "c"))
        return float(main[0]), (float(aux[0]) if aux is not None else None), hidden, cells

    def predict_proba(self, matrix: np.ndarray, ids: np.ndarray, lengths: np.ndarray,
                      metadata: np.ndarray | None = None) -> np.ndarray:
        """Main-head scores for (N, max_len) row ids (raw metadata accepted),
        in one full-batch forward pass."""
        return self.forward_batch(matrix, ids, lengths, metadata)[0]

    # -- training --------------------------------------------------------

    def backward_batch(self, cache, main_scores, aux_scores, targets):
        """Gradients of the blended loss for one batch."""
        p = self.params
        cfg = self.config
        w_main, w_aux = cfg.loss_weights
        dz_main = w_main * bce_grad_wrt_logit(main_scores, targets)[:, None]
        du, grads = dense_backward(p, HEAD, cache["head"], dz_main)
        d_final_h = du[:, : cfg.hidden_dim]
        if cfg.use_aux:
            dz_aux = w_aux * bce_grad_wrt_logit(aux_scores, targets)[:, None]
            d_fh_aux, grads["aux.W"], grads["aux.b"] = affine_backward(
                dz_aux, cache["final_h"], p["aux.W"])
            d_final_h = d_final_h + d_fh_aux
        grads.update(lstm_backward(p, cache["lstm"], d_final_h))
        return grads

    # -- persistence -----------------------------------------------------

    def save(self, path, extra_meta: dict | None = None) -> None:
        cfg = self.config
        meta = {"kind": CHECKPOINT_KINDS[0] if cfg.use_metadata else CHECKPOINT_KINDS[1]}
        for name, text in to_strings(cfg).items():
            if name == "loss_weights":
                meta["loss_weight_main"], meta["loss_weight_aux"] = text.split(",")
            else:
                meta[name] = text
        # v1 checkpoints write the two bools as 1/0.
        meta.update(use_metadata=int(cfg.use_metadata), use_aux=int(cfg.use_aux))
        meta.update(extra_meta or {})
        arrays = dict(self.params)
        if cfg.use_metadata:
            arrays["meta_standardizer.mean"] = self.metadata_standardizer.mean
            arrays["meta_standardizer.std"] = self.metadata_standardizer.std
        save_model(path, meta, arrays)

    @classmethod
    def load(cls, meta, arrays) -> ContextualLstmModel:
        """Rebuild a model from a parsed checkpoint (`persist.load_model`); a
        missing or unexpected tensor is a DataError naming it, and so are a
        tensor `Entries.shaped` refuses, a standardizer `Standardizer.load`
        refuses, and a kind that `use_metadata` does not give."""
        values = {name: meta[name] for name in NetConfig._fields if name != "loss_weights"}
        values["loss_weights"] = f"{meta['loss_weight_main']},{meta['loss_weight_aux']}"
        config = from_strings(NetConfig, values)
        # Shapes come from the meta, and are checked before any is used.
        params = {name: arrays.shaped(name, shape)
                  for name, shape in config.param_shapes().items()}
        standardizer = Standardizer.load(arrays, "meta_standardizer", METADATA_DIM) \
            if config.use_metadata else None
        arrays.only({*params, *(("meta_standardizer.mean", "meta_standardizer.std")
                                if config.use_metadata else ())})
        if (meta["kind"] == CHECKPOINT_KINDS[0]) != config.use_metadata:
            raise DataError(f"{arrays.path}: kind {meta['kind']!r} disagrees with "
                            f"use_metadata = {meta['use_metadata']}")
        return cls(config, params, standardizer)


def blended_loss(main_score, aux_score, label,
                 weights: tuple[float, float] = (0.8, 0.2)):
    """(total, main, aux) binary cross-entropies; total = 0.8*main + 0.2*aux.

    Accepts scalars or parallel arrays. When aux_score is None the aux part
    is 0 and the main weight must carry all the mass.
    """
    targets = np.atleast_1d(np.asarray(label, dtype=np.float64))
    main_part = bce(np.atleast_1d(np.asarray(main_score, dtype=np.float64)), targets)
    if aux_score is None:
        aux_part = 0.0
    else:
        aux_part = bce(np.atleast_1d(np.asarray(aux_score, dtype=np.float64)), targets)
    w_main, w_aux = weights
    return w_main * main_part + w_aux * aux_part, main_part, aux_part


class EpochRecord(NamedTuple):
    epoch: int
    main_loss: float
    aux_loss: float
    total_loss: float
    val_accuracy: float | None = None
    val_auc: float | None = None


class TrainingTrace(NamedTuple):
    steps: list[tuple[int, int, float, float, float]]
    epochs: list[EpochRecord]

    def to_csv_lines(self) -> list[str]:
        lines = ["record,epoch,step,main_loss,aux_loss,total_loss,val_accuracy,val_auc"]
        for epoch, step, main, aux, total in self.steps:
            lines.append(f"step,{epoch},{step},{main!r},{aux!r},{total!r},,")
        for rec in self.epochs:
            acc = "" if rec.val_accuracy is None else repr(rec.val_accuracy)
            roc = "" if rec.val_auc is None else repr(rec.val_auc)
            lines.append(
                f"epoch,{rec.epoch},,{rec.main_loss!r},{rec.aux_loss!r},"
                f"{rec.total_loss!r},{acc},{roc}"
            )
        return lines


def train(
    config: NetConfig,
    matrix: np.ndarray,
    corpus: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    validation: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[ContextualLstmModel, TrainingTrace]:
    """Mini-batch Adam over full backpropagation through time.

    ``corpus`` and ``validation`` are (ids, lengths, raw metadata, labels)
    arrays; each batch reads its rows of the embedding ``matrix``.
    Embeddings are frozen (gradients stop at the sequence input). Metadata is
    standardized with training-set statistics; it is never resampled. The run
    is bit-reproducible for a fixed config seed. A step that overflows or
    whose loss is not finite, and a validation pass that overflows, raise
    TrainingError.
    """
    ids_all, lengths_all, meta_all, labels = corpus
    if len(ids_all) == 0:
        raise DataError("training corpus is empty")
    targets = np.asarray(labels, dtype=np.float64)
    if len(set(targets.tolist())) < 2:
        raise DataError("training corpus must contain both classes")

    model = ContextualLstmModel.initialize(config)
    if config.use_metadata:
        model.metadata_standardizer = Standardizer.fit(meta_all)
    optimizer = Adam(model.params, lr=config.learning_rate, beta1=config.beta1,
                     beta2=config.beta2, eps=config.adam_eps)
    trace = TrainingTrace(steps=[], epochs=[])

    rng = np.random.Generator(np.random.PCG64(config.seed))
    n = len(ids_all)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_main, epoch_aux, epoch_total, seen = 0.0, 0.0, 0.0, 0
        for step, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            lb, yb = lengths_all[idx], targets[idx]
            with float_errors(TrainingError, f"loss is not finite at epoch {epoch}, step {step}"):
                main, aux, _, cache = model.forward_batch(matrix, ids_all[idx], lb, meta_all[idx],
                                                          keep_cache=True)
                total, main_loss, aux_loss = blended_loss(main, aux, yb, config.loss_weights)
                if not np.isfinite(total):
                    raise FloatingPointError
                optimizer.step(model.backward_batch(cache, main, aux, yb))
            trace.steps.append((epoch, step, main_loss, aux_loss, total))
            epoch_main += main_loss * len(idx)
            epoch_aux += aux_loss * len(idx)
            epoch_total += total * len(idx)
            seen += len(idx)
        val_accuracy = val_auc = None
        if validation is not None:
            vids, vlen, vmeta, vlabels = validation
            with float_errors(TrainingError,
                              f"validation scores are not finite at epoch {epoch}"):
                vmain = model.predict_proba(matrix, vids, vlen, vmeta)
            vy = np.asarray(vlabels, dtype=np.float64)
            val_accuracy = float(np.mean((vmain >= 0.5) == (vy == 1.0)))
            if len(set(vy.tolist())) == 2:
                val_auc = auc(vmain, vy.astype(np.int8))
        trace.epochs.append(EpochRecord(epoch, epoch_main / seen, epoch_aux / seen,
                                        epoch_total / seen, val_accuracy, val_auc))
    return model, trace
