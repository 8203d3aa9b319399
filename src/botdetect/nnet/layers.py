"""Small functional building blocks shared by the nets in this package."""

from __future__ import annotations

import numpy as np

# Scores are clamped into [CLAMP, 1 - CLAMP] before the log in cross-entropy.
CLAMP = 1e-7


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function in tanh form: exact at 0, symmetric, never overflows."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x: (B, in); w: (out, in); b: (out,) -> (B, out)."""
    return x @ w.T + b


def affine_backward(dout, x, w):
    """Gradients of an affine layer: returns (dx, dw, db)."""
    return dout @ w, dout.T @ x, dout.sum(axis=0)


def dense_forward(params: dict, names, x: np.ndarray):
    """Affine layers, each named by its (W key, b key), with ReLU after all but
    the last: (output, cache), the cache holding each layer's (input,
    pre-activation)."""
    cache = []
    for i, (w, b) in enumerate(names):
        z = affine(x, params[w], params[b])
        cache.append((x, z))
        x = relu(z) if i < len(names) - 1 else z
    return x, cache


def dense_backward(params: dict, names, cache, dout: np.ndarray):
    """Gradients of `dense_forward` given d(loss)/d(output): returns the
    gradient at the stack's input and the parameter gradients, keyed by the
    layers' own names."""
    grads = {}
    for i in reversed(range(len(names))):
        (w, b), (x, z) = names[i], cache[i]
        if i < len(names) - 1:
            dout = dout * (z > 0)
        dout, grads[w], grads[b] = affine_backward(dout, x, params[w])
    return dout, grads


def bce(scores: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy with the documented clamp."""
    p = np.clip(scores, CLAMP, 1.0 - CLAMP)
    return float(np.mean(-(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))))


def bce_grad_wrt_logit(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d(mean BCE)/d(logit); zero where the clamp is active."""
    active = (scores > CLAMP) & (scores < 1.0 - CLAMP)
    grad = np.where(active, scores - targets, 0.0)
    return grad / scores.shape[0]


class Adam:
    """Adam optimizer over a dict of named parameter arrays, updated in place.

    The constructor rebinds each ``params[k]`` to a view, of the same shape
    and bytes, into one flat float64 vector, so a step is one copy of the
    gradients and 14 in-place whole-vector operations rather than about a
    dozen per tensor. They run in the per-tensor update's order, so every
    parameter gets the same bits; a write through ``params[k]`` is a write
    into the vector the next step updates.
    """

    def __init__(self, params: dict[str, np.ndarray], lr=1e-3, beta1=0.9,
                 beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._flat = np.concatenate(list(params.values()), axis=None, dtype=np.float64)
        start = 0
        for key, value in params.items():
            params[key] = self._flat[start:start + value.size].reshape(value.shape)
            start += value.size
        # The moments, the gradients and two scratch vectors.
        self._m, self._v, self._g, self._s, self._r = np.zeros((5, len(self._flat)))

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        g, s, r, m, v = self._g, self._s, self._r, self._m, self._v
        np.concatenate([grads[key] for key in self.params], axis=None, out=g)
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=s)
        m += s
        v *= self.beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - self.beta2
        v += s
        np.divide(m, 1.0 - self.beta1**self.t, out=s)
        s *= self.lr
        np.divide(v, 1.0 - self.beta2**self.t, out=r)
        np.sqrt(r, out=r)
        r += self.eps
        s /= r
        self._flat -= s
