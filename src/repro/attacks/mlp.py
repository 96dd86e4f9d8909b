"""From-scratch multilayer perceptron (the attacker's classifier).

The paper's attacker trains "a three-layer multilayer perceptron (MLP)
neural network [using] ReLU units for its hidden layers and the output layer
uses Logsoftmax" (Section VI-A).  This module implements exactly that in
numpy: ReLU hidden layers, log-softmax output, negative-log-likelihood loss,
minibatch Adam, and early stopping on validation accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.rng import spawn

__all__ = ["MLPConfig", "MLPClassifier"]


@dataclass(frozen=True)
class MLPConfig:
    """Hyperparameters of the attacker's network."""

    hidden_sizes: tuple[int, ...] = (128, 64)
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 60
    #: Early-stopping patience, in epochs without validation improvement.
    patience: int = 8
    weight_decay: float = 1e-5
    seed: int = 0


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


#: Adam's moment decay rates and denominator guard.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def _adam_update(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    scratch: "tuple[np.ndarray, np.ndarray]",
    corr1: float,
    corr2: float,
    learning_rate: float,
    weight_decay: "float | None" = None,
) -> None:
    """One Adam update of ``param`` and its moments ``m`` and ``v``, in place.

    The operations of ``g = grad + weight_decay * param`` (``g = grad``
    without decay), ``m = beta1 * m + (1 - beta1) * g``, ``v = beta2 * v
    + (1 - beta2) * g**2`` and ``param -= learning_rate * ((m / corr1) /
    (sqrt(v / corr2) + eps))``, in that order, written into the two
    ``scratch`` arrays shaped like ``param`` rather than into temporaries.
    """
    first, second = scratch
    g = grad
    if weight_decay is not None:
        np.multiply(weight_decay, param, out=first)
        g = np.add(grad, first, out=first)
    np.multiply(1 - _BETA1, g, out=second)
    np.multiply(_BETA1, m, out=m)
    m += second
    np.square(g, out=first)
    first *= 1 - _BETA2
    np.multiply(_BETA2, v, out=v)
    v += first
    np.divide(v, corr2, out=first)
    np.sqrt(first, out=first)
    first += _EPS
    np.divide(m, corr1, out=second)
    second /= first
    second *= learning_rate
    param -= second


class MLPClassifier:
    """ReLU MLP with log-softmax output, trained with Adam."""

    def __init__(self, n_features: int, n_classes: int, config: MLPConfig | None = None) -> None:
        if n_features < 1 or n_classes < 2:
            raise ValueError("need at least one feature and two classes")
        self.config = config or MLPConfig()
        self.n_features = n_features
        self.n_classes = n_classes
        rng = spawn(self.config.seed, "mlp-init")

        sizes = (n_features, *self.config.hidden_sizes, n_classes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            # He initialization, appropriate for ReLU layers.
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self._adam_state: list[dict] | None = None
        self.history: list[dict] = []

    # -- forward / backward ---------------------------------------------

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Return log-probabilities and per-layer activations."""
        activations = [x]
        h = x
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            if layer < len(self.weights) - 1:
                h = np.maximum(z, 0.0)
            else:
                h = z
            activations.append(h)
        return _log_softmax(activations[-1]), activations

    def _backward(
        self, activations: list[np.ndarray], log_probs: np.ndarray, labels: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        batch = labels.size
        probs = np.exp(log_probs)
        delta = probs
        delta[np.arange(batch), labels] -= 1.0
        delta /= batch

        grads_w: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        grads_b: list[np.ndarray] = [np.empty(0)] * len(self.biases)
        for layer in reversed(range(len(self.weights))):
            grads_w[layer] = activations[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (activations[layer] > 0.0)
        return grads_w, grads_b

    def _adam_step(
        self, grads_w: list[np.ndarray], grads_b: list[np.ndarray], step: int
    ) -> None:
        cfg = self.config
        if self._adam_state is None:
            self._adam_state = [
                {
                    "mw": np.zeros_like(w), "vw": np.zeros_like(w),
                    "mb": np.zeros_like(b), "vb": np.zeros_like(b),
                    "scratch_w": (np.empty_like(w), np.empty_like(w)),
                    "scratch_b": (np.empty_like(b), np.empty_like(b)),
                }
                for w, b in zip(self.weights, self.biases)
            ]
        corr1 = 1 - _BETA1**step
        corr2 = 1 - _BETA2**step
        for layer, state in enumerate(self._adam_state):
            _adam_update(
                self.weights[layer], grads_w[layer], state["mw"], state["vw"],
                state["scratch_w"], corr1, corr2, cfg.learning_rate, cfg.weight_decay,
            )
            _adam_update(
                self.biases[layer], grads_b[layer], state["mb"], state["vb"],
                state["scratch_b"], corr1, corr2, cfg.learning_rate,
            )

    # -- public API ------------------------------------------------------

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
    ) -> "MLPClassifier":
        """Train with minibatch Adam and validation early stopping."""
        x_train = np.asarray(x_train, dtype=float)
        y_train = np.asarray(y_train, dtype=int)
        if x_train.shape[0] != y_train.size:
            raise ValueError("x_train and y_train length mismatch")
        cfg = self.config
        rng = spawn(cfg.seed, "mlp-train")

        best_metric = -np.inf
        best_params: tuple[list[np.ndarray], list[np.ndarray]] | None = None
        stall = 0
        step = 0
        for epoch in range(cfg.max_epochs):
            order = rng.permutation(x_train.shape[0])
            for start in range(0, order.size, cfg.batch_size):
                batch_idx = order[start:start + cfg.batch_size]
                log_probs, activations = self._forward(x_train[batch_idx])
                grads_w, grads_b = self._backward(
                    activations, log_probs, y_train[batch_idx]
                )
                step += 1
                self._adam_step(grads_w, grads_b, step)

            record = {"epoch": epoch, "train_acc": self.score(x_train, y_train)}
            if x_val is not None and y_val is not None and len(y_val):
                metric = self.score(x_val, y_val)
                record["val_acc"] = metric
            else:
                metric = record["train_acc"]
            self.history.append(record)

            if metric > best_metric + 1e-6:
                best_metric = metric
                best_params = (
                    [w.copy() for w in self.weights],
                    [b.copy() for b in self.biases],
                )
                stall = 0
            else:
                stall += 1
                if stall >= cfg.patience:
                    break

        if best_params is not None:
            self.weights, self.biases = best_params
        return self

    def predict_log_proba(self, x: np.ndarray) -> np.ndarray:
        log_probs, _ = self._forward(np.asarray(x, dtype=float))
        return log_probs

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_log_proba(x).argmax(axis=1)

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(x) == np.asarray(y, dtype=int)))
