"""Tests for repro.attacks.mlp (the from-scratch MLP)."""

import numpy as np
import pytest

from repro.attacks import MLPClassifier, MLPConfig


def blob_dataset(n_per_class=60, n_classes=3, dim=8, spread=0.4, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 2.0, size=(n_classes, dim))
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(center + rng.normal(0, spread, size=(n_per_class, dim)))
        ys.extend([label] * n_per_class)
    return np.vstack(xs), np.asarray(ys)


class TestConstruction:
    def test_layer_shapes(self):
        clf = MLPClassifier(10, 4, MLPConfig(hidden_sizes=(16, 8)))
        shapes = [w.shape for w in clf.weights]
        assert shapes == [(10, 16), (16, 8), (8, 4)]

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            MLPClassifier(0, 3)
        with pytest.raises(ValueError):
            MLPClassifier(5, 1)


class TestForward:
    def test_log_proba_normalized(self):
        clf = MLPClassifier(6, 3)
        x = np.random.default_rng(0).normal(size=(10, 6))
        log_probs = clf.predict_log_proba(x)
        assert log_probs.shape == (10, 3)
        assert np.allclose(np.exp(log_probs).sum(axis=1), 1.0)

    def test_log_softmax_numerically_stable(self):
        clf = MLPClassifier(4, 2)
        clf.weights[-1] *= 1e4  # force extreme logits
        x = np.random.default_rng(0).normal(size=(5, 4))
        log_probs = clf.predict_log_proba(x)
        assert np.all(np.isfinite(log_probs))

    def test_predict_argmax_consistency(self):
        clf = MLPClassifier(6, 3)
        x = np.random.default_rng(1).normal(size=(20, 6))
        assert np.array_equal(clf.predict(x), clf.predict_log_proba(x).argmax(axis=1))


class TestTraining:
    def test_learns_separable_blobs(self):
        x, y = blob_dataset()
        clf = MLPClassifier(x.shape[1], 3, MLPConfig(max_epochs=40, seed=1))
        clf.fit(x, y)
        assert clf.score(x, y) > 0.95

    def test_generalizes_to_held_out(self):
        x, y = blob_dataset(n_per_class=140)
        rng = np.random.default_rng(7)
        order = rng.permutation(y.size)
        train, test = order[:300], order[300:]
        clf = MLPClassifier(x.shape[1], 3, MLPConfig(max_epochs=40, seed=1))
        clf.fit(x[train], y[train])
        assert clf.score(x[test], y[test]) > 0.9

    def test_chance_on_random_labels(self):
        """What happens against Maya GS: no signal, accuracy near chance."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 10))
        y = rng.integers(0, 3, size=300)
        x_test = rng.normal(size=(300, 10))
        y_test = rng.integers(0, 3, size=300)
        clf = MLPClassifier(10, 3, MLPConfig(max_epochs=20, seed=1))
        clf.fit(x, y)
        assert clf.score(x_test, y_test) < 0.5

    def test_early_stopping_restores_best(self):
        x, y = blob_dataset()
        x_val, y_val = blob_dataset(seed=9)
        clf = MLPClassifier(x.shape[1], 3, MLPConfig(max_epochs=30, patience=3, seed=1))
        clf.fit(x, y, x_val, y_val)
        best_val = max(h["val_acc"] for h in clf.history if "val_acc" in h)
        assert clf.score(x_val, y_val) == pytest.approx(best_val, abs=1e-9)

    def test_history_recorded(self):
        x, y = blob_dataset(n_per_class=20)
        clf = MLPClassifier(x.shape[1], 3, MLPConfig(max_epochs=5, patience=99, seed=1))
        clf.fit(x, y)
        assert len(clf.history) == 5
        assert all("train_acc" in h for h in clf.history)

    def test_mismatched_lengths_rejected(self):
        clf = MLPClassifier(4, 2)
        with pytest.raises(ValueError):
            clf.fit(np.zeros((10, 4)), np.zeros(9, dtype=int))

    def test_deterministic_given_seed(self):
        x, y = blob_dataset(n_per_class=30)
        a = MLPClassifier(x.shape[1], 3, MLPConfig(max_epochs=5, seed=7)).fit(x, y)
        b = MLPClassifier(x.shape[1], 3, MLPConfig(max_epochs=5, seed=7)).fit(x, y)
        assert all(np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))


class TestGradients:
    def test_backward_matches_numerical_gradient(self):
        """Finite-difference check of the NLL gradient."""
        rng = np.random.default_rng(3)
        clf = MLPClassifier(5, 3, MLPConfig(hidden_sizes=(6,), seed=0))
        x = rng.normal(size=(4, 5))
        y = np.array([0, 1, 2, 1])

        def loss():
            log_probs, _ = clf._forward(x)
            return -log_probs[np.arange(4), y].mean()

        log_probs, activations = clf._forward(x)
        grads_w, _ = clf._backward(activations, log_probs, y)

        eps = 1e-6
        for layer in range(len(clf.weights)):
            i, j = 1 % clf.weights[layer].shape[0], 0
            clf.weights[layer][i, j] += eps
            up = loss()
            clf.weights[layer][i, j] -= 2 * eps
            down = loss()
            clf.weights[layer][i, j] += eps
            numeric = (up - down) / (2 * eps)
            assert grads_w[layer][i, j] == pytest.approx(numeric, abs=1e-4)


def reference_adam_step(weights, biases, state, grads_w, grads_b, step, config):
    """The Adam step as one expression per array: the oracle of ``_adam_step``."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for layer, moments in enumerate(state):
        gw = grads_w[layer] + config.weight_decay * weights[layer]
        gb = grads_b[layer]
        moments["mw"] = beta1 * moments["mw"] + (1 - beta1) * gw
        moments["vw"] = beta2 * moments["vw"] + (1 - beta2) * gw**2
        moments["mb"] = beta1 * moments["mb"] + (1 - beta1) * gb
        moments["vb"] = beta2 * moments["vb"] + (1 - beta2) * gb**2
        corr1 = 1 - beta1**step
        corr2 = 1 - beta2**step
        weights[layer] -= config.learning_rate * (
            (moments["mw"] / corr1) / (np.sqrt(moments["vw"] / corr2) + eps)
        )
        biases[layer] -= config.learning_rate * (
            (moments["mb"] / corr1) / (np.sqrt(moments["vb"] / corr2) + eps)
        )


class TestAdamStep:
    def test_matches_the_expression_bit_for_bit(self):
        """The in-place step leaves the weights, biases and moments the
        one-expression step leaves, over several steps of real gradients."""
        x, y = blob_dataset(n_per_class=20, dim=12)
        config = MLPConfig(hidden_sizes=(16, 8), weight_decay=1e-3, seed=4)
        clf = MLPClassifier(x.shape[1], 3, config)
        weights = [w.copy() for w in clf.weights]
        biases = [b.copy() for b in clf.biases]
        state = [
            {"mw": np.zeros_like(w), "vw": np.zeros_like(w),
             "mb": np.zeros_like(b), "vb": np.zeros_like(b)}
            for w, b in zip(weights, biases)
        ]
        for step in range(1, 9):
            log_probs, activations = clf._forward(x)
            grads_w, grads_b = clf._backward(activations, log_probs, y)
            clf._adam_step(grads_w, grads_b, step)
            reference_adam_step(weights, biases, state, grads_w, grads_b, step, config)
            for layer, moments in enumerate(state):
                assert clf.weights[layer].tobytes() == weights[layer].tobytes()
                assert clf.biases[layer].tobytes() == biases[layer].tobytes()
                for name, value in moments.items():
                    assert clf._adam_state[layer][name].tobytes() == value.tobytes()
