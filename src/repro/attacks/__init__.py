"""Attacker substrate: ML-based power side-channel attacks (Table IV).

Each name loads its own submodule on first use (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "covert": ("CovertChannelResult", "CovertReceiver", "CovertSender", "random_bits"),
    "features": ("FeatureConfig", "TraceFeaturizer", "segment_trace"),
    "metrics": ("ConfusionResult", "confusion_matrix"),
    "mlp": ("MLPClassifier", "MLPConfig"),
    "template": ("GaussianTemplateClassifier",),
    "pipeline": (
        "AttackOutcome",
        "AttackScenario",
        "run_attack",
        "sample_runs",
        "simulate_runs",
        "train_and_evaluate",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
