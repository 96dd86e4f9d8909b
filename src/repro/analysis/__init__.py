"""Signal-analysis substrate: change points, DTW, spectra, summaries.

Each name loads its own submodule on first use (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "changepoint": ("changepoint_times", "gaussian_cost", "pelt"),
    "dtw": ("dtw_distance", "dtw_normalized"),
    "leakage": ("leakage_per_feature", "mutual_information_bits"),
    "spectrum": ("amplitude_spectrum", "spectral_energy_spread", "spectral_peaks"),
    "summary": ("BoxStats", "average_traces", "box_stats", "distribution_overlap"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
