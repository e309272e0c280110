"""Non-parametric estimation of consumer valuation distributions from
second-price auction standing-price sequences.

A public name is imported from its module on first access (PEP 562), so
``import secondprice`` loads no submodule and a CLI command loads only
the modules it runs."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "arrival": ("conditional_mean_jumps", "estimate_lambda", "g_eval", "g_inverse"),
    "bands": ("ConfidenceBand", "envelope_curves", "estimate_median_bias", "hulc_band",
              "hulc_batches", "write_band_csv"),
    "errors": ("NumericalError", "SecondPriceError", "TieError", "ValidationError"),
    "ingest": ("BidRow", "CleaningReport", "export_bid_log", "export_dataset",
               "ingest_bid_csv", "read_dataset"),
    "initial": ("LowReserveSelection", "SpliceAnchors", "combine_initial",
                "compute_splice_anchors", "estimate_f_fp", "g_lambda_cdf", "initial_theta",
                "select_low_reserve"),
    "metrics": ("StudyReport", "TrainTestReport", "ks_distance", "replicate_table",
                "train_test_eval", "tv_distance", "write_report_csv"),
    "mle": ("AscentResult", "LikelihoodContext", "coordinate_ascent", "log_lik",
            "projected_newton", "reconstruct_cdf"),
    "model": ("AuctionRecord", "MonotoneCurve", "ObservedDataset", "PooledData", "ThetaVector",
              "break_ties", "cdf_to_theta", "has_ties", "pool"),
    "pipeline": ("FitResult", "clip_theta0", "default_epsilon", "fit", "fit_initial"),
    "simulate": ("SimConfig", "ValuationDistribution", "replay_bids", "run_auction",
                 "run_study"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:    # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value     # cached: later lookups skip this hook, a setattr replaces it
    return value


def __dir__():
    return sorted({*globals(), *__all__})
