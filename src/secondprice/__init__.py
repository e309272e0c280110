"""Non-parametric estimation of consumer valuation distributions from
second-price auction standing-price sequences."""

from .arrival import (conditional_mean_jumps, estimate_lambda, g_eval,
                      g_inverse)
from .bands import (ConfidenceBand, MedianBiasEstimate, estimate_median_bias,
                    hulc_band, hulc_batches, write_band_csv)
from .errors import (NumericalError, SecondPriceError, TieError,
                     ValidationError)
from .ingest import (BidRow, CleaningReport, export_bid_log, export_dataset,
                     ingest_bid_csv, read_dataset)
from .initial import (LowReserveSelection, SpliceAnchors, combine_initial,
                      compute_splice_anchors, estimate_f_fp, g_lambda_cdf,
                      initial_theta, select_low_reserve)
from .metrics import (StudyReport, TrainTestReport, ks_distance,
                      replicate_table, train_test_eval, tv_distance,
                      write_report_csv)
from .mle import (AscentResult, LikelihoodContext, coordinate_ascent, log_lik,
                  projected_newton, reconstruct_cdf)
from .model import (AuctionRecord, MonotoneCurve, ObservedDataset, PooledData,
                    ThetaVector, break_ties, cdf_to_theta, has_ties,
                    interpolate, pool, theta_to_cdf)
from .pipeline import FitResult, clip_theta0, default_epsilon, fit, fit_initial
from .simulate import (SimConfig, ValuationDistribution, replay_bids,
                       run_auction, run_study)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
