#!/usr/bin/env python3
"""Analyze an observed bid-log CSV end to end.

Ingests and cleans the log, keeps the auctions whose opening bid is
below a cutoff, fits the initial estimate and the constrained maximizer,
reports their disagreement, and scores out-of-sample agreement with
repeated random train/test splits.
"""

import argparse

import numpy as np

from secondprice import (fit, ingest_bid_csv, ks_distance, train_test_eval,
                         tv_distance, write_band_csv)
from secondprice.bands import hulc_band


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", required=True, help="bid-log CSV")
    parser.add_argument("--duration", type=float, default=7.0,
                        help="auction length in days")
    parser.add_argument("--max-reserve", type=float, default=1.0,
                        help="keep auctions with opening bid below this")
    parser.add_argument("--splits", type=int, default=1000)
    parser.add_argument("--noise-seed", type=int, default=0)
    parser.add_argument("--band-out", default=None,
                        help="optional confidence-band CSV")
    args = parser.parse_args()

    dataset, report = ingest_bid_csv(args.data, duration_days=args.duration,
                                     noise_seed=args.noise_seed)
    for line in report.lines():
        print(line)
    subset = dataset.take(np.flatnonzero(dataset.reserve < args.max_reserve))
    print(f"kept {subset.K} of {dataset.K} auctions with opening bid "
          f"below {args.max_reserve}")

    res = fit(subset)
    print(f"arrival rate estimate: {res.lambda_hat:.4f} per day")
    print(f"initial vs constrained fit: "
          f"TV {tv_distance(res.f_init, res.cdf):.4f}, "
          f"KS {ks_distance(res.f_init, res.cdf):.4f}")

    for ratio, name in ((0.5, "1:1"), (2.0 / 3.0, "2:1")):
        tt = train_test_eval(subset, ratio, args.splits, rng=0)
        print(f"{name} split ({tt.replications} replications): avg TV "
              f"init-vs-test {tt.avg_tv_init:.4f}, "
              f"mle-vs-test {tt.avg_tv_mle:.4f}")

    if args.band_out:
        band = hulc_band(subset, "mle", alpha=0.10, delta=0.0, rng=0)
        write_band_csv(band, res.cdf, args.band_out,
                       header_lines=["alpha=0.10"])
        print(f"wrote {args.band_out}")


if __name__ == "__main__":
    main()
