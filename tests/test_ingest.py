"""Bid-log ingestion, cleaning-report accounting, and the canonical
dataset file format."""

import csv

import numpy as np
import pytest

from secondprice import (AuctionRecord, BidRow, ObservedDataset,
                         ValidationError, ValuationDistribution,
                         export_bid_log, export_dataset, ingest_bid_csv,
                         read_dataset, run_auction)

COLUMNS = ["auctionid", "bid", "bidtime", "bidder", "bidderrate", "openbid",
           "price"]


def write_log(path, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows(rows)


class TestBidRow:
    def test_valid(self):
        BidRow("1", 10.0, 1.0, "alice", 3, 0.5, 12.0)

    def test_invalid_collects_violations(self):
        with pytest.raises(ValidationError) as err:
            BidRow("1", -1.0, -2.0, "alice", 3, -0.5, 12.0)
        msg = str(err.value)
        assert "bid" in msg and "bidtime" in msg and "openbid" in msg

    @pytest.mark.parametrize("field", ["bid", "bidtime", "openbid", "price"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(auctionid="1", bid=10.0, bidtime=1.0, bidder="alice",
                      bidderrate=3, openbid=0.5, price=12.0)
        kwargs[field] = value
        with pytest.raises(ValidationError) as err:
            BidRow(**kwargs)
        assert f"{field} {value} is not finite" in str(err.value)


class TestIngest:
    def test_round_trip_from_simulated_traces(self, tmp_path):
        dist = ValuationDistribution.uniform(1.0, 20.0)
        rng = np.random.default_rng(42)
        traces = []
        records = []
        for k in range(5):
            reserve = 0.5 + 0.1 * k
            rec, (times, bids) = run_auction(1.0, 10.0, reserve, dist, rng,
                                             return_trace=True)
            traces.append((reserve, times, bids))
            records.append(rec)
        path = tmp_path / "log.csv"
        export_bid_log(path, traces, duration_days=10.0)
        dataset, report = ingest_bid_csv(path, duration_days=10.0,
                                         noise_seed=0, noise_scale=0.0)
        assert dataset.auctions == tuple(records)
        assert report.n_auctions == 5
        assert report.multi_bid_bidders == 0
        assert report.removed_rows == 0
        assert not report.reserve_jitter
        # arrivals below the then-standing price are legitimately absent
        # from the standing-price path, so flagged auctions only ever
        # point at streams containing such bids
        for aid in report.replay_mismatches:
            reserve, _, bids = traces[int(aid) - 1]
            rec = records[int(aid) - 1]
            assert sum(1 for b in bids if b > reserve) - 1 > rec.m

    def test_dedup_keeps_latest_bid(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log(path, [
            ["1", 5.0, 1.0, "alice", 0, 1.0, 7.0],
            ["1", 9.0, 3.0, "alice", 0, 1.0, 7.0],
            ["1", 7.0, 2.0, "bob", 0, 1.0, 7.0],
        ])
        dataset, report = ingest_bid_csv(path, duration_days=7.0,
                                         noise_seed=0, noise_scale=0.0)
        assert report.multi_bid_bidders == 1
        assert report.removed_rows == 1
        # retained bids: bob 7.0 at t=2, alice 9.0 at t=3
        a = dataset.auctions[0]
        assert a.m == 1
        assert a.final_price == 7.0
        assert a.sold

    def test_single_bid_auction_sells_at_reserve(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log(path, [["1", 5.0, 1.0, "alice", 0, 1.0, 1.0]])
        dataset, _ = ingest_bid_csv(path, duration_days=7.0, noise_seed=0,
                                    noise_scale=0.0)
        a = dataset.auctions[0]
        assert a.sold and a.m == 0 and a.final_price == 1.0

    def test_replay_mismatch_flagged(self, tmp_path):
        # three bids above the opening bid, but the middle one arrives
        # below the then-standing price and cannot move it
        path = tmp_path / "log.csv"
        write_log(path, [
            ["1", 9.0, 1.0, "a", 0, 1.0, 8.0],
            ["1", 8.0, 2.0, "b", 0, 1.0, 8.0],
            ["1", 2.0, 3.0, "c", 0, 1.0, 8.0],
        ])
        dataset, report = ingest_bid_csv(path, duration_days=7.0,
                                         noise_seed=0, noise_scale=0.0)
        assert dataset.auctions[0].m == 1
        assert report.replay_mismatches == ("1",)

    def test_duplicate_row_rejected_with_location(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log(path, [
            ["1", 5.0, 1.0, "alice", 0, 1.0, 7.0],
            ["1", 5.5, 1.0, "alice", 0, 1.0, 7.0],
        ])
        with pytest.raises(ValidationError) as err:
            ingest_bid_csv(path, duration_days=7.0, noise_seed=0)
        assert "row 3" in str(err.value)

    def test_all_bad_rows_reported(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log(path, [
            ["1", -5.0, 1.0, "alice", 0, 1.0, 7.0],
            ["1", 5.0, 99.0, "bob", 0, 1.0, 7.0],
        ])
        with pytest.raises(ValidationError) as err:
            ingest_bid_csv(path, duration_days=7.0, noise_seed=0)
        msg = str(err.value)
        assert "row 2" in msg and "row 3" in msg

    def test_non_finite_rows_reported(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log(path, [
            ["1", "nan", 1.0, "a", 0, 1.0, 8.0],
            ["1", "inf", 2.0, "b", 0, 1.0, 8.0],
            ["1", 5.0, "nan", "c", 0, 1.0, 8.0],
            ["1", 5.0, 3.0, "d", 0, "inf", 8.0],
            ["1", 6.0, 4.0, "e", 0, 1.0, 8.0],
        ])
        with pytest.raises(ValidationError) as err:
            ingest_bid_csv(path, duration_days=7.0, noise_seed=0)
        msg = str(err.value)
        assert all(f"row {n}" in msg for n in (2, 3, 4, 5))
        assert "row 6" not in msg

    def test_non_finite_price_reported(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log(path, [
            ["1", 5.0, 1.0, "a", 0, 1.0, 8.0],
            ["1", 6.0, 2.0, "b", 0, 1.0, "nan"],
            ["1", 7.0, 3.0, "c", 0, 1.0, "inf"],
        ])
        with pytest.raises(ValidationError) as err:
            ingest_bid_csv(path, duration_days=7.0, noise_seed=0)
        msg = str(err.value)
        assert "row 3" in msg and "row 4" in msg and "row 2" not in msg
        assert "price nan is not finite" in msg

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        with path.open("w", newline="") as fh:
            fh.write("auctionid,bid\n1,5.0\n")
        with pytest.raises(ValidationError) as err:
            ingest_bid_csv(path, duration_days=7.0, noise_seed=0)
        assert "bidtime" in str(err.value)

    def test_reserve_ties_jittered(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log(path, [
            ["1", 5.0, 1.0, "a", 0, 1.0, 1.0],
            ["2", 6.0, 1.0, "b", 0, 1.0, 1.0],
        ])
        dataset, report = ingest_bid_csv(path, duration_days=7.0,
                                         noise_seed=0, noise_scale=0.0)
        assert report.reserve_jitter
        reserves = {a.reserve for a in dataset.auctions}
        assert len(reserves) == 2

    def test_report_lines(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log(path, [["1", 5.0, 1.0, "alice", 0, 1.0, 1.0]])
        _, report = ingest_bid_csv(path, duration_days=7.0, noise_seed=0,
                                   noise_scale=0.0)
        lines = report.lines()
        assert any("auctions: 1" in line for line in lines)
        assert any("bid rows: 1" in line for line in lines)


class TestCanonicalFormat:
    def test_round_trip_identity(self, tmp_path, uniform_dataset):
        path = tmp_path / "dataset.csv"
        export_dataset(uniform_dataset, path, header_lines=["source=test"])
        back = read_dataset(path)
        assert back == uniform_dataset

    def test_round_trip_of_numpy_scalar_fields(self, tmp_path):
        # a record keeps the number type it was built with; the file must
        # still hold plain float literals
        ds = ObservedDataset((
            AuctionRecord(np.float64(2.0), np.float64(10.0), ((3.0, 1.0),), True),
            AuctionRecord(np.float64(0.5), np.float64(10.0), (), False)),
            10.0)
        path = tmp_path / "dataset.csv"
        export_dataset(ds, path)
        assert "np.float64" not in path.read_text()
        assert read_dataset(path) == ds

    GOOD = ("kind,auction,reserve_or_price,duration_or_wait,sold\n"
            "auction,0,1.0,10.0,1\n"
            "jump,0,2.0,1.0,\n"
            "auction,1,1.5,10.0,0\n")

    def test_reads_rows_in_order(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text(self.GOOD)
        ds = read_dataset(path)
        assert ds.K == 2
        assert ds.auctions[0].jumps == ((2.0, 1.0),)
        assert not ds.auctions[1].sold

    @pytest.mark.parametrize("row", [
        "jump,5,3.0,1.0,",        # auction index never declared
        "jump,-1,3.0,1.0,",       # negative index
        "jump,0,3.0,1.0,",        # does not follow its own auction row
        "jump,1,3.0",             # short row
        "jump,x,3.0,1.0,",        # non-integer index
        "jump,1,nan,1.0,",
        "jump,1,3.0,inf,",
        "auction,2,inf,10.0,1",
        "auction,7,2.0,10.0,1",   # out of order
        "bid,1,3.0,1.0,",         # unknown kind
    ])
    def test_malformed_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "dataset.csv"
        path.write_text(self.GOOD + row + "\n")
        with pytest.raises(ValidationError) as err:
            read_dataset(path)
        assert "line 5" in str(err.value)

    @pytest.mark.parametrize("flag", ["7", "2", "-1", "", "true", "1.0"])
    def test_sold_must_be_zero_or_one(self, tmp_path, flag):
        path = tmp_path / "dataset.csv"
        path.write_text(self.GOOD + f"auction,2,2.0,10.0,{flag}\n")
        with pytest.raises(ValidationError) as err:
            read_dataset(path)
        msg = str(err.value)
        assert "line 5" in msg and "sold must be 0 or 1" in msg

    def test_invalid_auction_names_its_line(self, tmp_path):
        # a jump below the reserve of an unsold auction
        path = tmp_path / "dataset.csv"
        path.write_text(self.GOOD + "jump,1,0.5,1.0,\n")
        with pytest.raises(ValidationError) as err:
            read_dataset(path)
        msg = str(err.value)
        assert "line 4" in msg and "reserve" in msg and "unsold" in msg

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            read_dataset(path)
