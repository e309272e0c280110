"""Bid-log ingestion, cleaning-report accounting, and the canonical
dataset file format."""

import csv
import warnings

import numpy as np
import pytest
from helpers import naive_jittered_reserves

from secondprice import (AuctionRecord, BidRow, CleaningReport, ObservedDataset,
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

    @pytest.mark.parametrize("field", ["auctionid", "bidder"])
    @pytest.mark.parametrize("value", ["", " ", "\t"])
    def test_empty_id_rejected(self, field, value):
        kwargs = dict(auctionid="1", bid=10.0, bidtime=1.0, bidder="alice",
                      bidderrate=3, openbid=0.5, price=12.0)
        kwargs[field] = value
        with pytest.raises(ValidationError) as err:
            BidRow(**kwargs)
        assert err.value.violations == [f"{field} is empty"]


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

    def test_numeric_auction_ids_sort_first_by_value(self, tmp_path):
        # each auction's opening bid tells its id; "10" sorts after "9.5"
        # as a number, and text ids follow in text order
        path = tmp_path / "log.csv"
        write_log(path, [[aid, 5.0, 1.0, "alice", 0, openbid, openbid]
                         for aid, openbid in (("b", 0.6), ("10", 0.4), ("a", 0.5),
                                              ("9.5", 0.3), ("2", 0.2))])
        dataset, _ = ingest_bid_csv(path, duration_days=7.0, noise_seed=0,
                                    noise_scale=0.0)
        assert dataset.reserve.tolist() == [0.2, 0.3, 0.4, 0.5, 0.6]

    def test_tie_at_zero_noise_draws_from_the_seeded_generator(self, tmp_path):
        # no bid noise, so the generator is first drawn from by the reserve
        # jitter, and it is seeded from noise_seed as at any scale
        path = tmp_path / "log.csv"
        write_log(path, [["1", 5.0, 1.0, "alice", 0, 1.0, 1.0],
                         ["2", 6.0, 1.0, "bob", 0, 1.0, 1.0]])
        dataset, report = ingest_bid_csv(path, duration_days=7.0, noise_seed=3,
                                         noise_scale=0.0)
        # each sells at its reserve 1.0 with no jump
        tied = [AuctionRecord(1.0, 7.0, (), True)] * 2
        rng = np.random.default_rng(np.random.SeedSequence(3))
        assert report.reserve_jitter
        assert dataset.reserve.tolist() == naive_jittered_reserves(tied, rng)

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
            ["1", 6.0],
            ["1", 5.0, 2.0, "carol", "inf", 1.0, 7.0],
            ["1", 5.0, 3.0, "dave", "1e400", 1.0, 7.0],
            ["1", 5.0, 1.0, "erin", 0, 0.5, 8.0, "junk", "more"],
        ])
        with pytest.raises(ValidationError) as err:
            ingest_bid_csv(path, duration_days=7.0, noise_seed=0)
        msg = str(err.value)
        assert all(f"row {n}" in msg for n in (2, 3, 4, 5, 6, 7))
        assert "row 4: no value for bidtime, bidder, bidderrate, openbid, price" in msg
        assert "row 7: 2 field(s) beyond the 7-column header" in msg

    def test_empty_ids_are_named_by_their_rows(self, tmp_path):
        # blank bidders would collapse into one bidder, and a blank
        # auction id would name an auction ""
        path = tmp_path / "log.csv"
        write_log(path, [
            ["1", 5.0, 1.0, "", 0, 0.5, 8.0],
            ["1", 6.0, 2.0, " ", 0, 0.5, 8.0],
            ["1", 7.0, 3.0, "carol", 0, 0.5, 8.0],
            ["", 7.0, 3.0, "dave", 0, 0.5, 8.0],
        ])
        with pytest.raises(ValidationError) as err:
            ingest_bid_csv(path, duration_days=7.0, noise_seed=0)
        assert err.value.violations == ["row 2: bidder is empty", "row 3: bidder is empty",
                                         "row 5: auctionid is empty"]

    def test_rows_after_a_blank_line_keep_their_line_numbers(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(",".join(COLUMNS) + "\n1,5.0,1.0,alice,0,0.5,8.0\n\n"
                        "1,-6.0,2.0,bob,0,0.5,8.0\n\n\n1,7.0,99.0,carol,0,0.5,8.0\n")
        with pytest.raises(ValidationError) as err:
            ingest_bid_csv(path, duration_days=7.0, noise_seed=0)
        assert err.value.violations == ["row 4: bid -6.0 must be positive",
                                        "row 7: bidtime 99.0 exceeds duration 7.0"]

    @pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf")])
    def test_bad_noise_scale_rejected(self, tmp_path, scale):
        path = tmp_path / "log.csv"
        write_log(path, [["1", 5.0, 1.0, "alice", 0, 0.5, 8.0]])
        with pytest.raises(ValidationError, match="noise_scale"):
            ingest_bid_csv(path, duration_days=7.0, noise_seed=0,
                           noise_scale=scale)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_noise_seed_rejected_before_the_log_is_read(self, tmp_path, seed):
        with pytest.raises(ValidationError, match="noise_seed must be an integer >= 0"):
            ingest_bid_csv(tmp_path / "absent.csv", duration_days=7.0, noise_seed=seed)

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_duration_is_one_violation(self, tmp_path, duration):
        path = tmp_path / "log.csv"
        write_log(path, [["1", 5.0, 1.0, "alice", 0, 0.5, 8.0],
                         ["2", 6.0, 2.0, "bob", 0, 0.5, 8.0]])
        with pytest.raises(ValidationError, match="duration_days") as err:
            ingest_bid_csv(path, duration_days=duration, noise_seed=0)
        assert len(err.value.violations) == 1

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

    def test_every_report_field(self, tmp_path):
        # alice bids in both auctions, twice in auction 1; each auction has
        # one pair of kept bids closer than the noise scale (5.0 and 5.004,
        # 2.0 and 2.004), and 5.006 is close to those only across auctions;
        # in auction 2 the late low bids cannot move the standing price
        path = tmp_path / "log.csv"
        write_log(path, [
            ["1", 3.0, 1.0, "alice", 0, 1.0, 5.004],
            ["2", 4.0, 1.0, "alice", 0, 1.5, 4.0],
            ["1", 5.0, 2.0, "bob", 0, 1.0, 5.004],
            ["2", 5.006, 2.0, "dave", 0, 1.5, 4.0],
            ["1", 5.004, 3.0, "carol", 0, 1.0, 5.004],
            ["2", 2.0, 3.0, "erin", 0, 1.5, 4.0],
            ["1", 9.0, 4.0, "alice", 0, 1.0, 5.004],
            ["2", 2.004, 4.0, "grace", 0, 1.5, 4.0],
        ])
        dataset, report = ingest_bid_csv(path, duration_days=7.0, noise_seed=3,
                                         noise_scale=0.01)
        assert dataset.m.tolist() == [2, 1]
        assert report == CleaningReport(n_auctions=2, n_rows=8, n_bidders=6,
                                        multi_bid_bidders=1, removed_rows=1,
                                        close_pairs=2, replay_mismatches=("2",),
                                        reserve_jitter=False)

    def test_kept_rows_with_equal_bidtimes_follow_first_rows(self, tmp_path):
        # b's first row comes before a's, so b's kept bid (12 at t=5)
        # replays before a's (6 at t=5): one jump, to c's 10
        path = tmp_path / "log.csv"
        write_log(path, [
            ["1", 10.0, 1.0, "c", 0, 1.0, 10.0],
            ["1", 2.0, 2.0, "b", 0, 1.0, 10.0],
            ["1", 6.0, 5.0, "a", 0, 1.0, 10.0],
            ["1", 12.0, 5.0, "b", 0, 1.0, 10.0],
        ])
        dataset, report = ingest_bid_csv(path, duration_days=7.0, noise_seed=0,
                                         noise_scale=0.0)
        assert dataset.auctions[0].jumps == ((10.0, 5.0),)
        assert (report.n_rows, report.n_bidders, report.multi_bid_bidders,
                report.removed_rows, report.replay_mismatches) == (4, 3, 1, 1, ("1",))

    def test_refused_auction_is_named_by_its_id(self, tmp_path):
        # x9's kept bids 6.0 and 8.0 share a bidtime and both move the
        # standing price, so its second jump has a zero wait
        path = tmp_path / "log.csv"
        write_log(path, [["3", 5.0, 1.0, "a", 0, 1.0, 6.0],
                         ["3", 6.0, 2.0, "b", 0, 1.0, 6.0],
                         ["x9", 5.0, 1.0, "a", 0, 1.0, 8.0],
                         ["x9", 6.0, 2.0, "b", 0, 1.0, 8.0],
                         ["x9", 8.0, 2.0, "c", 0, 1.0, 8.0]])
        with pytest.raises(ValidationError) as err:
            ingest_bid_csv(path, duration_days=7.0, noise_seed=0, noise_scale=0.0)
        assert err.value.violations == ["auction x9: non-positive waiting time"]

    def test_nan_auction_id_sorts_as_text(self, tmp_path):
        # "nan" reads as a float that no number compares with; its rows
        # stay one auction, ordered among the text ids
        path = tmp_path / "log.csv"
        write_log(path, [[aid, bid, t, bidder, 0, openbid, openbid]
                         for aid, bid, t, bidder, openbid in (
                             ("2", 5.0, 1.0, "a", 0.2), ("nan", 5.0, 1.0, "b", 0.5),
                             ("1", 5.0, 1.0, "c", 0.1), ("nan", 6.0, 2.0, "d", 0.5),
                             ("x", 5.0, 1.0, "e", 0.6), ("inf", 5.0, 1.0, "f", 0.4),
                             ("nan", 7.0, 3.0, "g", 0.5))])
        dataset, _ = ingest_bid_csv(path, duration_days=7.0, noise_seed=0,
                                    noise_scale=0.0)
        assert dataset.reserve.tolist() == [0.1, 0.2, 0.4, 0.5, 0.6]
        assert dataset.m.tolist() == [0, 0, 0, 2, 0]

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

    def test_crlf_file_reads_like_lf(self, tmp_path, uniform_dataset):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        export_dataset(uniform_dataset, lf, header_lines=["source=test"])
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert read_dataset(crlf) == read_dataset(lf) == uniform_dataset

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

    def test_comment_lines_are_never_parsed(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text('# out=a,"b.csv\n' + self.GOOD + '# "\n')
        assert read_dataset(path).K == 2

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
        # an auction whose duration differs from the first one's
        path.write_text(self.GOOD.replace("auction,1,1.5,10.0,0", "auction,1,1.5,12.0,0"))
        with pytest.raises(ValidationError) as err:
            read_dataset(path)
        msg = str(err.value)
        assert str(path) in msg and "line 4" in msg and "12.0" in msg

    @pytest.mark.parametrize("header", [
        "kind",
        "kind,auction,reserve_or_price,duration_or_wait",
        "kind,auction,reserve_or_price,duration_or_wait,sold,",
        "kind ,auction,reserve_or_price,duration_or_wait,sold",
        "auction,0,1.0,10.0,1",
    ])
    def test_header_must_be_the_export_header(self, tmp_path, header):
        path = tmp_path / "dataset.csv"
        path.write_text("# note\n\n" + header + "\n" + self.GOOD.split("\n", 1)[1])
        with pytest.raises(ValidationError) as err:
            read_dataset(path)
        msg = str(err.value)
        assert "line 3" in msg and "not a canonical dataset file" in msg

    def test_comments_blank_lines_and_crlf_after_the_header(self, tmp_path):
        text = ("# source=test\n"
                "kind,auction,reserve_or_price,duration_or_wait,sold\n"
                "# a note\n\n"
                "auction,0,1.0,10.0,1\n"
                "\n# between a header and its jumps\n"
                "jump,0,2.0,1.0,\n"
                "jump,0,3.0,0.5,\n"
                "#\n"
                "auction,1,1.5,10.0,0\n"
                "\n")
        want = ObservedDataset((AuctionRecord(1.0, 10.0, ((2.0, 1.0), (3.0, 0.5)), True),
                                AuctionRecord(1.5, 10.0, (), False)), 10.0)
        path = tmp_path / "dataset.csv"
        for ending in ("\n", "\r\n"):
            path.write_bytes(text.replace("\n", ending).encode())
            assert read_dataset(path) == want

    @pytest.mark.parametrize("row, text", [
        ("auctions,2,2.0,10.0,1", "unknown row kind 'auctions'"),
        ("auction1,2,2.0,10.0,1", "unknown row kind 'auction1'"),
        ("auction,2,2.0,10.0,10", "sold must be 0 or 1, got '10'"),
        ("auction,2,2.0,10.0,1#", "sold must be 0 or 1, got '1#'"),
        ("auction,2,2.0,10.0,1\0", "sold must be 0 or 1, got '1\\x00'"),
        ("jump\0,1,3.0,1.0,", "unknown row kind 'jump\\x00'"),
        ("jump,1\x1c,3.0,1.0,", "invalid literal for int() with base 10: '1\\x1c'"),
        ("auction,2.0,2.0,10.0,1", "invalid literal for int() with base 10: '2.0'"),
        ("jump,1.5,3.0,1.0,", "invalid literal for int() with base 10: '1.5'"),
        ("jump,1e0,3.0,1.0,", "invalid literal for int() with base 10: '1e0'"),
    ])
    def test_near_miss_rows_are_rejected(self, tmp_path, row, text):
        path = tmp_path / "dataset.csv"
        path.write_text(self.GOOD + row + "\n")
        with pytest.raises(ValidationError) as err:
            read_dataset(path)
        assert str(err.value) == f"{path} line 5: {text}"

    @pytest.mark.parametrize("row, text", [
        ("auction,2.0,2.0,10.0,1", "invalid literal for int() with base 10: '2.0'"),
        ("jump,1e0,3.0,1.0,", "invalid literal for int() with base 10: '1e0'"),
    ])
    def test_index_read_through_a_float_is_refused(self, tmp_path, monkeypatch,
                                                   row, text):
        # numpy releases before the float fallback was removed read an
        # integer field written as a float, with only a DeprecationWarning
        loadtxt = np.loadtxt

        def lenient_loadtxt(rows, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            loose = np.dtype([(name, float if name == "k" else dtype[name])
                              for name in dtype.names])
            return loadtxt(rows, dtype=loose, **kwargs).astype(dtype)

        monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
        path = tmp_path / "dataset.csv"
        path.write_text(self.GOOD + row + "\n")
        with pytest.raises(ValidationError) as err:
            read_dataset(path)
        assert str(err.value) == f"{path} line 5: {text}"

    def test_numbers_read_as_python_reads_them(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text(self.GOOD.replace("jump,0,2.0,1.0,", "jump, +0 ,\uff12.0, 1_0e-1\t,"))
        (tmp_path / "want.csv").write_text(self.GOOD)
        assert read_dataset(path) == read_dataset(tmp_path / "want.csv")

    def test_first_bad_line_is_named(self, tmp_path):
        path = tmp_path / "dataset.csv"
        bad_sold = self.GOOD.replace("auction,1,1.5,10.0,0", "auction,1,1.5,10.0,2")
        path.write_text(bad_sold + "jump,1,3.0,1.0,\n" * 3 + "auction,2,2.0,10.0,1\n"
                        + "jump,2,x,1.0,\n")     # lines 4 and 9 are bad
        with pytest.raises(ValidationError) as err:
            read_dataset(path)
        assert str(err.value) == f"{path} line 4: sold must be 0 or 1, got '2'"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 7, 14, 15])
    def test_any_line_budget_reads_back_alike(self, tmp_path, budget):
        # numpy's reader takes the rows while every byte is plain ASCII;
        # from data row `budget` on, the third field is written in
        # Arabic-Indic digits, which only the row-by-row walk reads.  14
        # rows: the walk starts on auction rows (1, 5 and 7) and on jump
        # rows (2, 3 and 14), and 15 leaves the whole file to numpy
        jumps = {0: 2, 2: 1, 3: 3, 5: 2}
        ds = ObservedDataset(tuple(
            AuctionRecord(0.5 + k, 10.0,
                          tuple((1.0 + k + j, 1.0) for j in range(jumps.get(k, 0))),
                          k in jumps)
            for k in range(6)), 10.0)
        path = tmp_path / "dataset.csv"
        export_dataset(ds, path, header_lines=["source=test"])
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 2 + 14
        digits = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                             "\u0665\u0666\u0667\u0668\u0669")
        for i in range(2 + budget - 1, len(lines)):
            kind, k, a, rest = lines[i].split(",", 3)
            lines[i] = ",".join((kind, k, a.translate(digits), rest))
        path.write_text("".join(lines), encoding="utf-8")
        assert read_dataset(path) == ds
        # comment lines count towards the number of a bad line after them
        path.write_text(path.read_text(encoding="utf-8")
                        .replace("auction,3,", "#\n#\n#\nauction,3,")
                        + "jump,4,9.0,1.0,\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            read_dataset(path)
        assert str(err.value).startswith(f"{path} line 20: jump row for auction 4")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            read_dataset(path)
