"""Rate and geolocation joins plus the CSV/JSON emitters."""

import io
import json
from decimal import Decimal

import pytest

from chainlens.report import (emit_rows, join_country, join_usd,
                              lookup_country, read_geo_table,
                              read_rate_table, rows_to_csv, rows_to_json,
                              write_stamp)


def test_read_rate_table_with_and_without_header():
    with_header = io.StringIO("week,usd\n2011-W18,0.5\n2011-W19,1.25\n")
    rates = read_rate_table(with_header)
    assert rates == {"2011-W18": Decimal("0.5"),
                     "2011-W19": Decimal("1.25")}
    bare = io.StringIO("2011-W18,0.5\n")
    assert read_rate_table(bare) == {"2011-W18": Decimal("0.5")}


def test_read_rate_table_malformed_rows():
    with pytest.raises(ValueError, match="^line 1: expected 2 fields"):
        read_rate_table(io.StringIO("2011-W18,0.5,extra\n"))
    with pytest.raises(ValueError, match="^line 1: bad rate 'abc'"):
        read_rate_table(io.StringIO("2011-W18,abc\n"))
    with pytest.raises(ValueError, match="^line 2: negative rate"):
        read_rate_table(io.StringIO("week,usd\n2011-W18,-1\n"))


def test_read_rate_table_from_file(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("week,usd\n2013-W01,13.37\n")
    assert read_rate_table(path) == {"2013-W01": Decimal("13.37")}


def test_join_usd_converts_units_to_coins():
    rows = [("2011-W18", "firstupdate", 2 * 10**8),  # 2.0 coins
            ("2011-W19", "firstupdate", 10**8 // 2)]
    rates = {"2011-W18": Decimal("0.5")}
    joined = join_usd(rows, rates)
    assert joined[0] == ("2011-W18", "firstupdate", 2 * 10**8, "1.0")
    # a missing week is an empty cell, not zero
    assert joined[1] == ("2011-W19", "firstupdate", 10**8 // 2, "")


def test_join_usd_decimal_exactness():
    joined = join_usd([("w", "k", 1)], {"w": Decimal("0.3")})
    assert joined[0][3] == "3E-9"
    assert Decimal(joined[0][3]) == Decimal("0.3") / Decimal(10**8)


def test_read_geo_table_keeps_file_order():
    # lookup_country picks the longest prefix itself, so no order is imposed
    table = io.StringIO("cidr,country\n"
                        "192.0.2.7,CC\n"
                        "10.1.0.0/16,BB\n"
                        "10.0.0.0/8,AA\n")
    geo = read_geo_table(table)
    assert [net.prefixlen for net, _ in geo] == [32, 16, 8]
    assert geo[0][0].num_addresses == 1 and geo[0][1] == "CC"
    assert lookup_country("10.1.2.3", geo) == "BB"


def test_read_geo_table_malformed():
    with pytest.raises(ValueError, match="^line 1: expected 2 fields"):
        read_geo_table(io.StringIO("10.0.0.0/8\n"))
    with pytest.raises(ValueError, match="^line 1: bad network 'not-an-ip'"):
        read_geo_table(io.StringIO("not-an-ip,AA\n"))
    with pytest.raises(ValueError, match="^line 2: empty country code"):
        read_geo_table(io.StringIO("cidr,country\n10.0.0.0/8,\n"))


def test_lookup_country_longest_prefix():
    geo = read_geo_table(io.StringIO("10.0.0.0/8,AA\n10.1.0.0/16,BB\n"
                                     "10.1.2.3,CC\n"))
    assert lookup_country("10.9.9.9", geo) == "AA"
    assert lookup_country("10.1.9.9", geo) == "BB"
    assert lookup_country("10.1.2.3", geo) == "CC"
    assert lookup_country("172.16.0.1", geo) == "??"
    assert lookup_country("garbage", geo) == "??"


def test_join_country_orders_by_count_then_name():
    geo = read_geo_table(io.StringIO("10.0.0.0/8,AA\n172.16.0.0/12,BB\n"))
    rows = join_country(["10.0.0.1", "10.0.0.2", "172.16.0.1", "8.8.8.8",
                         "172.16.5.5"], geo)
    assert rows == [("AA", 2), ("BB", 2), ("??", 1)]


def test_rows_to_csv_deterministic():
    text = rows_to_csv(["a", "b"], [(1, "x"), (2, "y")])
    assert text == "a,b\n1,x\n2,y\n"


def test_rows_to_json_shape():
    text = rows_to_json(["week", "count"], [("2011-W18", 3)])
    assert json.loads(text) == [{"week": "2011-W18", "count": 3}]
    assert text.endswith("\n")


def test_emit_rows_to_file_and_bad_format(tmp_path):
    out = tmp_path / "table.csv"
    emit_rows(["k"], [(1,)], fmt="csv", out=out)
    assert out.read_text() == "k\n1\n"
    with pytest.raises(ValueError):
        emit_rows(["k"], [(1,)], fmt="xml", out=out)


def test_emit_rows_to_stdout(capsys):
    emit_rows(["k"], [(7,)], fmt="csv", out=None)
    assert capsys.readouterr().out == "k\n7\n"


def test_write_stamp_sidecar(tmp_path):
    out = tmp_path / "table.csv"
    out.write_text("k\n1\n")
    stamp = write_stamp(out, ["chainlens", "report", "tx-monthly"])
    assert stamp == tmp_path / "table.csv.stamp.json"
    doc = json.loads(stamp.read_text())
    assert doc["tool"] == "chainlens"
    assert doc["argv"] == ["chainlens", "report", "tx-monthly"]
    assert "generated_at" in doc and "version" in doc
    # the data file itself stays untouched
    assert out.read_text() == "k\n1\n"
