"""The list, CSV-table and JSON readers every option and data file goes through."""

import ast
import csv
import ipaddress
import json
import re
import tempfile
from decimal import Decimal, InvalidOperation
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlens
from chainlens.cli import _bootnode, run_cli
from chainlens.eth.probe import SelectorDictionary, _selector_entry
from chainlens.model import normalize_hex, read_lines
from chainlens.poison import SignatureDb, SignatureEntry, load_signatures
from chainlens.report import read_geo_table, read_rate_table

from conftest import addr

NODE_HEX = "ab" * 64


# -- the readers these replaced, kept as the reference ------------------------

def ref_list_lines(path, parse=str):
    values = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if text and not text.startswith("#"):
                try:
                    values.append(parse(text))
                except ValueError as exc:
                    raise ValueError(f"line {line_no}: {exc}") from None
    return values


def ref_selectors(lines):
    entries = {}
    for line_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            entry = _selector_entry(text)
            if entry.selector in entries:
                raise ValueError(f"duplicate selector 0x{entry.selector.hex()}")
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        entries[entry.selector] = entry
    return list(entries.values())


def ref_rate_table(path):
    rates = {}
    with open(path, encoding="utf-8") as source:
        for line_no, row in enumerate(csv.reader(source), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if line_no == 1 and row[0].strip().lower() == "week":
                continue
            if len(row) != 2:
                raise ValueError(f"line {line_no}: "
                                 f"expected 2 fields, got {len(row)}")
            week, rate_text = row[0].strip(), row[1].strip()
            try:
                rate = Decimal(rate_text)
            except InvalidOperation:
                raise ValueError(f"line {line_no}: bad rate {rate_text!r}")
            if rate < 0:
                raise ValueError(f"line {line_no}: negative rate")
            if week in rates:  # the replaced reader kept the later rate
                raise ValueError(f"line {line_no}: duplicate week {week}")
            rates[week] = rate
    return rates


def ref_geo_table(path):
    nets = []
    with open(path, encoding="utf-8") as source:
        for line_no, row in enumerate(csv.reader(source), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if line_no == 1 and row[0].strip().lower() in ("cidr", "ip",
                                                            "network"):
                continue
            if len(row) != 2:
                raise ValueError(f"line {line_no}: "
                                 f"expected 2 fields, got {len(row)}")
            net_text, country = row[0].strip(), row[1].strip()
            if not country:
                raise ValueError(f"line {line_no}: empty country code")
            try:
                if "/" in net_text:
                    net = ipaddress.IPv4Network(net_text, strict=False)
                else:
                    net = ipaddress.IPv4Network(f"{net_text}/32")
            except (ipaddress.AddressValueError, ipaddress.NetmaskValueError,
                    ValueError):
                raise ValueError(f"line {line_no}: bad network {net_text!r}")
            # the replaced reader kept both, and sorted rows widest first
            if net in dict(nets):
                raise ValueError(f"line {line_no}: duplicate network {net}")
            nets.append((net, country))
    return nets


def ref_signatures(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    entries = []
    for row_no, row in enumerate(csv.reader(lines), start=1):
        if not row or (row_no == 1 and row[0] == "format"):
            continue
        if len(row) != 4:
            raise ValueError(f"signature row {row_no}: expected 4 fields")
        name, magic_hex, offset, extension = (f.strip() for f in row)
        entries.append(SignatureEntry(format_name=name,
                                      magic=bytes.fromhex(magic_hex),
                                      offset=int(offset),
                                      extension=extension))
    return SignatureDb(entries=entries)


# -- differential tests: equal values, or the same error on the same line -------

def _outcome(read, *args):
    """("ok", value), or ("error", class, line number or None)."""
    try:
        return ("ok", read(*args))
    except ValueError as exc:
        found = re.match(r"(?:line|signature row) (\d+)", str(exc))
        return ("error", type(exc), found and int(found.group(1)))


def _write(lines, ending):
    """A file holding `lines`, and the directory to delete afterwards."""
    directory = tempfile.TemporaryDirectory()
    path = Path(directory.name) / "input"
    path.write_text("\n".join(lines) + ending, encoding="utf-8")
    return directory, path


_BLANK = st.sampled_from(["", " ", "\t", "  \t "])
_NOISE = st.text(alphabet="0123456789abcdefxyzAB@:./ ,-", max_size=14)


def _files(line):
    return st.tuples(st.lists(st.one_of(line, _BLANK, _NOISE), max_size=8),
                     st.sampled_from(["", "\n"]))


_LIST_LINE = st.sampled_from([
    addr(1), "0x" + addr(2).upper(), addr(3)[:-2], "0x" + "g" * 40,
    f"{NODE_HEX}@10.0.0.1:30303", f"{NODE_HEX}@10.0.0.1:0",
    f"{NODE_HEX}@10.0.0.1", f"{NODE_HEX[:-2]}@10.0.0.1:1", "5.5.5.5",
    "  6.6.6.6\t", "6001"])


@settings(max_examples=150)
@given(_files(_LIST_LINE))
def test_list_reader_matches_the_reference(file):
    directory, path = _write(*file)
    with directory:
        for parse in (str, partial(normalize_hex, byte_len=20), _bootnode):
            assert _outcome(read_lines, path, parse) == \
                _outcome(ref_list_lines, path, parse)


_SELECTOR_LINE = st.sampled_from([
    "kill()", "suicide()", "0x41c0e1b5", "0X41C0E1B5", "0xdeadbeef",
    "0x1234", "0xzzzzzzzz", "destroy()", " end() "])


@settings(max_examples=150)
@given(_files(_SELECTOR_LINE))
def test_selector_reader_matches_the_reference(file):
    directory, path = _write(*file)
    with directory:
        # the CLI handed the parent's reader the file's lines
        lines = path.read_text(encoding="utf-8").splitlines()
        new = _outcome(lambda: list(SelectorDictionary.from_lines(path)))
        assert new == _outcome(ref_selectors, lines)
        assert new == _outcome(lambda: list(SelectorDictionary.from_lines(lines)))


def _table(header, row):
    """A table whose first line may be a header; a header-like row can
    turn up on any line."""
    return st.tuples(
        st.one_of(st.just([]), st.lists(header, min_size=1, max_size=1)),
        st.lists(st.one_of(row, header, _BLANK, _NOISE), max_size=8),
        st.sampled_from(["", "\n"])).map(
            lambda parts: (parts[0] + parts[1], parts[2]))


_RATE_FILE = _table(
    st.sampled_from(["week,rate", "WEEK,USD", " Week , rate", "week",
                     "week,0.5"]),
    st.builds("{},{}".format,
              st.sampled_from(["2011-W18", "2011-W19", " 2013-W01 ", ""]),
              st.sampled_from(["0.5", " 13.37 ", "0", "-1", "abc", "",
                               "1e3", "Infinity", "2,3"])))


@settings(max_examples=200)
@given(_RATE_FILE)
def test_rate_table_matches_the_reference(file):
    directory, path = _write(*file)
    with directory:
        assert _outcome(read_rate_table, path) == \
            _outcome(ref_rate_table, path)


_GEO_FILE = _table(
    st.sampled_from(["cidr,country", "IP,CC", " Network ,x", "ip",
                     "cidr,AA,extra"]),
    st.builds("{},{}".format,
              st.sampled_from(["10.0.0.0/8", "10.1.0.0/16", "1.2.3.4",
                               " 172.16.0.0/12 ", "300.1.1.1",
                               "10.0.0.0/33", "x", "", "10.0.0.1/8"]),
              st.sampled_from(["AA", " bb ", "", "CC,DD"])))


@settings(max_examples=200)
@given(_GEO_FILE)
def test_geo_table_matches_the_reference(file):
    directory, path = _write(*file)
    with directory:
        assert _outcome(read_geo_table, path) == _outcome(ref_geo_table, path)


# the parent matched only this exact header and refused whitespace-only
# lines; both are among the deliberate changes tested further down
_SIGNATURE_FILE = _table(
    st.just("format,magic_hex,offset,extension"),
    st.builds("{},{},{},{}".format,
              st.sampled_from(["png", "gif", " exe "]),
              st.sampled_from(["cafe", "4D5A", " 00 ", "zz", "", "abc",
                               "00" * 17]),
              st.sampled_from(["0", "3", "-1", "x", " 2 "]),
              st.sampled_from(["png", "", "bin,extra"])))


@settings(max_examples=200)
@given(_SIGNATURE_FILE.map(lambda file: (
    [line for line in file[0] if line == "" or line.strip()], file[1])))
def test_signature_table_matches_the_reference(file):
    directory, path = _write(*file)
    with directory:
        new, old = _outcome(load_signatures, path), \
            _outcome(ref_signatures, path)
        if old[0] == "error" and old[2] is None and new[2] is not None:
            # the parent named only a wrong field count; the line named
            # now is checked by test_every_bad_signature_row_names_its_line
            new = new[:2] + (None,)
        assert new == old


# -- deliberate changes ----------------------------------------------------------

_PROBE_FIXTURE = json.dumps({"type": "gas_fixture", "address": addr(1),
                             "selector": "41c0e1b5", "estimate": 300})


def test_trailing_comment_ends_a_contracts_line(tmp_path, monkeypatch, capsys):
    # the parent refused this line as bad hex
    monkeypatch.chdir(tmp_path)
    Path("gas.ndjson").write_text(_PROBE_FIXTURE + "\n")
    Path("contracts.txt").write_text(f"{addr(1)}  # the fixture's contract\n")
    assert run_cli(["eth", "probe", "--gas-fixture", "gas.ndjson",
                    "--contracts", "contracts.txt"]) == 0
    assert addr(1) in capsys.readouterr().out


def test_trailing_comment_ends_an_ips_line(tmp_path, monkeypatch, capsys):
    # the parent probed "5.5.5.5 # seed" as an address
    monkeypatch.chdir(tmp_path)
    Path("ips.txt").write_text("5.5.5.5 # seed\n")
    Path("probes.json").write_text(json.dumps({"5.5.5.5": "accepted"}))
    assert run_cli(["bootstrap", "probe", "--ips", "ips.txt", "--port", "1",
                    "--script", "probes.json"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["5.5.5.5,open"]


def test_trailing_comment_ends_a_live_line(tmp_path):
    # the parent refused the port "30303 # boot"
    path = tmp_path / "bootnodes.txt"
    path.write_text(f"{NODE_HEX}@10.0.0.1:30303 # boot\n")
    [peer] = read_lines(path, _bootnode)
    assert (peer.ip, peer.port) == ("10.0.0.1", 30303)


def test_live_line_names_an_ip_address(tmp_path, capsys):
    # the live transport sends to an address; it resolves no host name
    path = tmp_path / "bootnodes.txt"
    path.write_text(f"{NODE_HEX}@127.0.0.1:30303\n"
                    f"{NODE_HEX}@localhost:30303\n")
    assert run_cli(["crawl", "--live", str(path)]) == 1
    err = capsys.readouterr().err
    assert "--live" in err and "line 2:" in err and "localhost" in err


def test_trailing_comment_ends_a_table_row(tmp_path):
    rates = tmp_path / "rates.csv"
    rates.write_text("week,rate # USD\n2011-W18,0.5 # estimate\n")
    assert read_rate_table(rates) == {"2011-W18": Decimal("0.5")}
    geo = tmp_path / "geo.csv"
    geo.write_text("10.0.0.0/8,AA  # private\n")
    assert read_geo_table(geo)[0][1] == "AA"
    signatures = tmp_path / "sigs.csv"
    signatures.write_text("demo,cafe,0,bin # made up\n")
    assert load_signatures(signatures).entries[0].extension == "bin"


@pytest.mark.parametrize("row, detail", [
    ("gif,zz,0,gif", "non-hexadecimal"),
    ("gif,4749,x,gif", "invalid literal"),
    ("gif,4749,-1,gif", "negative offset"),
    ("gif,,0,gif", "magic must be 1-16 bytes"),
    ("gif,4749,0", "expected 4 fields, got 3"),
])
def test_every_bad_signature_row_names_its_line(tmp_path, row, detail):
    path = tmp_path / "sigs.csv"
    path.write_text(f"format,magic_hex,offset,extension\n\n{row}\n")
    with pytest.raises(ValueError, match=f"^line 3: .*{detail}"):
        load_signatures(path)


def test_signature_header_in_any_case_and_blank_lines(tmp_path):
    path = tmp_path / "sigs.csv"
    path.write_text("Format,Magic_Hex,Offset,Extension\n  \ndemo,cafe,0,bin\n"
                    "\t\n")
    assert load_signatures(path) == SignatureDb(
        [SignatureEntry("demo", bytes.fromhex("cafe"), 0, "bin")])


def test_a_nan_rate_is_a_bad_rate(tmp_path):
    # the parent's negative-rate check raised InvalidOperation on NaN,
    # which the CLI did not catch
    path = tmp_path / "rates.csv"
    path.write_text("2011-W18,0.5\n2011-W19,NaN\n")
    with pytest.raises(ValueError, match="^line 2: bad rate 'NaN'"):
        read_rate_table(path)


def test_option_files_are_read_in_one_place():
    # the builtin open() appears only in the three readers, and a CSV
    # reader only in the table reader
    root = Path(chainlens.__file__).parent
    opens, csv_readers = set(), set()
    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for func in ast.walk(tree):  # breadth first: the outermost wins
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    owner.setdefault(id(node), func.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "open":
                opens.add(owner.get(id(node)))
            if isinstance(node, ast.Attribute) and node.attr == "reader" \
                    and getattr(node.value, "id", None) == "csv":
                csv_readers.add(owner.get(id(node)))
    assert opens == {"read_records", "read_lines", "read_json"}
    assert csv_readers == {"read_table"}
