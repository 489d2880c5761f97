"""Plot-ready report emission plus optional rate and geolocation joins.

Data outputs are byte-identical across runs on the same store: rows carry
no timestamps, all orderings are explicit, and run metadata goes to a
sidecar file only when requested.
"""

from __future__ import annotations

import csv
import io
import ipaddress
import json
import logging
import sys
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Iterable, Sequence

from .model import LineSource, read_table

log = logging.getLogger(__name__)

_UNITS_PER_COIN = Decimal(10) ** 8


# -- rate-table join ----------------------------------------------------------

def _rate_row(cells: list[str]) -> tuple[str, Decimal]:
    week, rate_text = cells
    try:
        rate = Decimal(rate_text)
        if rate < 0:  # raises InvalidOperation on NaN
            raise ValueError("negative rate")
    except InvalidOperation:
        raise ValueError(f"bad rate {rate_text!r}") from None
    return week, rate


def read_rate_table(source: LineSource) -> dict[str, Decimal]:
    """Parse a week→USD-per-coin CSV; a header row is allowed but optional,
    and a week may appear once."""
    return dict(read_table(source, ("week",), 2, _rate_row,
                           key=lambda row: f"week {row[0]}"))


def join_usd(weekly_rows: Iterable[tuple[str, str, int]],
             rates: dict[str, Decimal]) -> list[tuple[str, str, int, str]]:
    """Append a USD column to (week, kind, units) fee rows.

    The fee is converted from smallest units to whole coins before the
    multiply; weeks without a rate get an empty cell rather than zero, the
    two cases mean different things downstream.
    """
    joined = []
    for week, kind, units in weekly_rows:
        rate = rates.get(week)
        if rate is None:
            usd = ""
        else:
            usd = str(Decimal(units) / _UNITS_PER_COIN * rate)
        joined.append((week, kind, units, usd))
    return joined


# -- geolocation join ---------------------------------------------------------

def _geo_row(cells: list[str]) -> tuple[ipaddress.IPv4Network, str]:
    net_text, country = cells
    if not country:
        raise ValueError("empty country code")
    try:
        if "/" in net_text:
            return ipaddress.IPv4Network(net_text, strict=False), country
        return ipaddress.IPv4Network(f"{net_text}/32"), country
    except ValueError:
        raise ValueError(f"bad network {net_text!r}") from None


def read_geo_table(source: LineSource) -> list[tuple[ipaddress.IPv4Network, str]]:
    """Parse a CIDR-or-IP→country CSV into (network, country) rows, in file
    order; a network may appear once."""
    return read_table(source, ("cidr", "ip", "network"), 2, _geo_row,
                      key=lambda row: f"network {row[0]}")


def lookup_country(ip: str,
                   geo: Sequence[tuple[ipaddress.IPv4Network, str]]) -> str:
    """Longest-prefix country lookup; unmatched addresses become "??"."""
    try:
        addr = ipaddress.IPv4Address(ip)
    except ipaddress.AddressValueError:
        return "??"
    best = "??"
    best_len = -1
    for net, country in geo:
        if addr in net and net.prefixlen > best_len:
            best, best_len = country, net.prefixlen
    return best


def join_country(ips: Iterable[str],
                 geo: Sequence[tuple[ipaddress.IPv4Network, str]]
                 ) -> list[tuple[str, int]]:
    """Aggregate addresses into (country, count) rows, most populous first."""
    counts: dict[str, int] = {}
    for ip in ips:
        country = lookup_country(ip, geo)
        counts[country] = counts.get(country, 0) + 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


# -- emitters -----------------------------------------------------------------

def rows_to_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def rows_to_json(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    docs = [dict(zip(header, row)) for row in rows]
    return json.dumps(docs, sort_keys=True, indent=2) + "\n"


def emit(text: str, out: str | Path | None) -> None:
    """Write report text to a file or, with no path, the data stream."""
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def emit_rows(header: Sequence[str], rows: Iterable[Sequence],
              fmt: str = "csv", out: str | Path | None = None) -> None:
    if fmt == "csv":
        emit(rows_to_csv(header, rows), out)
    elif fmt == "json":
        emit(rows_to_json(header, rows), out)
    else:
        raise ValueError(f"unknown format: {fmt}")


def write_stamp(out: str | Path, argv: Sequence[str]) -> Path:
    """Record run metadata in a sidecar so the data file stays reproducible."""
    from . import __version__
    stamp_path = Path(str(out) + ".stamp.json")
    doc = {
        "tool": "chainlens",
        "version": __version__,
        "argv": list(argv),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    stamp_path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")
    return stamp_path
