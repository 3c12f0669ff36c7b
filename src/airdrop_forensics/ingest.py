"""Parsing, validation, and normalization of raw transaction exports.

Four inputs feed the pipeline: token transfer rows, external transaction
rows, a contract dictionary (address -> name/category), and the airdrop
claim list. Everything lands in an EventStore: a sorted, deduplicated,
immutable-by-convention record that all downstream stages consume. The
ingest stage writes it out once in canonical form; read_store loads that
form back without repeating the raw-input validation.

Each event is a TransferEvent, an immutable named tuple, so it costs one
tuple to build and EVENT_ORDER sorts by position in C. A raw export
already in the store's form is split by read_store's loader with no
per-row Python code; any other is read positionally, one pass per file,
and every address text is normalized once. Either way, events that name
the same address share one string. Each raw file is sorted once, the
merge of the two is sorted once more (two sorted runs, so linear), and
write_transfers_csv trusts its input to be in that order.

Token amounts are integers in the smallest unit (18 decimals); display
scaling happens only at report boundaries, never inside computations.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import re
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from datetime import date, datetime, timezone
from enum import Enum
from functools import partial
from itertools import chain, compress, count, islice
from operator import attrgetter, eq, gt, itemgetter
from pathlib import Path
from typing import NamedTuple

from . import artifacts

log = logging.getLogger(__name__)

TOKEN_DECIMALS = 18
TOKEN_SCALE = 10 ** TOKEN_DECIMALS

# Default study window: the ParaSwap PSP distribution period. Configurable.
DEFAULT_WINDOW_START = "2021-11-15"
DEFAULT_WINDOW_END = "2022-04-13"

Address = str  # "0x" + 40 lowercase hex digits

# Lowercased text of an address or tx hash, with or without the 0x prefix.
_ADDRESS = re.compile("(?:0x)?[0-9a-f]{40}").fullmatch
_TX_HASH = re.compile("(?:0x)?[0-9a-f]{64}").fullmatch


class IngestError(artifacts.UserError):
    """File-level ingestion failure: unreadable file or missing header."""


class DuplicateClaimError(IngestError):
    def __init__(self, address: Address):
        super().__init__(f"address {address} appears more than once in the claim list")
        self.address = address


def normalize_address(raw: str) -> Address:
    """Lowercase, 0x-prefix, and validate a 20-byte hex address."""
    s = raw.strip().lower()
    if not _ADDRESS(s):
        raise ValueError(f"not a 20-byte hex address: {raw!r}")
    return s if len(s) == 42 else "0x" + s


def normalize_tx_hash(raw: str) -> str:
    s = raw.strip().lower()
    if not _TX_HASH(s):
        raise ValueError(f"not a 32-byte tx hash: {raw!r}")
    return s if len(s) == 66 else "0x" + s


def format_token_amount(value: int) -> str:
    """Exact decimal rendering of a smallest-unit amount in display units."""
    sign = "-" if value < 0 else ""
    whole, frac = divmod(abs(value), TOKEN_SCALE)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(TOKEN_DECIMALS).rstrip('0')}"


class EventKind(str, Enum):
    TOKEN_TRANSFER = "token_transfer"
    EXTERNAL_TX = "external_tx"
    INTERNAL_TX = "internal_tx"


class ContractCategory(str, Enum):
    AIRDROP = "Airdrop"
    TRADING_SWAP = "TradingSwap"
    STAKING = "Staking"
    LIQUIDITY_POOL = "LiquidityPool"
    TRADING_OR_LP = "TradingOrLP"
    CEX = "CEX"
    OTHER = "Other"


_CATEGORY_LOOKUP = {c.value.lower(): c for c in ContractCategory}


class Tier(int, Enum):
    T5200 = 5200
    T7800 = 7800
    T10400 = 10400

    @property
    def amount(self) -> int:
        """Face value in smallest token units."""
        return self.value * TOKEN_SCALE


class TransferEvent(NamedTuple):
    tx_hash: str
    sender: Address
    receiver: Address
    value: int  # smallest unit, arbitrary precision
    timestamp: int  # UTC seconds
    block: int
    kind: EventKind
    log_index: int = 0


# The store's event order: (timestamp, block, tx_hash, log_index).
EVENT_ORDER = itemgetter(4, 5, 0, 7)
# The dedup key: (tx_hash, log_index, kind). kind qualifies the key so a
# token transfer is never collapsed with the external transaction that
# carried it.
_DEDUP_KEY = itemgetter(0, 7, 6)
_TIMESTAMP = itemgetter(4)
_KINDS = {k.value: k for k in EventKind}


@dataclass(frozen=True, slots=True)
class ContractInfo:
    address: Address
    name: str
    category: ContractCategory


@dataclass(frozen=True, slots=True)
class ClaimRecord:
    address: Address
    tier: Tier
    amount: int
    claim_timestamp: int


@dataclass(frozen=True, slots=True, order=True)
class MalformedRow:
    line: int
    reason: str


@dataclass
class IngestConfig:
    window_start: str | None = DEFAULT_WINDOW_START  # ISO date, inclusive
    window_end: str | None = DEFAULT_WINDOW_END  # ISO date, inclusive
    allow_self_transfers: bool = False

    def window_bounds(self) -> tuple[int, int] | None:
        """(start_ts, end_ts) in UTC seconds, end extended to 23:59:59."""
        if self.window_start is None or self.window_end is None:
            return None
        start = _date_ts(self.window_start)
        end = _date_ts(self.window_end) + 86399
        if start >= end:
            raise ValueError(
                f"window start {self.window_start} is not before end {self.window_end}"
            )
        return start, end


def _date_ts(iso_day: str) -> int:
    d = date.fromisoformat(iso_day)
    return int(datetime(d.year, d.month, d.day, tzinfo=timezone.utc).timestamp())


TRANSFER_COLUMNS = ("tx_hash", "from", "to", "value", "timestamp", "block")
STORE_COLUMNS = [*TRANSFER_COLUMNS, "log_index", "kind"]
CONTRACT_COLUMNS = ["address", "name", "category"]
CLAIM_COLUMNS = ["address", "tier", "amount", "timestamp"]


def _iter_rows(path, columns, errors: list[MalformedRow], required=()):
    """Yield (line_no, cells) for each row of a CSV-with-header or JSONL file.

    cells holds the text of each of `columns`, as csv.DictReader's
    row.get(column) reads it: a short CSV row's missing cells are empty,
    a header naming a column twice gives its last cell, extra cells are
    ignored, and a column the header lacks is None. CSV line numbers count
    the header as line 1 and skip blank lines, as enumerate(DictReader,
    start=2) does. A JSONL value becomes its text (null an empty cell), a
    key the object lacks is None, and a line that is not a JSON object is
    appended to `errors`. A CSV file with rows must have every one of
    `required` in its header.
    """
    path = Path(path)
    try:
        # newline="": a line ends only at \n, \r or \r\n, as in the csv module
        with open(path, newline="", encoding="utf-8-sig") as fh:
            if path.suffix == ".jsonl":
                yield from _jsonl_rows(fh, columns, errors)
                return
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}: empty file, missing header")
            n = len(header)
            position = {name: i for i, name in enumerate(header)}  # the last of a repeated name
            missing = [c for c in required if c not in position]
            absent = any(c not in position for c in columns)
            # a column the header lacks reads the None appended after the n cells
            pick = itemgetter(*[position.get(c, n) for c in columns])
            pad = [""] * n
            line_no = 1
            for row in reader:
                if not row:
                    continue
                if missing:
                    for _ in reader:  # a read error anywhere in the file comes first
                        pass
                    raise IngestError(f"{path}: header missing columns {missing}")
                line_no += 1
                if len(row) != n:
                    row = (row + pad)[:n]
                if absent:
                    row.append(None)
                yield line_no, pick(row)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"cannot read {path} as UTF-8 CSV or JSONL: {exc}") from exc


def _jsonl_rows(fh, columns, errors: list[MalformedRow]):
    for line_no, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            if not isinstance(row, dict):
                raise ValueError("JSONL row is not an object")
        except ValueError as exc:
            errors.append(MalformedRow(line_no, str(exc)))
            continue
        # the text a CSV cell would hold; null is an empty cell
        yield line_no, tuple(None if c not in row else "" if row[c] is None else str(row[c])
                             for c in columns)


def _cell(text: str | None, column: str) -> str:
    """The cell of `column`; KeyError when the row has no such column,
    as DictReader's row[column] raises."""
    if text is None:
        raise KeyError(column)
    return text


def _address_memo():
    """normalize_address that runs once per distinct text. A normalized
    address maps to itself, so every text of one address gives one string."""
    memo: dict[str, Address] = {}

    def address(raw: str) -> Address:
        a = memo.get(raw)
        if a is None:
            a = normalize_address(raw)
            memo[raw] = a = memo.setdefault(a, a)
        return a

    return address


def parse_transfers(
    path,
    kind: EventKind = EventKind.TOKEN_TRANSFER,
    allow_self_transfers: bool = False,
) -> tuple[list[TransferEvent], list[MalformedRow]]:
    """Parse a transfer export (CSV with header, or JSONL).

    Returns (events, malformed). Valid rows come back normalized and sorted
    by (timestamp, block, tx_hash, log_index); bad rows are reported with
    their line number, never silently dropped. Only an unreadable file or a
    missing header raises.

    A CSV file in the form write_transfers_csv writes, where every row
    would come through the row loop below unchanged, is split by
    _split_events instead; any other file, and one that cannot be opened
    or decoded, takes the row loop whole.
    """
    path = Path(path)
    if path.suffix != ".jsonl":
        try:
            events = _split_events(path, raw=True, allow_self_transfers=allow_self_transfers)
        except artifacts.MissingArtifactError:  # the row loop names what is wrong
            events = None
        if events is not None:
            events.sort(key=EVENT_ORDER)
            return events, []
    errors: list[MalformedRow] = []
    events: list[TransferEvent] = []
    address = _address_memo()
    for line_no, cells in _iter_rows(path, STORE_COLUMNS, errors, TRANSFER_COLUMNS):
        tx_hash, sender, receiver, value, timestamp, block, log_index, row_kind = cells
        try:
            if not (tx_hash and sender and receiver and value and timestamp and block):
                missing = [c for c, text in zip(TRANSFER_COLUMNS, cells) if not text]
                raise ValueError(f"missing fields {missing}")
            tx_hash = normalize_tx_hash(tx_hash)
            sender = address(sender)
            receiver = address(receiver)
            value = int(value.strip())
            if value < 0:
                raise ValueError(f"negative value {value}")
            timestamp = int(timestamp.strip())
            block = int(block.strip())
            if block < 0:
                raise ValueError(f"negative block {block}")
            if sender == receiver and not allow_self_transfers:
                raise ValueError("self-transfer not allowed by config")
            log_index = int((log_index or "0").strip())
            if row_kind:
                row_kind = row_kind.strip()
                row_kind = _KINDS.get(row_kind) or EventKind(row_kind)
            else:
                row_kind = kind
        except ValueError as exc:
            errors.append(MalformedRow(line_no, str(exc)))
            continue
        events.append(TransferEvent(tx_hash, sender, receiver, value, timestamp, block,
                                    row_kind, log_index))
    events.sort(key=EVENT_ORDER)
    return events, sorted(errors)


def parse_contracts(path) -> tuple[list[ContractInfo], list[MalformedRow]]:
    """Parse the contract dictionary CSV (address,name,category)."""
    errors: list[MalformedRow] = []
    contracts: list[ContractInfo] = []
    seen: set[Address] = set()
    for line_no, (address, name, category) in _iter_rows(path, CONTRACT_COLUMNS, errors):
        try:
            address = normalize_address(_cell(address, "address"))
            name = _cell(name, "name").strip()
            category_text = _cell(category, "category")
            category = _CATEGORY_LOOKUP.get(category_text.strip().lower())
            if category is None:
                raise ValueError(f"unknown category {category_text!r}")
            if address in seen:
                raise ValueError(f"duplicate contract entry for {address}")
            seen.add(address)
            contracts.append(ContractInfo(address, name, category))
        except (ValueError, KeyError) as exc:
            errors.append(MalformedRow(line_no, str(exc)))
    contracts.sort(key=lambda c: c.address)
    return contracts, sorted(errors)


def parse_claims(path) -> tuple[list[ClaimRecord], list[MalformedRow]]:
    """Parse the claim list CSV (address,tier,amount,timestamp).

    The amount must equal the tier face value in smallest units; mismatches
    are malformed rows. Duplicate addresses surface later, when
    build_event_store assembles the claim map.
    """
    errors: list[MalformedRow] = []
    claims: list[ClaimRecord] = []
    for line_no, (address, tier, amount, timestamp) in _iter_rows(path, CLAIM_COLUMNS, errors):
        try:
            address = normalize_address(_cell(address, "address"))
            tier = Tier(int(_cell(tier, "tier").strip()))
            amount = int(_cell(amount, "amount").strip())
            if amount != tier.amount:
                raise ValueError(
                    f"amount {amount} does not match tier face value {tier.amount}"
                )
            timestamp = int(_cell(timestamp, "timestamp").strip())
            claims.append(ClaimRecord(address, tier, amount, timestamp))
        except (ValueError, KeyError) as exc:
            errors.append(MalformedRow(line_no, str(exc)))
    claims.sort(key=lambda c: c.address)
    return claims, sorted(errors)


@dataclass
class IngestReport:
    input_rows: int = 0
    stored: int = 0
    deduplicated: int = 0
    malformed: list[MalformedRow] = field(default_factory=list)
    window_excluded: int = 0
    token_events: int = 0
    external_events: int = 0
    internal_events: int = 0
    n_contracts: int = 0
    n_claims: int = 0
    claims_without_events: list[Address] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> IngestReport:
        """Inverse of to_json; raises TypeError or KeyError on a foreign shape."""
        return cls(**{**payload, "malformed": [MalformedRow(**m) for m in payload["malformed"]]})


@dataclass
class EventStore:
    """Canonical, time-ordered event record. Treat as read-only once built."""

    events: list[TransferEvent]
    contracts: dict[Address, ContractInfo]
    claims: dict[Address, ClaimRecord]
    config: IngestConfig
    report: IngestReport

    def events_of_kind(self, kind: EventKind) -> list[TransferEvent]:
        return [e for e in self.events if e.kind == kind]

    def participants(self) -> set[Address]:
        return set(map(attrgetter("sender"), self.events)).union(
            map(attrgetter("receiver"), self.events))


def build_event_store(
    token_events: list[TransferEvent],
    external_events: list[TransferEvent],
    contracts: list[ContractInfo],
    claims: list[ClaimRecord],
    config: IngestConfig | None = None,
    parse_errors: list[MalformedRow] | None = None,
) -> EventStore:
    """Merge parsed inputs into a sorted, deduplicated EventStore.

    Window violations are reported and excluded, duplicates (same tx hash,
    log index, and kind) collapse to the first occurrence, and claim
    addresses that never appear in any event are reported but kept. Raises
    DuplicateClaimError if an address claims twice.
    """
    config = config or IngestConfig()
    report = IngestReport(malformed=list(parse_errors or []))
    merged = sorted(token_events + external_events, key=EVENT_ORDER)
    report.input_rows = len(merged) + len(report.malformed)

    bounds = config.window_bounds()
    lo, hi = 0, len(merged)
    if bounds:  # merged is in timestamp order, so the window is one run of it
        lo = bisect_left(merged, bounds[0], key=_TIMESTAMP)
        hi = bisect_right(merged, bounds[1], lo, key=_TIMESTAMP)
    excluded = merged[:lo] + merged[hi:]
    del merged[hi:], merged[:lo]
    report.window_excluded = len(excluded)
    report.malformed += (
        MalformedRow(0, f"timestamp {ev.timestamp} outside study window ({ev.tx_hash})")
        for ev in excluded)
    first: dict = {}  # each dedup key's first event, in merged's order
    deque(map(first.setdefault, map(_DEDUP_KEY, merged), merged), maxlen=0)  # in C
    kept = list(first.values())
    report.deduplicated = len(merged) - len(kept)

    claim_map: dict[Address, ClaimRecord] = {}
    for rec in claims:
        if rec.address in claim_map:
            raise DuplicateClaimError(rec.address)
        claim_map[rec.address] = rec
    contract_map = {c.address: c for c in contracts}

    store = EventStore(kept, contract_map, claim_map, config, report)
    participants = store.participants()
    report.claims_without_events = sorted(a for a in claim_map if a not in participants)
    report.stored = len(kept)
    kinds = Counter(map(attrgetter("kind"), kept))
    report.token_events = kinds[EventKind.TOKEN_TRANSFER]
    report.external_events = kinds[EventKind.EXTERNAL_TX]
    report.internal_events = kinds[EventKind.INTERNAL_TX]
    report.n_contracts = len(contract_map)
    report.n_claims = len(claim_map)
    if report.claims_without_events:
        log.warning(
            "%d claim addresses never appear in any event",
            len(report.claims_without_events),
        )
    return store


def load_event_store(
    transfers_path,
    externals_path,
    contracts_path,
    claims_path,
    config: IngestConfig | None = None,
) -> EventStore:
    """Parse all four inputs from disk and build the store."""
    config = config or IngestConfig()
    token_events, err_t = parse_transfers(
        transfers_path, EventKind.TOKEN_TRANSFER, config.allow_self_transfers
    )
    external_events, err_e = parse_transfers(
        externals_path, EventKind.EXTERNAL_TX, config.allow_self_transfers
    )
    contracts, err_c = parse_contracts(contracts_path)
    claims, err_cl = parse_claims(claims_path)
    return build_event_store(
        token_events, external_events, contracts, claims, config,
        parse_errors=err_t + err_e + err_c + err_cl,
    )


# Canonical writers: sorted rows and a fixed column order in the artifacts
# module's CSV format. parse(write(parse(x))) round-trips exactly, and
# read_store reads the three files back without re-validating them.

# An event's cells in STORE_COLUMNS order. csv and str.join write the
# str-valued EventKind as its value, since both take any str as its text.
_STORE_ROW = itemgetter(0, 1, 2, 3, 4, 5, 7, 6)
# Rows per write: about 100 KB of text, under glibc's mmap threshold (see
# _CHUNK).
_ROWS = 1 << 9


def _store_rows(events: list[TransferEvent]) -> str:
    """The CSV lines of `events`, a non-empty batch, as csv.writer writes
    them in the artifacts module's format.

    A stored event's cells are hex, decimal integers and EventKind values,
    which csv.writer never quotes, so each line is its cells joined by ",".
    A batch where some text holds a character csv.writer quotes, or that
    an interpreter's csv handles its own way, goes through csv.writer."""
    tx_hash, sender, receiver, value, timestamp, block, kind, log_index = zip(*events)
    text = "\n".join(map(",".join, zip(
        tx_hash, sender, receiver, map(str, value), map(str, timestamp), map(str, block),
        map(str, log_index), kind))) + "\n"
    if (text.count(",") == 7 * len(events) and text.count("\n") == len(events)
            and '"' not in text and "\r" not in text and "\0" not in text):
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(map(_STORE_ROW, events))
    return buffer.getvalue()


def write_transfers_csv(events: list[TransferEvent], path) -> str:
    """Write `events`, which must already be in EVENT_ORDER, as parse_transfers
    and build_event_store return them, with the bytes artifacts.write_csv
    writes, and return the sha256 of those bytes."""
    digest = hashlib.sha256()
    batches = (events[i:i + _ROWS] for i in range(0, len(events), _ROWS))
    with artifacts.open_for_write(path, "wb") as fh:
        for text in chain([",".join(STORE_COLUMNS) + "\n"], map(_store_rows, batches)):
            data = text.encode()
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def write_contracts_csv(contracts: list[ContractInfo], path) -> None:
    artifacts.write_csv(
        CONTRACT_COLUMNS,
        ([c.address, c.name, c.category.value]
         for c in sorted(contracts, key=lambda c: c.address)),
        path,
    )


def write_claims_csv(claims: list[ClaimRecord], path) -> None:
    artifacts.write_csv(
        CLAIM_COLUMNS,
        ([c.address, c.tier.value, c.amount, c.claim_timestamp]
         for c in sorted(claims, key=lambda c: c.address)),
        path,
    )


class CorruptStoreError(artifacts.MissingArtifactError):
    """An ingest artifact fails one of read_store's integrity checks."""

    def __init__(self, detail: str):
        super().__init__(f"ingest artifacts are corrupt ({detail}); re-run the ingest stage")


def _read_canonical(path: Path, columns: list[str], build) -> list:
    """The records `build(reader)` makes of a canonical CSV's rows. A bad
    row stops `build` while the reader is on its line, so the error names it."""
    with artifacts.open_for_read(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != columns:
                raise CorruptStoreError(f"{path}: header is not {','.join(columns)}")
            return build(reader)
        except (ValueError, KeyError, csv.Error) as exc:
            raise CorruptStoreError(f"{path} line {reader.line_num}: bad row ({exc})") from exc


# Characters per read of events.csv. Every buffer stays under glibc's 128 KiB
# mmap threshold: freeing a larger one raises that threshold, and the heap of
# every later stage in the process then grows by more than the load's own work.
_CHUNK = 1 << 16
# A row's last cell with the "\n" that ends it, as _split_events cuts it.
_LINE_KINDS = {f"{k.value}\n": k for k in EventKind}
_new_event = partial(tuple.__new__, TransferEvent)  # a TransferEvent from a tuple of its fields


def _split_events(path: Path, raw: bool = False,
                  allow_self_transfers: bool = True) -> list[TransferEvent] | None:
    """The events of events.csv, split at commas and newlines a chunk of
    whole lines at a time with no per-row Python code. A list it returns is
    the one _events builds from the same file.

    None, and read_store reads the file with csv, when csv would read some
    text its own way (a quote, "\\r", NUL, or a cell over its field size
    limit), the header is not STORE_COLUMNS, a row has not 8 cells, a cell
    does not parse, or the file does not end in "\\n". Each "\\n" stays at
    the end of the kind cell it closes, so a kind parses only as the last
    cell of its line and no row can borrow cells from another.

    With `raw`, for parse_transfers, also None unless every row is in the
    form that parse_transfers' row loop keeps unchanged (_canonical_rows),
    and every address is "0x" and 40 lowercase hex digits, checked once,
    with the chunk that names it first.
    """
    addresses: dict[str, str] = {}
    share = addresses.setdefault  # one string per address, shared by its events
    events: list[TransferEvent] = []
    with artifacts.open_for_read(path, newline="") as fh:
        if fh.readline() != ",".join(STORE_COLUMNS) + "\n":
            return None
        tail = ""
        try:
            while chunk := fh.read(_CHUNK):
                text = tail + chunk
                cut = text.rfind("\n") + 1
                text, tail = text[:cut], text[cut:]
                # Only the first line, carried over, can be longer than a
                # chunk; csv's field size limit is 2 * _CHUNK by default.
                if ('"' in text or "\r" in text or "\0" in text
                        or text.find("\n") > csv.field_size_limit()):
                    return None
                cells = text.replace("\n", "\n,").split(",")
                if len(cells) != 8 * text.count("\n") + 1:
                    return None
                columns = [cells[i:-1:8] for i in range(8)]
                if raw and not _canonical_rows(columns, allow_self_transfers):
                    return None
                tx_hash, sender, receiver, value, timestamp, block, log_index, kind = columns
                known = len(addresses)
                events += map(_new_event, zip(
                    tx_hash, map(share, sender, sender), map(share, receiver, receiver),
                    map(int, value), map(int, timestamp), map(int, block),
                    map(_LINE_KINDS.__getitem__, kind), map(int, log_index)))
                # the addresses this chunk named first, the newest keys
                if raw and not _hex_cells(
                        list(islice(reversed(addresses), len(addresses) - known)), 40):
                    return None
        except (ValueError, KeyError):  # UnicodeDecodeError is a ValueError
            return None
    return None if tail else events


# str.translate tables that delete the characters of canonical cells and
# the "," that joins them: of hex cells only the "x" of each "0x" is left,
# of number cells nothing.
_HEX_DIGITS = str.maketrans("", "", "0123456789abcdef,")
_DIGITS = str.maketrans("", "", "0123456789,")


def _hex_cells(cells: list[str], digits: int) -> bool:
    """Whether every one of `cells`, none of which holds a ",", is "0x"
    and `digits` lowercase hex digits. Joined by ",", cells are all that
    long exactly when the commas fall every `digits` + 3 characters. The
    cells come from one chunk, so the joined text is no longer than the
    chunk's and stays under glibc's mmap threshold (see _CHUNK)."""
    width, n = digits + 3, len(cells)
    text = ",".join(cells)
    return not n or (len(text) == width * n - 1 and text[width - 1::width] == "," * (n - 1)
                     and text[::width] == "0" * n and text[1::width] == "x" * n
                     and text.translate(_HEX_DIGITS) == "x" * n)


def _canonical_rows(columns: list[list[str]], allow_self_transfers: bool) -> bool:
    """Whether the rows whose STORE_COLUMNS cells are `columns` are as
    write_transfers_csv writes them, so that parse_transfers' row loop
    would keep every one unchanged: a tx hash of "0x" and 64 lowercase hex
    digits; value, timestamp, block and log index in ASCII digits alone (so
    none is negative); and no self-transfer unless they are allowed.
    Addresses are checked once each, by _split_events; a kind is checked
    as it parses, and an empty number fails to parse."""
    tx_hash, sender, receiver, *numbers, _ = columns
    return (_hex_cells(tx_hash, 64)
            and not ",".join(chain(*numbers)).translate(_DIGITS)
            and (allow_self_transfers or not any(map(eq, sender, receiver))))


def _events(reader) -> list[TransferEvent]:
    share = {}.setdefault  # one string per address, shared by its events
    return [TransferEvent(tx_hash, share(sender, sender), share(receiver, receiver), int(value),
                          int(timestamp), int(block), _KINDS[kind], int(log_index))
            for tx_hash, sender, receiver, value, timestamp, block, log_index, kind in reader]


def _contracts(reader) -> list[ContractInfo]:
    return [ContractInfo(address, name, ContractCategory(category))
            for address, name, category in reader]


def _claims(reader) -> list[ClaimRecord]:
    return [ClaimRecord(address, Tier(int(tier)), int(amount), int(timestamp))
            for address, tier, amount, timestamp in reader]


def _by_address(records: list, expected: int, path: Path) -> dict:
    out = {r.address: r for r in records}
    if not len(records) == len(out) == expected:
        raise CorruptStoreError(
            f"{path}: {len(records)} rows and {len(out)} addresses, report.json says {expected}"
        )
    return out


def read_records(stage_dir) -> tuple[IngestReport, dict[Address, ContractInfo],
                                     dict[Address, ClaimRecord]]:
    """Ingest's report, contracts and claims, read from `stage_dir` and
    trusted as read_store trusts them: exact headers, cells that parse, no
    address twice, and row counts equal to report.json's. A failed check
    raises CorruptStoreError, and a file that cannot be opened or decoded
    MissingArtifactError. events.csv is not opened."""
    stage_dir = Path(stage_dir)
    report_path = stage_dir / "report.json"
    try:
        report = IngestReport.from_json(artifacts.read_json(report_path))
    except (ValueError, TypeError, KeyError) as exc:
        raise CorruptStoreError(f"{report_path}: not an ingest report ({exc})") from exc
    path = stage_dir / "contracts.csv"
    contracts = _by_address(_read_canonical(path, CONTRACT_COLUMNS, _contracts),
                            report.n_contracts, path)
    path = stage_dir / "claims.csv"
    claims = _by_address(_read_canonical(path, CLAIM_COLUMNS, _claims),
                         report.n_claims, path)
    return report, contracts, claims


def read_store(stage_dir, config: IngestConfig | None = None) -> EventStore:
    """Load the store that ingest wrote to `stage_dir`, trusting its files.

    The report, contracts and claims are read_records'. Ingest left
    events.csv normalized, sorted and deduplicated, so rows become records
    without re-validation. events.csv is split at commas and newlines, and
    read with csv when it holds a text that csv reads its own way or a row
    that fails, so a bad row is named by its line. What is checked of it is
    what a damaged file or a later config can break: its exact header, a
    row count equal to report.json's, cells that parse, non-decreasing
    timestamps, and no self-transfer unless the config allows them. The
    config's study window is applied again, so a window narrowed after
    ingest drops the events outside it. Any failed check raises
    CorruptStoreError, and a file that cannot be opened or decoded
    MissingArtifactError. The store's report is ingest's own, read from
    report.json.
    """
    config = config or IngestConfig()
    stage_dir = Path(stage_dir)
    report, contracts, claims = read_records(stage_dir)

    path = stage_dir / "events.csv"
    events = _split_events(path)
    if events is None:
        events = _read_canonical(path, STORE_COLUMNS, _events)
    if len(events) != report.stored:
        raise CorruptStoreError(
            f"{path}: {len(events)} rows, report.json says {report.stored} stored"
        )
    # Event i is on line i + 2. Both scans run in C and stop at the first hit.
    timestamps = list(map(attrgetter("timestamp"), events))
    unsorted = next(compress(count(3), map(gt, timestamps, islice(timestamps, 1, None))), None)
    if unsorted is not None:
        raise CorruptStoreError(f"{path} line {unsorted}: timestamp out of order")
    if not config.allow_self_transfers:
        selfish = next(compress(count(2), map(eq, map(attrgetter("sender"), events),
                                              map(attrgetter("receiver"), events))), None)
        if selfish is not None:
            raise CorruptStoreError(f"{path} line {selfish}: self-transfer not allowed by config")
    bounds = config.window_bounds()
    if bounds:
        events = events[bisect_left(timestamps, bounds[0]):bisect_right(timestamps, bounds[1])]
    return EventStore(events, contracts, claims, config, report)
