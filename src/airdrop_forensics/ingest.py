"""Parsing, validation, and normalization of raw transaction exports.

Four inputs feed the pipeline: token transfer rows, external transaction
rows, a contract dictionary (address -> name/category), and the airdrop
claim list. Everything lands in an EventStore: a sorted, deduplicated,
immutable-by-convention record that all downstream stages consume. The
ingest stage writes it out once in canonical form through the artifacts
module's writers, and records the sha256 each returns; read_store loads
that form back, trusting each file whose bytes match its digest, without
repeating the raw-input validation.

Ingest's own events are TransferEvents, immutable named tuples, so each
costs one tuple to build and EVENT_ORDER sorts by position in C. Their
tx hash, block and log index order and deduplicate the store, and no
later stage reads them. The stages read each kind's events as one
EventColumns record: four parallel lists of the senders, receivers,
values and timestamps, in store order. read_store fills those columns
straight from the cells of each chunk of events.csv, which it splits
once, and builds no per-event object. A raw export already in the
store's form is split, with every check the row loop would make, by a
splitter of its own with no per-row Python code; any other is read
positionally, one pass per file, and every address text is normalized
once. Either way, events that name the same address share one string.
Each raw file is sorted once, the merge of the two is sorted once more
(two sorted runs, so linear), and write_transfers_csv trusts its input
to be in that order.

An exact repeat of a raw row is dropped and counted as deduplicated,
in all four exports: an event by its tx hash, log index and kind, a
contract or a claim by all of its fields. Another contract row for a
listed address is malformed, and another claim raises
DuplicateClaimError.

Token amounts are integers in the smallest unit (18 decimals); display
scaling happens only at report boundaries, never inside computations.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import logging
import re
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field
from datetime import date, datetime, timezone
from enum import Enum
from functools import partial
from itertools import chain, compress, count, islice, repeat
from operator import eq, itemgetter
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


class EventColumns(NamedTuple):
    """The events of one kind, in store order, as four parallel lists:
    the fields the later stages read. zip(*columns) gives each event's
    (sender, receiver, value, timestamp)."""

    senders: list[Address]
    receivers: list[Address]
    values: list[int]
    timestamps: list[int]


# The store's event order: (timestamp, block, tx_hash, log_index).
EVENT_ORDER = itemgetter(4, 5, 0, 7)
# The dedup key: (tx_hash, log_index, kind). kind qualifies the key so a
# token transfer is never collapsed with the external transaction that
# carried it.
_DEDUP_KEY = itemgetter(0, 7, 6)
_SENDER, _RECEIVER, _TIMESTAMP, _KIND = map(itemgetter, (1, 2, 4, 6))
# The fields of a TransferEvent that make its EventColumns.
_COLUMN_FIELDS = (_SENDER, _RECEIVER, itemgetter(3), _TIMESTAMP)
_KINDS = {k.value: k for k in EventKind}


@dataclass(frozen=True, slots=True)
class ContractInfo:
    address: Address
    name: str
    category: ContractCategory


class ClaimRecord(NamedTuple):
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
            events = _split_events(path, allow_self_transfers)
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
    """Parse the contract dictionary CSV (address,name,category). An exact
    repeat of a row is kept, for build_event_store to drop and count;
    another row for a listed address is malformed."""
    errors: list[MalformedRow] = []
    contracts: list[ContractInfo] = []
    seen: dict[Address, ContractInfo] = {}
    for line_no, (address, name, category) in _iter_rows(path, CONTRACT_COLUMNS, errors):
        try:
            address = normalize_address(_cell(address, "address"))
            name = _cell(name, "name").strip()
            if "\r" in name:  # see artifacts.write_csv
                raise ValueError(f"contract name {name!r} holds a carriage return")
            category_text = _cell(category, "category")
            category = _CATEGORY_LOOKUP.get(category_text.strip().lower())
            if category is None:
                raise ValueError(f"unknown category {category_text!r}")
            info = ContractInfo(address, name, category)
            if seen.setdefault(address, info) != info:
                raise ValueError(f"duplicate contract entry for {address}")
            contracts.append(info)
        except (ValueError, KeyError) as exc:
            errors.append(MalformedRow(line_no, str(exc)))
    contracts.sort(key=lambda c: c.address)
    return contracts, sorted(errors)


def parse_claims(path) -> tuple[list[ClaimRecord], list[MalformedRow]]:
    """Parse the claim list CSV (address,tier,amount,timestamp).

    The amount must equal the tier face value in smallest units; mismatches
    are malformed rows. Repeated addresses surface later, when
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
    """Canonical, time-ordered event record. Treat as read-only once built.
    `columns` holds each loaded kind's events, in store order, even when
    there are none: every kind for build_event_store, the kinds it was
    asked to load for read_store. `events` holds build_event_store's
    TransferEvents of every kind, for write_store, and its columns are
    built from them on first use: the ingest stage writes the events and
    reads no column. read_store builds no per-event object and leaves
    `events` None."""

    events: list[TransferEvent] | None
    contracts: dict[Address, ContractInfo]
    claims: dict[Address, ClaimRecord]
    config: IngestConfig
    report: IngestReport
    # read_store's columns, or None until `columns` builds them from `events`
    _columns: dict[EventKind, EventColumns] | None = field(default=None, repr=False)

    @property
    def columns(self) -> dict[EventKind, EventColumns]:
        """Each loaded kind's EventColumns, by kind."""
        if self._columns is None:
            self._columns = _columns_by_kind(self.events)
        return self._columns

    def columns_of(self, kind: EventKind) -> EventColumns:
        """The store's events of `kind`, in store order: the record itself,
        not a copy. ValueError if the store did not load that kind, so a
        stage never takes an unloaded kind for one with no events."""
        columns = self.columns.get(kind)
        if columns is None:
            raise ValueError(f"the store did not load {EventKind(kind).value} events")
        return columns


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
    addresses that never appear in any event are reported but kept. An
    exact repeat of a contract or a claim is dropped and counted with the
    duplicate events. Raises DuplicateClaimError if an address claims
    twice with other fields, and IngestError if a contract is listed
    twice with other fields.
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
        if claim_map.setdefault(rec.address, rec) != rec:
            raise DuplicateClaimError(rec.address)
    contract_map: dict[Address, ContractInfo] = {}
    for info in contracts:
        if contract_map.setdefault(info.address, info) != info:
            raise IngestError(f"contract {info.address} is listed twice with other fields")
    repeats = len(claims) - len(claim_map) + len(contracts) - len(contract_map)
    report.input_rows += repeats
    report.deduplicated += repeats

    report.claims_without_events = sorted(set(claim_map).difference(
        map(_SENDER, kept), map(_RECEIVER, kept)))
    kinds = list(map(_KIND, kept))
    report.stored = len(kept)
    report.token_events = kinds.count(EventKind.TOKEN_TRANSFER)
    report.external_events = kinds.count(EventKind.EXTERNAL_TX)
    report.internal_events = kinds.count(EventKind.INTERNAL_TX)
    report.n_contracts = len(contract_map)
    report.n_claims = len(claim_map)
    if report.claims_without_events:
        log.warning(
            "%d claim addresses never appear in any event",
            len(report.claims_without_events),
        )
    return EventStore(kept, contract_map, claim_map, config, report)


def _columns_by_kind(events: list[TransferEvent]) -> dict[EventKind, EventColumns]:
    """The EventColumns of each kind's `events`, in their order: each
    kind's events picked by one compress, then read field by field."""
    kinds = list(map(_KIND, events))
    columns = {}
    for kind in EventKind:
        n = kinds.count(kind)
        of_kind = (events if n == len(kinds)
                   else list(compress(events, map(eq, kinds, repeat(kind)))) if n else [])
        columns[kind] = EventColumns(*(list(map(field, of_kind)) for field in _COLUMN_FIELDS))
    return columns


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


# Canonical writers: sorted rows in a fixed column order, written by
# artifacts.write_csv; parse(write(parse(x))) round-trips exactly. read_store
# reads back what write_store writes, by its digests, without re-validation.
def write_transfers_csv(events: list[TransferEvent], path) -> str:
    """Write `events`, which must already be in EVENT_ORDER, as parse_transfers
    and build_event_store return them; the sha256 of the bytes. A text that
    csv.writer would quote, which parse_transfers never leaves in an event,
    is a ValueError: events.csv always splits at its commas and newlines."""
    tx_hash, sender, receiver, value, timestamp, block, kind, log_index = (
        map(itemgetter(i), events) for i in range(8))
    return artifacts.write_csv(STORE_COLUMNS, zip(
        tx_hash, sender, receiver, map(str, value), map(str, timestamp), map(str, block),
        map(str, log_index), kind), path, quote=False)


def write_contracts_csv(contracts: list[ContractInfo], path) -> str:
    """Write `contracts` sorted by address; the sha256 of the bytes."""
    return artifacts.write_csv(CONTRACT_COLUMNS, (
        [c.address, c.name, c.category.value] for c in sorted(contracts, key=lambda c: c.address)
    ), path)


def write_claims_csv(claims: list[ClaimRecord], path) -> str:
    """Write `claims` sorted by address; the sha256 of the bytes. Like
    events.csv, claims.csv always splits at its commas and newlines."""
    return artifacts.write_csv(CLAIM_COLUMNS, (
        [c.address, str(c.tier.value), str(c.amount), str(c.claim_timestamp)]
        for c in sorted(claims, key=lambda c: c.address)
    ), path, quote=False)


def write_store(store: EventStore, stage_dir) -> None:
    """Write `store` to `stage_dir` as the ingest stage leaves it:
    events.csv, contracts.csv, claims.csv and report.json, then run.json,
    which records the sha256 that each writer returned. read_records and
    read_store trust a file whose bytes match its digest. run.json is
    written last, so a write cut short leaves files that the record of an
    earlier run does not match."""
    stage_dir = Path(stage_dir)
    digests = {
        "events.csv": write_transfers_csv(store.events, stage_dir / "events.csv"),
        "contracts.csv": write_contracts_csv(list(store.contracts.values()),
                                             stage_dir / "contracts.csv"),
        "claims.csv": write_claims_csv(list(store.claims.values()), stage_dir / "claims.csv"),
        "report.json": artifacts.write_json(store.report.to_json(), stage_dir / "report.json"),
    }
    artifacts.write_json({"outputs": {name: {"sha256": digest} for name, digest in digests.items()}},
                         stage_dir / "run.json")


class CorruptStoreError(artifacts.MissingArtifactError):
    """An ingest artifact that read_store or read_records cannot trust."""

    def __init__(self, detail: str):
        super().__init__(f"ingest artifacts are corrupt ({detail}); re-run the ingest stage")


def _mismatch(path: Path, recorded: dict[str, str]) -> CorruptStoreError:
    return CorruptStoreError(
        f"{path} does not match the sha256 {recorded[path.name]} that ingest recorded in run.json")


def _verified(path: Path, recorded: dict[str, str]) -> bytes:
    """The bytes of `path`, which must match their sha256 in `recorded`."""
    with artifacts.open_for_read(path, mode="rb") as fh:
        data = fh.read()
    if hashlib.sha256(data).hexdigest() != recorded[path.name]:
        raise _mismatch(path, recorded)
    return data


def _csv_rows(data: bytes):
    """The rows after the header of a CSV file's bytes."""
    return islice(csv.reader(io.StringIO(data.decode(), newline="")), 1, None)


# Bytes per read of events.csv. Every buffer stays under glibc's 128 KiB
# mmap threshold: freeing a larger one raises that threshold, and the heap of
# every later stage in the process then grows by more than the load's own work.
_CHUNK = 1 << 16
# A row's last cell with the "\n" that ends it, as _split_events cuts it.
_LINE_KINDS = {f"{k.value}\n": k for k in EventKind}
# Each kind by the first character of its text, which no two kinds share.
_KIND_INITIALS = {k.value[0]: k for k in EventKind}
# An event from a tuple of its fields.
_new_event = partial(tuple.__new__, TransferEvent)
_INITIAL = itemgetter(0)


def _line_chunks(fh) -> Iterator[tuple[bytes, str]]:
    """Each chunk that binary file `fh` reads from its position on, with
    the text of the whole lines it ends: what the last chunk left after its
    last "\\n", and this chunk's text up to and with its own last "\\n".
    ValueError if the bytes are not UTF-8 or do not end in "\\n"."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    tail = ""
    while chunk := fh.read(_CHUNK):
        text = tail + decode(chunk)
        cut = text.rfind("\n") + 1
        text, tail = text[:cut], text[cut:]
        yield chunk, text
    decode(b"", True)
    if tail:
        raise ValueError("no final newline")


def _split_store(path: Path, kinds: frozenset[EventKind]
                 ) -> tuple[dict[EventKind, EventColumns], int | None, str] | None:
    """For read_store: the EventColumns of each of `kinds`, filled from the
    rows of events.csv of that kind; the index of the first row that is a
    self-transfer, or None; and the sha256 of the file's bytes, hashed as
    they are read.

    Each chunk of whole lines is split once, at its commas, with no per-row
    Python code. A row's 8 cells then take 7 places: its kind cell holds
    the kind, the "\\n" that ends the row and the next row's tx hash, and
    the kind is read from its first character. A chunk of one kind is
    appended to that kind's columns whole, a mixed one by one compress per
    kind. Nothing else of the file is checked, as read_store trusts its
    rows once that digest matches ingest's record; a file that does not
    split, and so cannot match it, gives None.
    """
    columns = {k.value[0]: EventColumns([], [], [], []) for k in EventKind if k in kinds}
    addresses: dict[str, str] = {}
    share = addresses.setdefault  # one string per address, shared by its events
    rows = 0
    self_transfer = None
    digest = hashlib.sha256()
    with artifacts.open_for_read(path, mode="rb") as fh:
        digest.update(fh.readline())  # the header
        try:
            for chunk, text in _line_chunks(fh):
                digest.update(chunk)
                cells = text.split(",")
                sender, receiver, value, timestamp = (cells[i::7] for i in range(1, 5))
                initials = list(map(_INITIAL, cells[7::7]))
                if self_transfer is None:
                    self_transfer = next(compress(count(rows), map(eq, sender, receiver)), None)
                rows += len(initials)
                present = set(initials)
                if not present <= _KIND_INITIALS.keys():
                    return None
                for initial, (senders, receivers, values, timestamps) in columns.items():
                    if initial not in present:
                        continue
                    if len(present) == 1:
                        s, r, v, t = sender, receiver, value, timestamp
                    else:
                        keep = list(map(initial.__eq__, initials))
                        s, r, v, t = (list(compress(column, keep))
                                      for column in (sender, receiver, value, timestamp))
                    senders += map(share, s, s)
                    receivers += map(share, r, r)
                    values += map(int, v)
                    timestamps += map(int, t)
        except (ValueError, IndexError):  # UnicodeDecodeError is a ValueError
            return None
    return ({_KIND_INITIALS[initial]: kind_columns for initial, kind_columns in columns.items()},
            self_transfer, digest.hexdigest())


def _split_events(path: Path, allow_self_transfers: bool) -> list[TransferEvent] | None:
    """A raw export in the form write_transfers_csv writes, split at commas
    and newlines, a chunk of whole lines at a time, with no per-row Python
    code, for parse_transfers: the TransferEvents of every row. Each "\\n"
    stays at the end of the kind cell it closes, so a kind parses only as
    the last cell of its line.

    None unless csv would read the file the same way and every row is in
    the form that parse_transfers' row loop keeps unchanged. That is: no
    quote, "\\r", NUL or cell over csv's field size limit; the header
    STORE_COLUMNS; 8 cells a row, so that no row can borrow cells from
    another; cells that parse (_canonical_rows); every address "0x" and 40
    lowercase hex digits, checked once, with the chunk that names it
    first; and a final "\\n".
    """
    addresses: dict[str, str] = {}
    share = addresses.setdefault  # one string per address, shared by its events
    events: list[TransferEvent] = []
    with artifacts.open_for_read(path, mode="rb") as fh:
        if fh.readline() != f"{','.join(STORE_COLUMNS)}\n".encode():
            return None
        try:
            for _, text in _line_chunks(fh):
                cells = text.replace("\n", "\n,").split(",")
                columns = [cells[i:-1:8] for i in range(8)]
                tx_hash, sender, receiver, value, timestamp, block, log_index, kind = columns
                # Only the first line, carried over, can be longer than a
                # chunk; csv's field size limit is 2 * _CHUNK by default.
                if ('"' in text or "\r" in text or "\0" in text
                        or text.find("\n") > csv.field_size_limit()
                        or len(cells) != 8 * text.count("\n") + 1
                        or not _canonical_rows(columns, allow_self_transfers)):
                    return None
                known = len(addresses)
                events += map(_new_event, zip(
                    tx_hash, map(share, sender, sender), map(share, receiver, receiver),
                    map(int, value), map(int, timestamp), map(int, block),
                    map(_LINE_KINDS.__getitem__, kind), map(int, log_index)))
                # the addresses this chunk named first, the newest keys
                if not _hex_cells(list(islice(reversed(addresses), len(addresses) - known)), 40):
                    return None
        except (ValueError, KeyError):  # UnicodeDecodeError is a ValueError
            return None
    return events


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


def _digit_cells(*columns: list[str]) -> bool:
    """Whether every cell of `columns`, none of which holds a ",", is one
    or more ASCII digits. An empty cell leaves nothing for translate to
    show, so it is looked for on its own."""
    cells = [*chain(*columns)]
    return all(cells) and not ",".join(cells).translate(_DIGITS)


def _canonical_rows(columns: list[list[str]], allow_self_transfers: bool) -> bool:
    """Whether the rows whose STORE_COLUMNS cells are `columns` are as
    write_transfers_csv writes them, so that parse_transfers' row loop
    would keep every one unchanged: a tx hash of "0x" and 64 lowercase hex
    digits; value, timestamp, block and log index in ASCII digits alone (so
    none is negative); and no self-transfer unless they are allowed.
    Addresses are checked once each, by _split_events; a kind is checked
    as it parses."""
    tx_hash, sender, receiver, *numbers, _ = columns
    return (_hex_cells(tx_hash, 64) and _digit_cells(*numbers)
            and (allow_self_transfers or not any(map(eq, sender, receiver))))


_TIERS = {t.value: t for t in Tier}
_new_claim = partial(tuple.__new__, ClaimRecord)


def _claims(data: bytes) -> dict[Address, ClaimRecord]:
    """The claims of claims.csv's bytes, by address. A file that matches
    ingest's digest holds hex and digits alone, so it splits exactly at
    its commas and newlines."""
    cells = data.decode().split("\n", 1)[1].replace("\n", ",").split(",")
    addresses, tiers, amounts, timestamps = (cells[i:-1:4] for i in range(4))
    return dict(zip(addresses, map(_new_claim, zip(
        addresses, map(_TIERS.__getitem__, map(int, tiers)), map(int, amounts),
        map(int, timestamps)))))


class IngestRecords(NamedTuple):
    """Ingest's report, contracts and claims, and the sha256 that run.json
    records for each file ingest wrote, by file name."""

    report: IngestReport
    contracts: dict[Address, ContractInfo]
    claims: dict[Address, ClaimRecord]
    digests: dict[str, str]


def read_records(stage_dir) -> IngestRecords:
    """Ingest's report, contracts and claims, read from `stage_dir`, and
    the digests run.json records. Each file is parsed without re-validation
    once its bytes match the sha256 that ingest recorded for it in
    run.json; one that does not raises CorruptStoreError. A run.json or a
    file that is missing, or cannot be read, raises MissingArtifactError.
    events.csv is not opened."""
    stage_dir = Path(stage_dir)
    recorded = {name: output["sha256"]
                for name, output in artifacts.read(stage_dir / "run.json")["outputs"].items()}
    report = IngestReport.from_json(json.loads(_verified(stage_dir / "report.json", recorded)))
    contracts = {address: ContractInfo(address, name, ContractCategory(category))
                 for address, name, category
                 in _csv_rows(_verified(stage_dir / "contracts.csv", recorded))}
    claims = _claims(_verified(stage_dir / "claims.csv", recorded))
    return IngestRecords(report, contracts, claims, recorded)


class SelfTransferDisallowedError(artifacts.UserError):
    """An intact store holds a self-transfer that the config does not allow."""

    code = artifacts.MissingArtifactError.code


def read_store(stage_dir, config: IngestConfig | None = None,
               kinds: Iterable[EventKind] = tuple(EventKind),
               records: IngestRecords | None = None) -> EventStore:
    """Load the store that ingest wrote to `stage_dir`, trusting its files
    by their digests.

    The report, contracts and claims are `records`, which must be
    read_records' of `stage_dir`, or are read by it. events.csv is hashed
    as it is split, and it must match the sha256 that ingest recorded in
    run.json, or read_store raises CorruptStoreError. Once it does, its
    rows are ingest's own: normalized, sorted and deduplicated. The rows of
    each of `kinds` fill that kind's EventColumns with the four fields the
    later stages read: sender, receiver, value and timestamp. The store's
    columns hold those kinds alone, columns_of refuses any other, and its
    events are None: no per-event object is built. A row's tx hash, block
    and log index are not kept; parse_transfers of events.csv gives the
    full TransferEvents. The config may have changed since ingest, so its
    rules are applied again: any self-transfer raises
    SelfTransferDisallowedError unless the config allows them, and the
    study window drops the events outside it. The store's report is
    ingest's own, read from report.json.
    """
    config = config or IngestConfig()
    kinds = frozenset(map(EventKind, kinds))
    stage_dir = Path(stage_dir)
    report, contracts, claims, recorded = records or read_records(stage_dir)
    path = stage_dir / "events.csv"
    split = _split_store(path, kinds)
    if split is None or split[2] != recorded[path.name]:
        raise _mismatch(path, recorded)
    columns, self_transfer, _ = split
    if self_transfer is not None and not config.allow_self_transfers:
        raise SelfTransferDisallowedError(
            f"{path} line {self_transfer + 2}: self-transfer not allowed by config "
            "(allow_self_transfers is false); the store is intact, every file matching its "
            "digest: allow self-transfers, or re-run the ingest stage under this config")
    bounds = config.window_bounds()
    if bounds:
        for kind, (senders, receivers, values, timestamps) in columns.items():
            lo = bisect_left(timestamps, bounds[0])
            hi = bisect_right(timestamps, bounds[1], lo)
            if hi - lo < len(timestamps):
                columns[kind] = EventColumns(
                    senders[lo:hi], receivers[lo:hi], values[lo:hi], timestamps[lo:hi])
    return EventStore(None, contracts, claims, config, report, columns)
