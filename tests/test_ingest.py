import csv
import hashlib
import io
import json
import math
import random
import re
import tempfile
from functools import partial
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from airdrop_forensics import artifacts, ingest
from airdrop_forensics.ingest import (
    CLAIM_COLUMNS,
    CONTRACT_COLUMNS,
    EVENT_ORDER,
    STORE_COLUMNS,
    TRANSFER_COLUMNS,
    ContractCategory,
    CorruptStoreError,
    DuplicateClaimError,
    EventColumns,
    EventKind,
    IngestConfig,
    IngestError,
    SelfTransferDisallowedError,
    Tier,
    TransferEvent,
    _split_events,
    build_event_store,
    format_token_amount,
    normalize_address,
    parse_claims,
    parse_contracts,
    parse_transfers,
    read_store,
    write_claims_csv,
    write_contracts_csv,
    write_transfers_csv,
)

from conftest import (
    WINDOW_END, WINDOW_START, addr, assert_addresses_shared, claim, columns, contract, dedup_key,
    ev, stored,
)
from oracles import dictreader_parse_claims, dictreader_parse_contracts, dictreader_parse_transfers

A1 = "0x" + "a1" * 20
B2 = "0x" + "b2" * 20
HASH = "0x" + "ab" * 32


def transfer_csv(tmp_path, rows, header="tx_hash,from,to,value,timestamp,block"):
    path = tmp_path / "transfers.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_parse_normalizes_addresses_and_values(tmp_path):
    row = f"{HASH.upper()},{A1.upper()},{B2},5200000000000000000000,1637000000,13600000"
    events, errors = parse_transfers(transfer_csv(tmp_path, [row]))
    assert errors == []
    (event,) = events
    assert event.sender == A1
    assert event.receiver == B2
    assert event.tx_hash == HASH
    assert event.value == 5200 * 10**18


def test_empty_file_with_header_gives_empty_list(tmp_path):
    events, errors = parse_transfers(transfer_csv(tmp_path, []))
    assert events == [] and errors == []


def test_negative_value_reported_not_raised(tmp_path):
    row = f"{HASH},{A1},{B2},-5,1637000000,13600000"
    events, errors = parse_transfers(transfer_csv(tmp_path, [row]))
    assert events == []
    assert len(errors) == 1 and "negative value" in errors[0].reason
    assert errors[0].line == 2


def test_missing_header_is_file_level_failure(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nothing,like,a,transfer\n1,2,3,4\n")
    with pytest.raises(IngestError):
        parse_transfers(path)


def test_self_transfer_rejected_unless_configured(tmp_path):
    row = f"{HASH},{A1},{A1},10,1637000000,13600000"
    events, errors = parse_transfers(transfer_csv(tmp_path, [row]))
    assert events == [] and "self-transfer" in errors[0].reason
    events, errors = parse_transfers(transfer_csv(tmp_path, [row]), allow_self_transfers=True)
    assert len(events) == 1 and errors == []


def test_jsonl_input_parses_like_csv(tmp_path):
    path = tmp_path / "transfers.jsonl"
    path.write_text(
        json.dumps(
            {"tx_hash": HASH, "from": A1, "to": B2, "value": "7",
             "timestamp": 1637000000, "block": 1}
        )
        + "\n"
    )
    events, errors = parse_transfers(path)
    assert errors == [] and events[0].value == 7


def test_jsonl_values_read_as_csv_cells(tmp_path):
    """A JSONL value is read as the text its CSV cell would hold, null as an
    empty cell; a line that is not an object is a malformed row, reported
    in line order with the other malformed rows."""
    transfers = tmp_path / "transfers.jsonl"
    transfers.write_text("\n".join([
        json.dumps({"tx_hash": 5, "from": A1, "to": B2, "value": 1, "timestamp": 1, "block": 1}),
        "[1, 2]",
        json.dumps({"tx_hash": HASH, "from": A1, "to": B2, "value": 7,
                    "timestamp": 1637000000, "block": 1, "log_index": None, "kind": None}),
        "not json",
    ]) + "\n")
    events, errors = parse_transfers(transfers)
    assert [(e.value, e.log_index, e.kind) for e in events] == [(7, 0, EventKind.TOKEN_TRANSFER)]
    assert [e.line for e in errors] == [1, 2, 4]
    assert errors[1].reason == "JSONL row is not an object"
    contracts = tmp_path / "contracts.jsonl"
    contracts.write_text("\n".join([
        "[1, 2]",
        json.dumps({"address": A1, "name": None, "category": "Staking"}),
        json.dumps({"address": 7, "name": "x", "category": "Staking"}),
    ]) + "\n")
    parsed, errors = parse_contracts(contracts)
    assert [(c.address, c.name) for c in parsed] == [(A1, "")]
    assert [e.line for e in errors] == [1, 3]
    claims = tmp_path / "claims.jsonl"
    claims.write_text("5\n" + json.dumps(
        {"address": A1, "tier": 5200, "amount": Tier.T5200.amount, "timestamp": 1}) + "\n")
    parsed, errors = parse_claims(claims)
    assert [(c.tier, c.amount) for c in parsed] == [(Tier.T5200, Tier.T5200.amount)]
    assert [e.line for e in errors] == [1]


def test_output_sorted_regardless_of_row_order(tmp_path):
    rows = [
        f"0x{'0' * 63}2,{A1},{B2},1,1637000300,3",
        f"0x{'0' * 63}1,{A1},{B2},1,1637000100,1",
        f"0x{'0' * 63}3,{A1},{B2},1,1637000200,2",
    ]
    events, _ = parse_transfers(transfer_csv(tmp_path, rows))
    assert [e.timestamp for e in events] == [1637000100, 1637000200, 1637000300]


def test_shuffled_rows_yield_identical_store(tmp_path):
    rng = random.Random(7)
    rows = [
        f"0x{i:064x},{addr(1)},{addr(2)},{i},{WINDOW_START + i * 100},{i}"
        for i in range(1, 40)
    ]
    baseline = None
    for trial in range(10):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        events, _ = parse_transfers(transfer_csv(tmp_path, shuffled))
        store = build_event_store(events, [], [], [])
        snapshot = [(e.tx_hash, e.timestamp, e.value) for e in store.events]
        if baseline is None:
            baseline = snapshot
        assert snapshot == baseline


def test_duplicate_rows_collapse_to_one_event():
    e = ev(addr(1), addr(2), 5, ts=WINDOW_START + 10)
    dup = ev(addr(1), addr(2), 5, ts=WINDOW_START + 10, tx_hash=e.tx_hash)
    store = build_event_store([e, dup], [], [], [])
    assert store.report.stored == 1
    assert store.report.deduplicated == 1


def test_token_and_carrier_tx_share_hash_without_collapsing():
    token = ev(addr(1), addr(2), 5, tx_hash=HASH)
    carrier = ev(addr(1), addr(2), 5, tx_hash=HASH, kind=EventKind.EXTERNAL_TX)
    store = build_event_store([token], [carrier], [], [])
    assert store.report.stored == 2


def test_an_exact_repeat_of_a_contract_or_claim_is_dropped_and_counted(tmp_path):
    """A contract or claim row repeated exactly is dropped and counted as
    deduplicated, as a repeated event is; another row for a listed
    contract is malformed, and a contract listed twice with other fields
    is refused by build_event_store."""
    router = contract(A1, "dex router", ContractCategory.TRADING_SWAP)
    path = tmp_path / "contracts.csv"
    path.write_text("address,name,category\n" + f"{A1},dex router,TradingSwap\n" * 2
                    + f"{A1},dex router v2,TradingSwap\n")
    contracts, malformed = parse_contracts(path)
    assert contracts == [router, router]
    assert [(m.line, m.reason) for m in malformed] == [(4, f"duplicate contract entry for {A1}")]
    member = claim(B2)
    store = build_event_store([ev(A1, B2, 5)], [], contracts, [member, member], IngestConfig(),
                              malformed)
    assert (store.contracts, store.claims) == ({A1: router}, {B2: member})
    report = store.report
    assert (report.stored, report.deduplicated, report.n_contracts, report.n_claims) == (1, 2, 1, 1)
    assert report.input_rows == report.stored + len(report.malformed) + report.deduplicated == 4
    renamed = contract(A1, "dex router v2", ContractCategory.TRADING_SWAP)
    with pytest.raises(IngestError, match=f"contract {A1} is listed twice with other fields"):
        build_event_store([], [], [router, renamed], [], IngestConfig())


def test_duplicate_claim_raises():
    c1 = claim(addr(1))
    c2 = claim(addr(1), Tier.T7800)
    with pytest.raises(DuplicateClaimError):
        build_event_store([], [], [], [c1, c2])


def test_claims_outside_events_reported_not_dropped():
    store = build_event_store(
        [ev(addr(1), addr(2), 5)], [], [], [claim(addr(1)), claim(addr(3))]
    )
    assert store.report.claims_without_events == [addr(3)]
    assert addr(3) in store.claims  # reported, never dropped


def test_window_violations_counted():
    inside = ev(addr(1), addr(2), 5, ts=WINDOW_START + 1000)
    outside = ev(addr(1), addr(2), 5, ts=WINDOW_START - 1000)
    store = build_event_store([inside, outside], [], [], [])
    assert store.report.stored == 1
    assert store.report.window_excluded == 1


def test_no_event_silently_dropped(tmp_path):
    rows = [
        f"0x{'1' * 64},{A1},{B2},5,{WINDOW_START + 100},1",
        f"0x{'1' * 64},{A1},{B2},5,{WINDOW_START + 100},1",  # duplicate
        f"0x{'2' * 64},{A1},{B2},-1,{WINDOW_START + 100},1",  # malformed
        f"0x{'3' * 64},{A1},{B2},5,{WINDOW_START - 999},1",  # outside window
    ]
    events, errors = parse_transfers(transfer_csv(tmp_path, rows))
    store = build_event_store(events, [], [], [], parse_errors=errors)
    assert store.report.input_rows == 4
    assert (
        store.report.input_rows
        == store.report.stored + len(store.report.malformed) + store.report.deduplicated
    )


def test_claim_amount_must_match_tier_face_value(tmp_path):
    path = tmp_path / "claims.csv"
    path.write_text(
        "address,tier,amount,timestamp\n"
        f"{addr(1)},5200,{5200 * 10**18},{WINDOW_START}\n"
        f"{addr(2)},5200,123,{WINDOW_START}\n"
    )
    claims, errors = parse_claims(path)
    assert len(claims) == 1 and len(errors) == 1
    assert "face value" in errors[0].reason


def test_contract_categories_closed_set(tmp_path):
    path = tmp_path / "contracts.csv"
    path.write_text(
        "address,name,category\n"
        f"{addr(1)},pool,Staking\n"
        f"{addr(2)},mystery,SomethingElse\n"
    )
    contracts, errors = parse_contracts(path)
    assert len(contracts) == 1 and len(errors) == 1


def test_round_trip_is_byte_identical(tmp_path):
    rng = random.Random(3)
    rows = [
        f"0x{i:064x},{addr(rng.randint(1, 5))},{addr(rng.randint(6, 9))},"
        f"{rng.randint(0, 10**22)},{WINDOW_START + rng.randint(0, 10**6)},{i}"
        for i in range(30)
    ]
    events, _ = parse_transfers(transfer_csv(tmp_path, rows))
    first = tmp_path / "first.csv"
    write_transfers_csv(events, first)
    reparsed, errors = parse_transfers(first)
    assert errors == []
    second = tmp_path / "second.csv"
    write_transfers_csv(reparsed, second)
    assert first.read_bytes() == second.read_bytes()


def test_claims_and_contracts_round_trip(tmp_path):
    claims = [claim(addr(2), Tier.T10400), claim(addr(1))]
    contracts = [
        contract(addr(8), "pool", ContractCategory.STAKING)
    ]
    p1 = tmp_path / "claims.csv"
    write_claims_csv(claims, p1)
    parsed, errors = parse_claims(p1)
    assert errors == [] and [c.address for c in parsed] == [addr(1), addr(2)]
    p2 = tmp_path / "contracts.csv"
    write_contracts_csv(contracts, p2)
    parsed_c, errors_c = parse_contracts(p2)
    assert errors_c == [] and parsed_c == contracts


def test_format_token_amount_exact():
    assert format_token_amount(5200 * 10**18) == "5200"
    assert format_token_amount(10**18 // 2) == "0.5"
    assert format_token_amount(0) == "0"
    assert format_token_amount(-(3 * 10**18)) == "-3"


def test_normalize_address_validation():
    assert normalize_address(A1.upper()) == A1
    with pytest.raises(ValueError):
        normalize_address("0x1234")


# Round-trip properties. Raw exports come in any case, with or without the
# 0x prefix and with stray spaces; parse normalizes them, so writing the
# parsed records and parsing again must give the same records.

_PROPERTY = settings(max_examples=40, derandomize=True, deadline=None)


def _hex(draw, n: int, digits: int) -> str:
    mask = draw(st.integers(0, 2**digits - 1))  # bit i set: upper-case digit i
    body = "".join(c.upper() if mask >> i & 1 else c for i, c in enumerate(f"{n:0{digits}x}"))
    return draw(st.sampled_from(["", " "])) + draw(st.sampled_from(["0x", "0X", ""])) + body


@st.composite
def raw_transfer_rows(draw):
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        rows.append([
            _hex(draw, draw(st.integers(0, 5)), 64),
            _hex(draw, draw(st.integers(1, 4)), 40),
            _hex(draw, draw(st.integers(3, 6)), 40),
            str(draw(st.integers(0, 10**24))),
            str(WINDOW_START + draw(st.integers(-10**5, 10**7))),
            str(draw(st.integers(0, 50))),
            str(draw(st.integers(0, 3))),
        ])
    return rows


def _write_raw(path, header, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return path


@_PROPERTY
@given(rows=raw_transfer_rows(), kind=st.sampled_from(list(EventKind)),
       allow_self=st.booleans())
def test_parse_write_parse_transfers_round_trips(rows, kind, allow_self):
    with tempfile.TemporaryDirectory() as tmp:
        raw = _write_raw(Path(tmp) / "raw.csv", [*TRANSFER_COLUMNS, "log_index"], rows)
        events, _ = parse_transfers(raw, kind, allow_self)
        write_transfers_csv(events, Path(tmp) / "canonical.csv")
        again, errors = parse_transfers(Path(tmp) / "canonical.csv", kind, allow_self)
    assert errors == [] and again == events


@_PROPERTY
@given(rows=st.lists(st.tuples(
    st.integers(1, 6),
    st.text(max_size=12),
    st.sampled_from([c.value for c in ContractCategory] + ["staking", " CEX", "Bogus"]),
), max_size=8))
def test_parse_write_parse_contracts_round_trips(rows):
    with tempfile.TemporaryDirectory() as tmp:
        raw = _write_raw(Path(tmp) / "raw.csv", CONTRACT_COLUMNS,
                         [[addr(a), name, cat] for a, name, cat in rows])
        contracts, _ = parse_contracts(raw)
        write_contracts_csv(contracts, Path(tmp) / "canonical.csv")
        again, errors = parse_contracts(Path(tmp) / "canonical.csv")
    assert errors == [] and again == contracts


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_byte_order_mark_is_not_part_of_the_header(tmp_path, newline):
    rows = [[addr(1), 5200, Tier.T5200.amount, WINDOW_START], [addr(2), 7800, 1, WINDOW_START]]
    plain = _write_raw(tmp_path / "plain.csv", CLAIM_COLUMNS, rows)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\r\n", newline.encode()))
    claims, errors = parse_claims(marked)
    assert (claims, errors) == parse_claims(plain)
    assert len(claims) == 1 and [e.line for e in errors] == [3]


def test_line_separator_characters_are_data(tmp_path):
    names = ["pool\u2028two", "a\x85b", "c\x0cd"]
    raw = _write_raw(tmp_path / "raw.csv", CONTRACT_COLUMNS,
                     [[addr(i), name, "Staking"] for i, name in enumerate(names, 1)])
    contracts, errors = parse_contracts(raw)
    assert errors == [] and [c.name for c in contracts] == names
    write_contracts_csv(contracts, tmp_path / "canonical.csv")
    assert parse_contracts(tmp_path / "canonical.csv") == (contracts, [])


def test_a_contract_name_holding_a_carriage_return_is_malformed(tmp_path):
    """Under lines ended by "\\n", csv.writer may leave a "\\r" in a cell
    unquoted, and csv.reader reads it as the end of the row. So
    parse_contracts refuses such a name as a malformed row, and
    write_contracts_csv refuses to write one."""
    raw = _write_raw(tmp_path / "raw.csv", CONTRACT_COLUMNS,
                     [[addr(1), "dex\rrouter", "TradingSwap"], [addr(2), "pool", "Staking"]])
    contracts, errors = parse_contracts(raw)
    assert [c.name for c in contracts] == ["pool"]
    assert [(e.line, e.reason) for e in errors] == [
        (2, "contract name 'dex\\rrouter' holds a carriage return")]
    with pytest.raises(ValueError, match="carriage return"):
        write_contracts_csv([contract(addr(1), "dex\rrouter", ContractCategory.TRADING_SWAP)],
                            tmp_path / "canonical.csv")


@settings(max_examples=100, derandomize=True, deadline=None)
@example(claims=[])
@given(claims=st.lists(st.builds(
    claim, st.integers(0, 2**160 - 1).map(addr), st.sampled_from(list(Tier)),
    st.integers(-2**70, 2**70)), unique_by=lambda c: c.address, max_size=30))
def test_read_records_splits_the_claims_parse_claims_reads(claims):
    """read_records splits claims.csv once at its commas: for a file that
    matches ingest's digest, that gives the claims parse_claims reads from
    it, in the same order."""
    with tempfile.TemporaryDirectory() as tmp:
        stage = _write_stage(Path(tmp), build_event_store([], [], [], claims, IngestConfig()))
        got = ingest.read_records(stage).claims
        want, errors = parse_claims(stage / "claims.csv")
    assert errors == []
    assert list(got.items()) == [(c.address, c) for c in want]
    assert all(type(c) is ingest.ClaimRecord and type(c.tier) is Tier for c in got.values())


def test_undecodable_input_is_an_ingest_error(tmp_path):
    path = tmp_path / "claims.csv"
    path.write_bytes(b"address,tier,amount,timestamp\n\xff\n")
    with pytest.raises(IngestError, match="UTF-8"):
        parse_claims(path)


@_PROPERTY
@given(rows=st.lists(st.tuples(
    st.integers(1, 6), st.sampled_from([5200, 7800, 10400, 4000]), st.booleans(),
    st.integers(WINDOW_START - 10**5, WINDOW_START + 10**7),
), max_size=8))
def test_parse_write_parse_claims_round_trips(rows):
    with tempfile.TemporaryDirectory() as tmp:
        raw = _write_raw(Path(tmp) / "raw.csv", CLAIM_COLUMNS, [
            [addr(a).upper(), f" {tier}", tier * 10**18 + (0 if face else 1), ts]
            for a, tier, face, ts in rows
        ])
        claims, _ = parse_claims(raw)
        write_claims_csv(claims, Path(tmp) / "canonical.csv")
        again, errors = parse_claims(Path(tmp) / "canonical.csv")
    assert errors == [] and again == claims


@st.composite
def built_stores(draw):
    events = [
        ev(addr(draw(st.integers(1, 4))), addr(draw(st.integers(3, 6))),
           draw(st.integers(0, 10**24)),
           ts=WINDOW_START + draw(st.integers(-10**5, 10**7)),
           kind=draw(st.sampled_from(list(EventKind))),
           block=draw(st.integers(0, 50)),
           tx_hash=f"0x{draw(st.integers(0, 5)):064x}",
           log_index=draw(st.integers(0, 2)))
        for _ in range(draw(st.integers(0, 12)))
    ]
    contracts = [contract(addr(a), draw(st.text(max_size=6)),
                          draw(st.sampled_from(list(ContractCategory))))
                 for a in draw(st.sets(st.integers(5, 9), max_size=3))]
    claims = [claim(addr(a), draw(st.sampled_from(list(Tier))))
              for a in draw(st.sets(st.integers(1, 8), max_size=5))]
    config = IngestConfig(allow_self_transfers=draw(st.booleans()))
    return build_event_store(events, [], contracts, claims, config)


def _write_stage(stage: Path, store) -> Path:
    """The files ingest writes for `store`."""
    ingest.write_store(store, stage)
    return stage


def _one_odd_text(text: str):
    """A store whose tx_hash `text` sits mid-file among 1,100 plain events."""
    return build_event_store(
        [ev(addr(1), addr(2), i, ts=WINDOW_START + i) for i in range(1100)]
        + [ev(addr(1), addr(2), 5, ts=WINDOW_START + 700, tx_hash=text)],
        [], [], [], IngestConfig(None, None))


# Texts that csv.writer quotes, or that some interpreter's csv quotes or refuses.
@_PROPERTY
@example(store=_one_odd_text("0x,1"))
@example(store=_one_odd_text('0x"1'))
@example(store=_one_odd_text("0x\n1"))
@example(store=_one_odd_text("0x\r1"))
@example(store=_one_odd_text("0x\x001"))
@example(store=build_event_store([ev("0x\n" + "ab" * 20, addr(2), 5)], [], [], [],
                                 IngestConfig()))
@given(store=built_stores())
def test_events_csv_bytes_are_csv_writers(store):
    """write_transfers_csv writes what csv.writer writes for the stored
    events, and returns the sha256 of it. A text that csv.writer would
    quote is a ValueError: events.csv holds none, so it always splits at
    its commas and newlines."""
    with tempfile.TemporaryDirectory() as tmp:
        fast, reference = Path(tmp) / "fast.csv", Path(tmp) / "reference.csv"
        if any(c in text for e in store.events for text in e[:3] for c in ',"\r\n\0'):
            with pytest.raises(ValueError, match="in a cell"):
                write_transfers_csv(store.events, fast)
            return
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [STORE_COLUMNS, *(e[:6] + (e.log_index, e.kind) for e in store.events)])
        digest = write_transfers_csv(store.events, fast)
        written = fast.read_bytes()
        assert written == reference.read_bytes()
    assert digest == hashlib.sha256(written).hexdigest()


@_PROPERTY
@given(store=built_stores())
def test_read_store_of_written_store_is_the_store(store):
    with tempfile.TemporaryDirectory() as tmp:
        stage = _write_stage(Path(tmp), store)
        if not store.config.allow_self_transfers and any(
                e.sender == e.receiver for e in store.events):
            with pytest.raises(SelfTransferDisallowedError, match="self-transfer"):
                read_store(stage, store.config)
            return
        _assert_loaded(read_store(stage, store.config), store)


def _assert_loaded(loaded, store) -> None:
    """`loaded` is read_store's load of `store` as ingest wrote it: the
    columns build_event_store built, and no per-event record."""
    assert loaded.events is None
    assert loaded.columns == store.columns == stored(store.events)
    assert loaded.contracts == store.contracts
    assert loaded.claims == store.claims
    assert loaded.config == store.config
    assert loaded.report == store.report


def _load(stage: Path, config: IngestConfig, kinds=tuple(EventKind)):
    """read_store's store of `kinds`, or the message of its CorruptStoreError
    or SelfTransferDisallowedError."""
    try:
        return read_store(stage, config, kinds)
    except (CorruptStoreError, SelfTransferDisallowedError) as exc:
        return str(exc)


def _assert_kinds_of(part, whole, kinds) -> None:
    """`part`, a load of `kinds`, is the load `whole` of every kind
    filtered to `kinds`, or fails as it fails."""
    if isinstance(whole, str):
        assert part == whole
        return
    assert part.events is None
    assert part.columns == {k: c for k, c in whole.columns.items() if k in kinds}
    assert_addresses_shared(*part.columns.values())
    for kind in EventKind:
        if kind in kinds:
            assert part.columns_of(kind) is part.columns[kind]
        else:
            with pytest.raises(ValueError, match=f"did not load {kind.value} events"):
                part.columns_of(kind)
    assert (part.contracts, part.claims, part.config, part.report) == (
        whole.contracts, whole.claims, whole.config, whole.report)


# Every kind, values of 2**64 and more, log indexes above 0 and a self-transfer.
_EDGES = build_event_store(
    [ev(addr(1), addr(2), 2**64 + i, kind=kind, log_index=i + 1)
     for i, kind in enumerate(EventKind)] + [ev(addr(3), addr(3), 10**30, log_index=7)],
    [], [], [claim(addr(2))], IngestConfig(allow_self_transfers=True))


def _kinds_in_turn():
    """A store of 1,300 events whose kinds take turns, over several chunks."""
    kinds = list(EventKind)
    return build_event_store(
        [ev(addr(1 + i % 3), addr(4 + i % 5), i, ts=WINDOW_START + i, kind=kinds[i % 7 % 3])
         for i in range(1300)], [], [], [], IngestConfig(None, None))


@st.composite
def damage(draw):
    """An edit of events.csv: None, or (where, how many characters it
    removes, the text it puts in their place)."""
    if draw(st.booleans()):
        return None
    return (draw(st.floats(0, 1)), draw(st.integers(0, 3)),
            draw(st.text(alphabet=',\n\r"x5\0', max_size=3)))


_ALL = frozenset(EventKind)
_TOKEN = frozenset({EventKind.TOKEN_TRANSFER})


@_PROPERTY
@example(store=build_event_store([], [], [], [], IngestConfig()), edit=None, kinds=_ALL)
@example(store=_EDGES, edit=None, kinds=_TOKEN)
@example(store=_one_odd_text("0x" + "ab" * 32), edit=None, kinds=_ALL)  # rows straddle chunks
@example(store=_one_odd_text("0x" + "ab" * 70000), edit=None, kinds=_ALL)  # a row over 2 chunks
@example(store=_one_odd_text("0x" + "ab" * 32), edit=(1.0, 1, ""), kinds=_ALL)  # no final "\n"
@example(store=_kinds_in_turn(), edit=None, kinds=_TOKEN)
@example(store=_kinds_in_turn(), edit=(0.5, 0, "x"), kinds=_TOKEN)
@example(store=_kinds_in_turn(), edit=(0.5, 1, "5"), kinds=_TOKEN)
@given(store=built_stores(), edit=damage(), kinds=st.frozensets(st.sampled_from(list(EventKind))))
def test_read_store_trusts_events_csv_by_its_digest(store, edit, kinds):
    """read_store loads the store from an events.csv whose bytes match the
    sha256 ingest recorded, and fails on one that any edit has changed,
    naming the file and that digest. A load of `kinds` alone is the load
    of every kind filtered to `kinds`, or fails with the same message."""
    with tempfile.TemporaryDirectory() as tmp:
        stage = _write_stage(Path(tmp), store)
        path = stage / "events.csv"
        text = path.read_bytes().decode()
        recorded = json.loads((stage / "run.json").read_text())["outputs"]["events.csv"]["sha256"]
        if edit is not None:
            where, cut, put = edit
            at = int(where * (len(text) - 1))
            path.write_bytes((text[:at] + put + text[at + cut:]).encode())
        edited = path.read_bytes() != text.encode()
        whole = _load(stage, store.config)
        part = _load(stage, store.config, kinds)
    if edited:
        assert f"{path} does not match the sha256 {recorded} that ingest recorded" in whole
    elif isinstance(whole, str):
        assert "self-transfer not allowed by config" in whole
    else:
        _assert_loaded(whole, store)
        assert_addresses_shared(*whole.columns.values())
    _assert_kinds_of(part, whole, kinds)


# Every set of kinds read_store may be asked for.
_KIND_SETS = [frozenset(kinds) for n in range(1, len(EventKind) + 1)
              for kinds in combinations(EventKind, n)]


@settings(max_examples=100, derandomize=True, deadline=None)
@example(store=_EDGES)
@example(store=_kinds_in_turn())
@example(store=build_event_store(  # events at the window's first and last seconds
    [ev(addr(1), addr(2), 5, ts=WINDOW_START), ev(addr(2), addr(3), 6, ts=WINDOW_END),
     ev(addr(3), addr(1), 7, ts=WINDOW_END, kind=EventKind.EXTERNAL_TX)], [], [], [],
    IngestConfig()))
@example(store=build_event_store(  # a self-transfer on line 3, which the config refuses
    [ev(addr(1), addr(2), 5), ev(addr(3), addr(3), 6, ts=WINDOW_START + 2 * 86400)], [], [],
    [], IngestConfig()))
@given(store=built_stores())
def test_store_split_loads_what_the_row_loop_reads(store):
    """read_store, which splits each chunk of events.csv once, loads for
    every non-empty set of kinds the columns of what parse_transfers' row
    loop reads from the same file, of those kinds and in the window, with
    one string for each address across all of them; a self-transfer the
    config refuses fails at the first line the row loop refuses."""
    with tempfile.TemporaryDirectory() as tmp:
        if any("\r" in c.name for c in store.contracts.values()):
            with pytest.raises(ValueError, match="carriage return"):
                _write_stage(Path(tmp), store)
            return
        stage = _write_stage(Path(tmp), store)
        path = stage / "events.csv"
        with mock.patch.object(ingest, "_split_events", return_value=None):
            rows, errors = parse_transfers(path, allow_self_transfers=True)
            refused = parse_transfers(path)[1]
        assert errors == [] and all("self-transfer" in m.reason for m in refused)
        bounds = store.config.window_bounds()
        for kinds in _KIND_SETS:
            if refused and not store.config.allow_self_transfers:
                with pytest.raises(SelfTransferDisallowedError,
                                   match=re.escape(f"{path} line {refused[0].line}: ")):
                    read_store(stage, store.config, kinds)
                continue
            want = stored([e for e in rows if not bounds or bounds[0] <= e.timestamp <= bounds[1]],
                          kinds)
            loaded = read_store(stage, store.config, kinds)
            assert loaded.events is None and loaded.columns == want
            assert_addresses_shared(*loaded.columns.values())


def test_each_kind_has_its_own_first_character():
    """read_store reads a row's kind from the first character of its kind
    cell, so no two kinds may share one."""
    assert len({kind.value[0] for kind in EventKind}) == len(EventKind)
    assert all(ingest._KIND_INITIALS[kind.value[0]] is kind for kind in EventKind)


def test_no_row_takes_cells_of_another(tmp_path):
    """Two damages that leave events.csv 8 cells a row on average with every
    cell in order: the "\\n" ending line 2 moved past the next tx hash (9
    cells, then 7), and line 2 cut in two after its value (4 and 4). Read
    as a raw export, the file is not split, and the row loop reports
    malformed rows; as the store, it no longer matches its digest."""
    hashes = [f"0x{i:064x}" for i in (1, 2)]
    store = build_event_store([ev(addr(1), addr(2), 5, tx_hash=hashes[0]),
                               ev(addr(1), addr(2), 6, tx_hash=hashes[1])],
                              [], [], [], IngestConfig())
    stage = _write_stage(tmp_path, store)
    path = stage / "events.csv"
    whole = path.read_text()
    line = whole.splitlines()[1]
    cells = line.split(",")
    cut = ",".join(cells[:4]) + "\n" + ",".join(cells[4:])
    moved = whole.replace(f"\n{hashes[1]},", f",{hashes[1]}\n")
    for damaged in (moved, whole.replace(line, cut)):
        path.write_text(damaged)
        assert _split_events(path, allow_self_transfers=True) is None
        assert parse_transfers(path)[1]  # malformed rows
        assert "does not match the sha256" in _load(stage, store.config)


@pytest.mark.parametrize("field", ["timestamp", "block", "log_index"])
def test_read_store_round_trips_an_int_beyond_int64(tmp_path, field):
    event = ev(addr(1), addr(2), 5)._replace(**{field: 2**63})
    store = build_event_store([event], [], [], [], IngestConfig(None, None))
    _assert_loaded(read_store(_write_stage(tmp_path, store), store.config), store)


@pytest.mark.parametrize("field", ["tx_hash", "sender"])
def test_read_store_of_a_text_holding_a_newline_is_the_store(tmp_path, field):
    """A store holding a text with a newline is never read back as another
    store: ingest refuses to write it, and records no run.json, so
    read_store has nothing it trusts to load."""
    event = ev(addr(1), addr(2), 5)._replace(**{field: "0x\n" + "ab" * 20})
    store = build_event_store([event], [], [], [], IngestConfig())
    with pytest.raises(ValueError, match="in a cell"):
        _write_stage(tmp_path, store)
    assert not (tmp_path / "run.json").exists()
    with pytest.raises(artifacts.MissingArtifactError, match="run.json"):
        read_store(tmp_path, store.config)


def test_a_kind_the_store_did_not_load_is_refused(tmp_path):
    """A load of token transfers alone holds none, and refuses the kinds
    it did not load rather than give an empty list for them."""
    store = build_event_store([ev(addr(1), addr(2), 5, kind=EventKind.EXTERNAL_TX)], [], [], [],
                              IngestConfig(None, None))
    loaded = read_store(_write_stage(tmp_path, store), store.config, [EventKind.TOKEN_TRANSFER])
    assert loaded.columns == {EventKind.TOKEN_TRANSFER: EventColumns([], [], [], [])}
    assert loaded.columns_of(EventKind.TOKEN_TRANSFER) is loaded.columns[EventKind.TOKEN_TRANSFER]
    for kind in (EventKind.EXTERNAL_TX, EventKind.INTERNAL_TX):
        with pytest.raises(ValueError, match=f"the store did not load {kind.value} events"):
            loaded.columns_of(kind)


@pytest.mark.parametrize("tier,reason", [("4000", "4000 is not a valid Tier"),
                                         ("52x", "invalid literal for int() with base 10: '52x'")])
def test_a_bad_tier_fails_its_line(tmp_path, tier, reason):
    """A tier edited in claims.csv to one that is not a Tier fails the
    sha256 ingest recorded for the file, before any line is parsed."""
    store = build_event_store([], [], [], [claim(addr(1)), claim(addr(2), Tier.T7800)],
                              IngestConfig())
    stage = _write_stage(tmp_path, store)
    path = stage / "claims.csv"
    path.write_text(path.read_text().replace(",7800,", f",{tier},"))
    with pytest.raises(ValueError, match=re.escape(reason)):
        Tier(int(tier))
    recorded = json.loads((stage / "run.json").read_text())["outputs"]["claims.csv"]["sha256"]
    with pytest.raises(CorruptStoreError) as raised:
        ingest.read_records(stage)
    assert f"{path} does not match the sha256 {recorded} that ingest recorded" in str(raised.value)


def test_claim_record_is_an_immutable_set_member():
    record = claim(addr(1), Tier.T7800)
    with pytest.raises(AttributeError):
        record.tier = Tier.T5200
    twin = ingest._claims(
        f"address,tier,amount,timestamp\n{record.address},7800,{record.amount},"
        f"{record.claim_timestamp}\n".encode())[record.address]
    assert twin == record and twin is not record and twin.tier is Tier.T7800
    assert len({record, twin}) == 1 and twin in {record}


def test_transfer_event_is_an_immutable_set_member():
    event = ev(addr(1), addr(2), 5)
    with pytest.raises(AttributeError):
        event.value = 6
    twin = TransferEvent(*event)
    assert twin == event and twin is not event
    assert len({event, twin}) == 1 and twin in {event}


@_PROPERTY
@given(keys=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                               st.integers(0, 2), st.sampled_from(list(EventKind))), max_size=20))
def test_event_order_sorts_by_timestamp_block_tx_hash_log_index(keys):
    events = [TransferEvent(f"0x{tx:064x}", addr(1), addr(2), 1, ts, block, kind, log_index)
              for ts, block, tx, log_index, kind in keys]

    def by_name(e):
        return (e.timestamp, e.block, e.tx_hash, e.log_index)

    assert [EVENT_ORDER(e) for e in events] == [by_name(e) for e in events]
    assert sorted(events, key=EVENT_ORDER) == sorted(events, key=by_name)


# Differential: the positional raw-row reader against csv.DictReader
# (tests/oracles.py). Raw files with short and long rows, blank lines,
# repeated, unknown and missing header names, a byte order mark, and
# \n, \r\n or lone \r line ends.

def _cells(valid, *bad):
    """Mostly valid cells, one of `bad` a fifth of the time."""
    return st.integers(0, 4).flatmap(lambda i: st.sampled_from(bad) if i == 0 else valid)


def _int_cells(lo, hi):
    return _cells(st.one_of(st.integers(lo, hi).map(str), st.integers(lo, hi).map(" {} ".format)),
                  "", "x", "1.5", str(lo - 1))


_ADDRESS_CELLS = _cells(
    st.one_of(st.integers(1, 3).map(addr),
              st.integers(1, 3).map(lambda i: " 0X" + addr(i)[2:].upper()),
              st.integers(1, 3).map(lambda i: addr(i)[2:])),
    "", " ", "0x1234", "0x" + "zz" * 20,
)
_CELLS = {
    "tx_hash": _cells(st.one_of(st.integers(0, 3).map("0x{:064x}".format),
                                st.integers(0, 3).map("{:064X} ".format)),
                      "", "0xab", "0x" + "g" * 64),
    "from": _ADDRESS_CELLS,
    "to": _ADDRESS_CELLS,
    "address": _ADDRESS_CELLS,
    "value": _int_cells(0, 10**21),
    "timestamp": _int_cells(WINDOW_START - 10, WINDOW_START + 10),
    "block": _int_cells(0, 3),
    "log_index": _int_cells(0, 2),
    "kind": _cells(st.sampled_from(["", *[k.value for k in EventKind], " external_tx"]), "bogus"),
    "name": st.text(max_size=5),
    "category": _cells(st.sampled_from([*[c.value for c in ContractCategory], "staking", " CEX"]),
                       "", "x"),
    "tier": _cells(st.sampled_from(["5200", " 7800", "10400"]), "4000", "", "x"),
    "amount": _cells(st.sampled_from([str(t.amount) for t in Tier]), "1", "", "x"),
    "extra": st.text(max_size=4),
}


@st.composite
def raw_csv_files(draw, columns):
    header = list(draw(st.permutations(columns)))
    if draw(st.integers(0, 3)) == 0:
        del header[draw(st.integers(0, len(header) - 1))]
    for _ in range(draw(st.integers(0, 2))):
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from([*columns, "extra"])))
    if draw(st.integers(0, 9)) == 0:
        header = []
    lines = [header]
    for _ in range(draw(st.integers(0, 10))):
        shape = draw(st.sampled_from(["full", "full", "short", "long", "blank"]))
        cells = [] if shape == "blank" else [draw(_CELLS[name]) for name in header]
        if shape == "short":
            cells = cells[:draw(st.integers(0, len(cells)))]
        elif shape == "long":
            cells += draw(st.lists(_CELLS["extra"], min_size=1, max_size=2))
        lines.append(cells)
    text = io.StringIO()
    csv.writer(text, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"]))).writerows(lines)
    return draw(st.sampled_from(["", "\ufeff"])) + text.getvalue()


def _outcome(parse, path):
    try:
        records, errors = parse(path)
    except IngestError as exc:
        return "IngestError", str(exc)
    return records, [(m.line, m.reason) for m in errors]


_PARSERS = {
    "transfers": (STORE_COLUMNS, parse_transfers, dictreader_parse_transfers),
    "transfers_external_self": (STORE_COLUMNS,
                                partial(parse_transfers, kind=EventKind.EXTERNAL_TX,
                                        allow_self_transfers=True),
                                partial(dictreader_parse_transfers, kind=EventKind.EXTERNAL_TX,
                                        allow_self_transfers=True)),
    "contracts": (CONTRACT_COLUMNS, parse_contracts, dictreader_parse_contracts),
    "claims": (CLAIM_COLUMNS, parse_claims, dictreader_parse_claims),
}


def _store_text(*rows) -> str:
    """A raw export in the form write_transfers_csv writes, one row per
    (sender, receiver, kind) of `rows`."""
    return "".join(f"{line}\n" for line in [",".join(STORE_COLUMNS), *(
        f"0x{i:064x},{addr(a)},{addr(b)},{10**20 + i},{WINDOW_START + i},{i},{i % 2},{kind}"
        for i, (a, b, kind) in enumerate(rows))])


_CANONICAL = _store_text((1, 2, "token_transfer"), (2, 3, "external_tx"), (3, 1, "internal_tx"))


@pytest.mark.parametrize("which", sorted(_PARSERS))
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_positional_reader_matches_dictreader(which, data):
    columns, parse, reference = _PARSERS[which]
    raw = data.draw(raw_csv_files(columns))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        path.write_bytes(raw.encode())
        assert _outcome(parse, path) == _outcome(reference, path)


@pytest.mark.parametrize("raw", [
    _CANONICAL,
    _store_text(),
    _store_text((1, 2, "token_transfer"), (4, 4, "external_tx")),  # a self-transfer
    _CANONICAL.replace("0x0000", "0X0000", 1),
    _CANONICAL.replace("\n0x0000", "\n00x000", 1),
    _CANONICAL.replace(f"\n0x{0:064x}", f"\n0x{0:063x}")  # 65 characters
    .replace(f"\n0x{1:064x}", f"\n00x{1:064x}"),  # and 67
    _CANONICAL.replace(",1,internal_tx", ",-1,internal_tx"),
])
def test_store_form_transfers_match_dictreader(tmp_path, raw):
    """Files in the store's form, which parse_transfers splits without the
    row loop when it may, parse as the DictReader oracle parses them."""
    path = tmp_path / "raw.csv"
    path.write_bytes(raw.encode())
    assert _outcome(parse_transfers, path) == _outcome(dictreader_parse_transfers, path)


# Differential: parse_transfers with and without the splitter, on raw
# exports in the store's form with at most one defect, each of which sends
# the whole file through the row loop.

DEFECTS = ["upper", "no_0x", "bad_prefix", "short", "space", "empty_log_index", "empty_kind",
           "negative_value", "negative_block", "self_transfer", "bom", "crlf", "blank", "quote"]


@st.composite
def normalized_exports(draw):
    """(text of a raw export in the form write_transfers_csv writes, the
    defect injected into it or None)."""
    hexes = st.integers(0, 16**40 - 1).map("0x{:040x}".format)
    pool = draw(st.lists(hexes, min_size=2, max_size=6, unique=True))
    cut = draw(st.integers(1, len(pool) - 1))  # senders and receivers are apart
    rows = [[f"0x{draw(st.integers(0, 16**64 - 1)):064x}", draw(st.sampled_from(pool[:cut])),
             draw(st.sampled_from(pool[cut:])), str(draw(st.integers(0, 10**24))),
             str(WINDOW_START + draw(st.integers(0, 10**6))), str(draw(st.integers(0, 50))),
             str(draw(st.integers(0, 3))), draw(st.sampled_from(list(EventKind))).value]
            for _ in range(draw(st.integers(1, 8)))]
    defect = draw(st.one_of(st.none(), st.sampled_from(DEFECTS)))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    column = draw(st.integers(0, 7))
    hex_cell = row[column % 3]  # a tx hash or an address
    if defect == "upper":  # a hex digit, else the x of its 0x
        at = next((i for i, c in enumerate(hex_cell) if c in "abcdef"), 1)
        row[column % 3] = hex_cell[:at] + hex_cell[at].upper() + hex_cell[at + 1:]
    elif defect == "no_0x":
        row[column % 3] = hex_cell[2:]
    elif defect == "bad_prefix":
        row[column % 3] = "1" + hex_cell[1:]
    elif defect == "short":
        row[column % 3] = hex_cell[:-1]
    elif defect == "space":
        row[column] = " " + row[column]
    elif defect in ("empty_log_index", "empty_kind"):
        row[6 if defect == "empty_log_index" else 7] = ""
    elif defect in ("negative_value", "negative_block"):
        at = 3 if defect == "negative_value" else 5
        row[at] = "-" + row[at]
    elif defect == "self_transfer":
        row[2] = row[1]
    elif defect == "quote":
        row[column] = f'"{row[column]}"'
    lines = [",".join(STORE_COLUMNS)] + [",".join(r) for r in rows]
    if defect == "blank":
        lines.insert(draw(st.integers(1, len(lines))), "")
    text = "".join(line + ("\r\n" if defect == "crlf" else "\n") for line in lines)
    return ("\ufeff" if defect == "bom" else "") + text, defect


@settings(max_examples=300, derandomize=True, deadline=None)
@given(export=normalized_exports(), kind=st.sampled_from(list(EventKind)),
       allow_self=st.booleans())
def test_splitter_parses_raw_exports_as_the_row_loop(export, kind, allow_self):
    text, defect = export
    parse = partial(parse_transfers, kind=kind, allow_self_transfers=allow_self)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        path.write_bytes(text.encode())
        split = _split_events(path, allow_self)
        got = _outcome(parse, path)
        with mock.patch.object(ingest, "_split_events", return_value=None):
            want = _outcome(parse, path)
    assert got == want
    assert (split is not None) == (defect is None or defect == "self_transfer" and allow_self)
    assert_addresses_shared(columns(got[0]))


@pytest.mark.parametrize("at", [None, 0, 500, 999])
def test_every_address_is_checked_in_its_first_chunk(tmp_path, at):
    """1,000 addresses over three chunks, the last of which names none
    first. One in upper case at `at` sends the file through the row loop,
    which gives the same events; it stops the split in the chunk that
    names it first."""
    rows = [(2 * (i % 500) + 1, 2 * (i % 500) + 2, "token_transfer") for i in range(700)]
    text = _store_text(*rows)
    if at is not None:
        text = text.replace(f",{addr(at + 1)},", f",0X{addr(at + 1)[2:]},")
    path = tmp_path / "raw.csv"
    path.write_text(text)
    assert len(text) > 2 * ingest._CHUNK
    with mock.patch.object(ingest, "_hex_cells", wraps=ingest._hex_cells) as checks:
        assert (_split_events(path, allow_self_transfers=True) is None) == (at is not None)
    if at is None:  # the last chunk's new addresses
        assert checks.call_args_list[-1].args == ([], 40)
    if at == 0:  # one chunk's tx hashes and addresses
        assert checks.call_count == 2
    events, errors = parse_transfers(path)
    assert len(events) == 700 and errors == []
    with mock.patch.object(ingest, "_split_events", return_value=None):
        assert parse_transfers(path) == (events, errors)


def test_raw_jsonl_and_unreadable_files_take_the_row_loop(tmp_path):
    """A .jsonl file is JSONL whatever it holds, and a file that cannot be
    read raises the row loop's IngestError."""
    path = tmp_path / "raw.jsonl"
    path.write_text(_CANONICAL)
    events, errors = parse_transfers(path)
    assert events == [] and [e.line for e in errors] == [1, 2, 3, 4]
    path = tmp_path / "raw.csv"
    path.write_bytes(_CANONICAL.encode() + b"\xff\n")
    with pytest.raises(IngestError, match="UTF-8"):
        parse_transfers(path)
    with pytest.raises(IngestError, match="cannot read"):
        parse_transfers(tmp_path / "absent.csv")


@st.composite
def raw_event_lists(draw):
    """Two lists of events, as parse_transfers returns them, with repeated
    dedup keys and events outside the default window unless `clean`."""
    clean = draw(st.booleans())
    events = [ev(addr(draw(st.integers(1, 3))), addr(draw(st.integers(4, 6))),
                 draw(st.integers(0, 10**20)),
                 ts=draw(st.one_of(  # the window's first and last seconds, and around them
                     st.integers(WINDOW_START, WINDOW_START + 10**6),
                     st.sampled_from([WINDOW_START, WINDOW_END] + ([] if clean else [
                         WINDOW_START - 1, WINDOW_END + 1, WINDOW_START - 2 * 10**6,
                         WINDOW_END + 10**6])))),
                 kind=draw(st.sampled_from(list(EventKind))), block=draw(st.integers(0, 5)),
                 tx_hash=f"0x{draw(st.integers(0, 3)):064x}", log_index=draw(st.integers(0, 2)))
              for _ in range(draw(st.integers(0, 10)))]
    if clean:
        events = list({dedup_key(e): e for e in events}.values())
    cut = draw(st.integers(0, len(events)))
    return (sorted(events[:cut], key=EVENT_ORDER), sorted(events[cut:], key=EVENT_ORDER),
            IngestConfig() if draw(st.booleans()) else IngestConfig(None, None))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(inputs=raw_event_lists())
def test_build_event_store_keeps_the_first_of_each_key_in_the_window(inputs):
    token, external, config = inputs
    store = build_event_store(token, external, [], [], config)
    lo, hi = config.window_bounds() or (-math.inf, math.inf)
    kept, excluded, seen = [], [], set()
    for e in sorted(token + external, key=lambda e: (e.timestamp, e.block, e.tx_hash, e.log_index)):
        if not lo <= e.timestamp <= hi:
            excluded.append(e)
        elif (e.tx_hash, e.log_index, e.kind) not in seen:
            seen.add((e.tx_hash, e.log_index, e.kind))
            kept.append(e)
    assert store.events == kept
    assert store.columns == stored(kept)
    assert store.report.window_excluded == len(excluded)
    assert [m.reason for m in store.report.malformed] == [
        f"timestamp {e.timestamp} outside study window ({e.tx_hash})" for e in excluded]
    assert store.report.deduplicated == len(token) + len(external) - len(kept) - len(excluded)
