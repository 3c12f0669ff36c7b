"""Metamorphic test: renaming every address changes no result but by the
renaming.

A bijection of the addresses is applied to synth's four raw exports, and
every stage from ingest to stats runs on both sets of exports. Each
artifact of the renamed run must be the original's with its addresses
renamed: counts, K, roles, findings and verdicts exactly, the clusters
and the components up to their ids (which follow the order of their
addresses), and floats to a relative 1e-12, since a float sum follows
the order of the addresses it runs over. Lists are compared as multisets,
a list of numbers (a density, say) in order, and a text's addresses as a
set, since the stages list addresses sorted.
"""

import csv
import json
import math
import random
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from airdrop_forensics.cli import main

ADDRESS = re.compile(r"0x[0-9a-f]{40}(?![0-9a-f])")
STAGES = ("ingest", "graph", "cluster", "detect", "eligibility", "stats")
RAW = ("token_transfers.csv", "external_txs.csv", "contracts.csv", "claims.csv")
# Artifacts compared apart, below, and those left out: the renderings of
# graphs whose JSON is compared (graphml and dot files), each stage's record
# of the digests of its files (run.json), and the resolved config.
APART = {"cluster/dendrogram.json", "cluster/assignment.csv", "stats/tier_composition.csv",
         "detect/components.csv", "detect/findings.jsonl", "detect/voting_power.json",
         "config.resolved.json", *(f"{stage}/run.json" for stage in STAGES)}


def _run(config: Path, out: Path) -> None:
    for stage in STAGES:
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0, stage


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _load(path: Path):
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            return [{key: _cell(text) for key, text in row.items()} for row in csv.DictReader(fh)]
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text().splitlines()]
    return json.loads(path.read_text())


def _canon(value, rename):
    """`value` with its addresses renamed: a text with addresses as its
    template and the sorted renamed addresses, a list sorted unless it
    holds numbers alone."""
    if isinstance(value, str):
        found = ADDRESS.findall(value)
        return (ADDRESS.sub("<address>", value), *sorted(map(rename, found))) if found else value
    if isinstance(value, dict):
        return {_canon(key, rename): _canon(item, rename) for key, item in value.items()}
    if isinstance(value, list):
        items = [_canon(item, rename) for item in value]
        return items if all(isinstance(i, (int, float)) for i in items) else sorted(items, key=_rough)
    return value


def _rough(value) -> str:
    """A sort key that reads floats to 9 digits, so last bits do not move
    an item."""
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, dict):
        return "{" + ",".join(sorted(f"{_rough(k)}:{_rough(v)}" for k, v in value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_rough, value)) + "]"
    return repr(value)


def _differences(a, b, where: str = "") -> list[str]:
    """Where `a` and `b` differ: ints and texts exactly, floats to a
    relative 1e-12."""
    if isinstance(a, float) or isinstance(b, float):
        ok = (all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
              and math.isclose(a, b, rel_tol=1e-12))
        return [] if ok else [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{where}: keys {sorted(map(str, a.keys() ^ b.keys()))[:3]}"]
        return [d for key in a for d in _differences(a[key], b[key], f"{where}[{key!r}]")]
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) and type(a) is type(b):
        if len(a) != len(b):
            return [f"{where}: {len(a)} items != {len(b)}"]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in _differences(x, y, f"{where}[{i}]")]
    return [] if a == b else [f"{where}: {a!r} != {b!r}"]


def _clusters(out: Path, rename) -> dict[frozenset, dict]:
    """Each cluster of assignment.csv as the set of its renamed addresses,
    with its role and its row of tier_composition.csv."""
    members: dict[int, set] = {}
    roles = {}
    for row in _load(out / "cluster" / "assignment.csv"):
        members.setdefault(row["cluster"], set()).add(rename(row["address"]))
        roles[row["cluster"]] = row["role"]
    composition = {row.pop("cluster"): row for row in _load(out / "stats" / "tier_composition.csv")}
    return {frozenset(m): {"role": roles[c], "tiers": composition.get(c)}
            for c, m in members.items()}


def _detected(out: Path) -> dict[str, list]:
    """detect's artifacts with each component named by the members that a
    finding lists for it, or None for a component no finding names; and
    the dendrogram's merge heights and sizes, whose order follows the
    order of the addresses."""
    findings = _load(out / "detect" / "findings.jsonl")
    voting_power = _load(out / "detect" / "voting_power.json")
    components = _load(out / "detect" / "components.csv")
    names = {f["component_id"]: sorted(f["members"]) for f in findings if f["component_id"] > 0}
    for row in findings + voting_power:
        row["component_id"] = names.get(row["component_id"])
    for row in components:
        row["id"] = names.get(row["id"])
    merges = _load(out / "cluster" / "dendrogram.json")["merges"]
    return {"findings": findings, "voting_power": voting_power, "components": components,
            "heights": sorted(m[2] for m in merges), "sizes": sorted(m[3] for m in merges)}


@settings(max_examples=4, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**16), population=st.integers(120, 400), key=st.integers(0, 2**32))
def test_renaming_the_addresses_renames_every_result(tmp_path_factory, seed, population, key):
    root = tmp_path_factory.mktemp("relabel")
    config = root / "config.json"
    config.write_text(json.dumps({
        "synth": {"seed": seed, "population_total": population},
        "eligibility": {"interaction_window_days": 2, "min_tx_count": 5}}))
    plain, renamed = root / "plain", root / "renamed"
    assert main(["synth", "--config", str(config), "--out", str(plain)]) == 0
    texts = {name: (plain / "synth" / name).read_text() for name in RAW}
    addresses = sorted(set(ADDRESS.findall("".join(texts.values()))))
    rng = random.Random(key)
    images = set()
    while len(images) < len(addresses):
        images.add(f"0x{rng.getrandbits(160):040x}")
    mapping = dict(zip(addresses, rng.sample(sorted(images), len(images))))
    (renamed / "synth").mkdir(parents=True)
    for name, text in texts.items():
        (renamed / "synth" / name).write_text(ADDRESS.sub(lambda m: mapping[m[0]], text))
    _run(config, plain)
    _run(config, renamed)

    found = []
    names = sorted(str(p.relative_to(plain)) for p in plain.rglob("*")
                   if p.suffix in (".csv", ".json", ".jsonl") and p.parent.name != "synth")
    for name in names:
        if name not in APART:
            found += _differences(_canon(_load(plain / name), mapping.__getitem__),
                                  _canon(_load(renamed / name), str), name)
    clusters = _clusters(plain, mapping.__getitem__)
    again = _clusters(renamed, str)
    assert clusters.keys() == again.keys(), "the cluster partitions differ"
    found += _differences(clusters, again, "clusters")
    found += _differences(_canon(_detected(plain), mapping.__getitem__),
                          _canon(_detected(renamed), str), "detect")
    assert found == []
