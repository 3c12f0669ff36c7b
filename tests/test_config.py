import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from airdrop_forensics.cli import load_config, main
from airdrop_forensics.config import (
    RAW_INPUTS, Config, ConfigInvalidError, Preset, from_json, to_json,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# sha256 of config.resolved.json for each config, recorded before the typed
# config replaced the dict config; `output_dir` is fixed, so the bytes are too.
CONFIGS = {
    "empty": {},
    "test_cli": {"output_dir": "out", "synth": {"seed": 5, "population_total": 120},
                 "eligibility": {"min_tx_count": 5, "interaction_window_days": 2}},
    "criterion_9": {"output_dir": "out", "synth": {"seed": 77, "population_total": 150},
                    "eligibility": {"min_tx_count": 5, "interaction_window_days": 2}},
    "perfbench": {"eligibility": {"interaction_window_days": 2, "min_tx_count": 5},
                  "output_dir": "out", "slice_interval_days": 1,
                  "synth": {"seed": 7, "population_total": 3000}},
    "max_clique_null": {"eligibility": {"max_clique": None}},
    "balance_floors_detectors": {
        "eligibility": {"min_native_balance": {"ethereum": 1.0, "bsc": 2}, "min_tx_count": 10},
        "detectors": {"min_spokes": 7, "forward_frac": 0.85},
        "weights": {"buy": 2, "send": 0.5},
        "clustering": {"linkage": "average", "k_max": 12},
    },
    "null_window_synth": {
        "window": {"start": None, "end": None},
        "allow_self_transfers": True,
        "inputs": {"balances": "balances.csv"},
        "synth": {"seed": 3, "noise_rate": 0, "tier_mix": [0.2, 0.5, 0.3],
                  "patterns": [{"kind": "sunflower", "count": 1, "size": 8}]},
    },
    "fair": {"eligibility": {"preset": "fair"}},
    "differential_tier_table": {"eligibility": {
        "preset": "differential", "tier_table": [[26, 10400], [1, 5200]]}},
    "int_forward_frac": {"detectors": {"forward_frac": 1}},
}

DIGESTS = {
    "empty": "d0c0f809b1e7e30549b79442c46a713e567e114c8560d3c14a08e80aef39b621",
    "test_cli": "19f2fd58f6cde8d4081982a30fa980d626b023a87735cacb17e2d6bb64a31104",
    "criterion_9": "6443c8baafd4dddfc521c9b2e142590f324cc1051dec1674ebe8d610c6b4d761",
    "perfbench": "03d765bc2acbcf05880a930d28feaf9348571b48c2f9849d05ae171b187ddac2",
    "max_clique_null": "a7098bc5fd4e4a40bf8e44d143349bf57031f722134f8fa9f464644a1c0b381f",
    "balance_floors_detectors": "9ef3d643d9e322fc2f2c97ca352c843658395774ff21cc9fe94c94c4d31a7e75",
    "null_window_synth": "0358454f27ef24b37007464d2f86481024c873f6fa5210d4f5b0166d54bd32f9",
    "fair": "19735ce46488f06e89b076891d07cbb835e5c77dc4e6701d12b35c58d3cc1f74",
    "differential_tier_table": "e9864b4efaf7ba2d270b2f367e44dbe6436ec6c43b6e1a54d8330bc30178247a",
    "int_forward_frac": "b1f2a04303187ef6afd1647989769252bb492d2c492e10de1803ac65f0467b0b",
}


def resolve(config: dict, tmp_path: Path) -> bytes:
    """config.resolved.json as a run with `config` writes it."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    main(["report", "--config", str(path), "--out", str(out)])  # exits 1: nothing to report
    return (out / "config.resolved.json").read_bytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_resolved_config_bytes_are_pinned(tmp_path, name):
    digest = hashlib.sha256(resolve(CONFIGS[name], tmp_path)).hexdigest()
    assert digest == DIGESTS[name]


def test_readme_config_example_loads(tmp_path):
    """The README's config example loads and resolves to the values it shows."""
    text = re.search(r"### Config\n.*?```json\n(.*?)```", README.read_text(), re.S).group(1)
    (tmp_path / "example.json").write_text(text)
    load_config(str(tmp_path / "example.json"))
    example = json.loads(text)
    resolved = json.loads(resolve(example, tmp_path))
    for key, value in example.items():
        shown = {k: resolved[key][k] for k in value} if isinstance(value, dict) else resolved[key]
        assert shown == value, key


# Each preset's rules as the per-preset constructors gave them before the
# presets became rows of one table.
PRESET_RULES = {
    "threshold_differential": {
        "min_tx_count": 50,
        "min_native_balance": {"ethereum": 0.028, "bsc": 0.25, "polygon": 20.0, "avalanche": 0.9},
        "min_interactions": 6, "interaction_window_days": 183, "max_clique": 5,
        "tier_table": [[26, 10400], [11, 7800], [6, 5200]],
    },
    "differential": {
        "min_tx_count": 1, "min_native_balance": {}, "min_interactions": 1,
        "interaction_window_days": 183, "max_clique": None,
        "tier_table": [[26, 10400], [11, 7800], [1, 5200]],
    },
    "fair": {
        "min_tx_count": 0, "min_native_balance": {}, "min_interactions": 1,
        "interaction_window_days": 183, "max_clique": None, "tier_table": [[1, 5200]],
    },
}
RULE_OVERRIDES = {
    "min_tx_count": st.integers(0, 100),
    "min_native_balance": st.dictionaries(st.sampled_from(["ethereum", "bsc", "polygon"]),
                                          st.floats(0, 10)),
    "min_interactions": st.integers(0, 30),
    "interaction_window_days": st.integers(1, 400),
    "max_clique": st.none() | st.integers(1, 10),
    "tier_table": st.lists(st.tuples(st.integers(0, 30), st.sampled_from([5200, 7800, 10400]))
                           .map(list), min_size=1, max_size=3),
}


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(preset=st.sampled_from(sorted(PRESET_RULES)),
       overrides=st.fixed_dictionaries({}, optional=RULE_OVERRIDES))
def test_rules_are_the_preset_with_the_set_fields_replaced(preset, overrides):
    expected = {**PRESET_RULES[preset], **overrides}
    data = {"eligibility": {"preset": preset, **overrides}}
    if expected["min_interactions"] < min(score for score, _ in expected["tier_table"]):
        with pytest.raises(ConfigInvalidError, match="tier table leaves a gap"):
            from_json(Config, data, "config")
        return
    config = from_json(Config, data, "config")
    rules = config.eligibility
    assert rules.preset == Preset(preset)
    resolved = {name: getattr(rules, name) for name in expected}
    resolved["min_native_balance"] = rules.floors
    resolved["tier_table"] = [[score, tier.value] for score, tier in rules.tiers]
    assert resolved == expected
    # the number fields always, the other two only when set
    shown = {"min_tx_count", "min_interactions", "interaction_window_days", "max_clique"}
    assert to_json(config)["eligibility"] == {
        "preset": preset, **{name: expected[name] for name in shown | set(overrides)}}


def test_loading_a_config_loads_no_stage_module():
    """The config schema lives in config.py, so loading one imports neither
    a stage module nor numpy."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    loaded = json.loads(subprocess.run(
        [sys.executable, "-c",
         "import json, sys, airdrop_forensics.config; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout)
    stages = {"numpy", *(f"airdrop_forensics.{name}" for name in (
        "graphs", "forensics", "synth", "stats", "clustering", "eligibility"))}
    assert not stages & set(loaded)


@pytest.mark.parametrize("keys", [
    ("token_transfers",), ("claims",), ("token_transfers", "external_txs"),
    ("external_txs", "contracts", "claims"),
], ids=["token_only", "claims_only", "transfers_only", "all_but_token"])
def test_raw_inputs_are_set_all_or_none(keys):
    """The four raw exports are configured together or not at all; the
    keys left unset are named. balances is set on its own."""
    unset = [key for key in RAW_INPUTS if key not in keys]
    with pytest.raises(ConfigInvalidError, match=re.escape(f"{unset} unset")):
        from_json(Config, {"inputs": {key: f"{key}.csv" for key in keys}}, "config")
    every = from_json(Config, {"inputs": {key: f"{key}.csv" for key in RAW_INPUTS}}, "config")
    assert every.inputs.claims == "claims.csv"
    assert from_json(Config, {"inputs": {"balances": "b.csv"}}, "config").inputs.claims is None
