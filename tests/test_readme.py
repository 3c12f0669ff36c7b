"""README's "Library use" block runs as written on a small synth tree, with
its input file names replaced, and agrees with the stages' artifacts."""

import json
import re
from pathlib import Path

from airdrop_forensics.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
# README's placeholder input names -> the files synth writes.
INPUTS = {
    "token.csv": "token_transfers.csv",
    "external.csv": "external_txs.csv",
    "contracts.csv": "contracts.csv",
    "claims.csv": "claims.csv",
}


def library_example() -> str:
    match = re.search(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no python block under 'Library use'"
    return match.group(1)


def test_readme_library_example_runs(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_dir": str(out),
                                  "synth": {"seed": 5, "population_total": 120}}))
    for command in ("synth", "ingest", "graph", "cluster", "detect"):
        assert main([command, "--config", str(config)]) == 0, command

    code = library_example()
    for name, written in INPUTS.items():
        assert f'"{name}"' in code, name
        code = code.replace(f'"{name}"', repr(str(out / "synth" / written)))
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)

    store, assignment = namespace["store"], namespace["assignment"]
    assert sorted(assignment.labels) == sorted(store.claims)
    assert set(namespace["roles"].role_of) <= set(store.claims)
    assert namespace["series"].to_json_rows()
    silhouette = json.loads((out / "cluster" / "silhouette.json").read_text())
    assert assignment.k == silhouette["chosen_k"]
    findings = (out / "detect" / "findings.jsonl").read_text().splitlines()
    assert [f.to_json() for f in namespace["result"].findings] == list(map(json.loads, findings))
