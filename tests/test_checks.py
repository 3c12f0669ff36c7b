"""The checks outside tier-1 stay few and stay pinned: CI runs tier-1, the
benchmark smoke test and the installed console script, nothing else, and
every row of the mutant table (tests/mutants.py) still names a fragment of
src/ and tests that exist."""

import re
from pathlib import Path

import mutants

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

# The one step that needs the installed package: its console script runs
# every stage. Every other check of a run is a tier-1 test.
CONSOLE_SCRIPT = """\
dir="$(mktemp -d)"
echo '{"synth": {"seed": 7, "population_total": 120},
"eligibility": {"interaction_window_days": 2, "min_tx_count": 5}}' > "$dir/config.json"
for stage in synth ingest graph cluster detect eligibility stats report; do
airdrop-forensics "$stage" --config "$dir/config.json" --out "$dir/out"
done
test -s "$dir/out/report/report.md\""""


def workflow_steps(text: str) -> list[dict[str, str]]:
    """The steps of the workflow's one job, each as its keys and their
    values; a value that spans lines (a `run: |` script, a `with:` map)
    is its stripped lines joined by newlines, after the first line's text."""
    lines = text.splitlines()
    steps: list[dict[str, str]] = []
    key = None
    for line in lines[lines.index("    steps:") + 1:]:
        if line.strip() and not line.startswith("      "):
            break
        if line.startswith("      - "):
            steps.append({})
            line = " " * 8 + line[8:]
        if re.match(r" {8}[\w-]+:", line):
            key, _, value = line.strip().partition(":")
            steps[-1][key] = value.strip().removeprefix("|").lstrip()
        elif line.strip():
            steps[-1][key] = "\n".join(filter(None, [steps[-1][key], line.strip()]))
    return steps


def test_ci_runs_tier1_the_smoke_test_and_the_console_script_alone():
    steps = workflow_steps(WORKFLOW.read_text())
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())[1]
    assert [step.get("uses") or step["name"] for step in steps] == [
        "actions/checkout@v4", "actions/setup-python@v5", "Install", "Tier-1 tests",
        "Benchmark smoke test", "Installed CLI runs every stage"]
    assert [step.get("run") for step in steps[2:]] == [
        'pip install -e ".[dev]"', tier1, "python -m pytest perfbench/test_smoke.py",
        CONSOLE_SCRIPT]


def test_every_mutant_names_one_fragment_and_existing_tests():
    """Each fragment occurs exactly once in its module, so a change that
    moves it must restate the mutant; each test the row names is defined."""
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        source = (ROOT / mutants.PACKAGE / mutant.module).read_text(encoding="utf-8")
        assert source.count(mutant.fragment) == 1, mutant.name
        assert mutant.replacement != mutant.fragment and mutant.tests, mutant.name
        for test in mutant.tests:
            path, _, name = test.partition("::")
            *classes, function = name.split("[")[0].split("::")
            text = (ROOT / path).read_text(encoding="utf-8")
            assert all(f"\nclass {c}" in text for c in classes), test
            assert f"\n{'    ' * len(classes)}def {function}(" in text, test
