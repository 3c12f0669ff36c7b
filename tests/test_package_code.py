"""Static check that the package holds only code that the stages or the
benchmark use: a builder or helper that only tests call belongs in tests/."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "airdrop_forensics"

# Each of these computes a published identity that tests/ asserts as an
# acceptance criterion; moved into tests/, the criterion would check test
# code. They stay until the report states those identities (ROADMAP item 4).
ALLOWED = {
    "clustering.role_shares": "criterion 3: role percentages as sums of cluster shares",
    "stats.aggregate_shares": "the published group sums of the role-share table",
    "stats.claimed_total_for_counts": "criterion 5: total claimed from per-tier claim counts",
}


def _names(node) -> Counter:
    """Every name an AST mentions: names, attributes, and string constants,
    as perfbench/tracer.py looks functions up by their names."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def test_every_top_level_name_in_src_has_a_caller_outside_tests():
    """Every function, class and method (dunders aside) that src/ defines
    is named in src/ or perfbench/ outside its own body."""
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    }
    mentioned = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items() if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and mentioned[node.name] == _names(node)[node.name]
    ] + [
        f"{path.stem}.{cls.name}.{node.name}"
        for path, tree in trees.items() if path.parent == PACKAGE
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        # a dunder method is called by the interpreter, not by name
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
        and mentioned[node.name] == _names(node)[node.name]
    ]
    assert sorted(unused) == sorted(ALLOWED), (
        "defined in src/ but used nowhere in src/ or perfbench/: "
        f"{sorted(set(unused) - set(ALLOWED))}; allowed but now used: "
        f"{sorted(set(ALLOWED) - set(unused))}"
    )


def test_every_module_level_import_is_read():
    """A module-level import whose name the module never reads is dead
    code; `from __future__` imports are directives, not names."""
    unused = []
    paths = [*PACKAGE.glob("*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")]
    for path in sorted(paths):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.relative_to(ROOT)}: {alias.asname or alias.name}"
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in read
        ]
    assert unused == []
