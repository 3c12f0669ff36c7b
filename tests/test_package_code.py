"""Static check that the package holds only code that the stages or the
benchmark use: a builder or helper that only tests call belongs in tests/."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "airdrop_forensics"

# Each of these computes a published identity that tests/ asserts as an
# acceptance criterion; moved into tests/, the criterion would check test
# code. They stay until the report states those identities (ROADMAP item 8).
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


def _trees() -> dict:
    """The parsed modules of src/ and perfbench/, by path."""
    return {
        path: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    }


def test_every_top_level_name_in_src_has_a_caller_outside_tests():
    """Every function, class and method (dunders aside) that src/ defines
    is named in src/ or perfbench/ outside its own body."""
    trees = _trees()
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


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _defaulted_parameters(tree, module: str):
    """(qualified name, name it is called by, parameter, position, def node)
    of every defaulted parameter of a function or method. The position
    counts the call's positional arguments (None: keyword-only). A method
    is called by its name and an `__init__` by its class's name, in both
    cases without `self` (or `cls`)."""
    defs = [(f"{module}.{node.name}", node.name, node, 0) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    defs += [
        (f"{module}.{cls.name}.{node.name}", cls.name if node.name == "__init__" else node.name,
         node, 1)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
    ]
    for qualified, name, node, bound in defs:
        args = node.args
        positional = (args.posonlyargs + args.args)[bound:]
        for position in range(len(positional) - len(args.defaults), len(positional)):
            yield qualified, name, positional[position].arg, position, node
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualified, name, param.arg, None, node


# Defaulted parameters that no call in src/ or perfbench/ passes, each for
# a reason outside those directories.
UNPASSED = {
    "synth.generate(validate)": "criterion 6 scores unvalidated draws",
    "synth._Builder.claim(tier)":
        "tests/scenarios.py builders pass it, and BUILDER_DIGESTS pins their draws",
    **{f"graphs.weekly_slices({param})": "tests and the tracer use it until ROADMAP item 1"
       for param in ("kind", "start", "end", "interval_days")},
}


def test_every_defaulted_parameter_is_passed_outside_tests():
    """A defaulted parameter that no caller in src/ or perfbench/ passes,
    by keyword or at its position, is a knob only tests turn: its default
    is the behaviour, and the other branches belong in tests/."""
    trees = _trees()
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unpassed = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, name, param, position, node in _defaulted_parameters(tree, path.stem):
            own = {id(sub) for sub in ast.walk(node)}
            if not any(
                id(call) not in own and _callee(call) == name and (
                    any(kw.arg in (param, None) for kw in call.keywords)
                    or position is not None and (
                        len(call.args) > position
                        or any(isinstance(arg, ast.Starred) for arg in call.args)))
                for call in calls
            ):
                unpassed.append(f"{qualified}({param})")
    assert sorted(unpassed) == sorted(UNPASSED), (
        "defaulted in src/ but passed by no call in src/ or perfbench/: "
        f"{sorted(set(unpassed) - set(UNPASSED))}; allowed but now passed: "
        f"{sorted(set(UNPASSED) - set(unpassed))}"
    )


def _returns_value(node) -> bool:
    """Whether a function's own body, nested functions and classes aside,
    returns a value other than None."""
    stack = list(node.body)
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Return) and sub.value is not None and not (
                isinstance(sub.value, ast.Constant) and sub.value.value is None):
            return True
        if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(sub))
    return False


def test_every_returned_value_is_read():
    """A function or method (dunders aside) of src/ that returns a value,
    and that src/ or perfbench/ call, has a call there (outside its own
    body) that reads the result, or is passed somewhere as a value: a
    result that every caller drops is work no one needs. A string is no
    use, so the tracer's wrapping a name by its string reads nothing."""
    trees = _trees()

    def mentions(node) -> Counter:
        found = Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                found[sub.attr] += 1
        return found

    mentioned = sum(map(mentions, trees.values()), Counter())
    dropped = Counter(_callee(sub.value) for tree in trees.values() for sub in ast.walk(tree)
                      if isinstance(sub, ast.Expr) and isinstance(sub.value, ast.Call))
    defs = [(f"{path.stem}.{node.name}", node) for path, tree in trees.items()
            if path.parent == PACKAGE for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defs += [(f"{name}.{node.name}", node) for name, cls in defs if isinstance(cls, ast.ClassDef)
             for node in cls.body
             if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")]
    unread = [
        qualified for qualified, node in defs
        if isinstance(node, ast.FunctionDef) and _returns_value(node)
        and dropped[node.name]
        and mentioned[node.name] - dropped[node.name] - mentions(node)[node.name] <= 0
    ]
    assert unread == [], unread


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


# The fields of an ingest.TransferEvent that read_store does not keep.
DROPPED_FIELDS = {"tx_hash", "block", "log_index"}


def test_only_ingest_reads_the_fields_read_store_drops():
    """read_store fills each kind's EventColumns with senders, receivers,
    values and timestamps alone: no tx hash, block or log index. So
    outside ingest.py, which orders, deduplicates and writes the store by
    them, no module of src/ or perfbench/ reads one."""
    readers = [
        f"{path.relative_to(ROOT)}:{node.lineno}: .{node.attr}"
        for path, tree in _trees().items() if path != PACKAGE / "ingest.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr in DROPPED_FIELDS
    ]
    assert readers == []


def _opens_csv_for_writing(function) -> bool:
    """Whether `function` opens a file for writing (a call of
    `open_for_write`, or of `open` with a mode that writes) that is a
    CSV: a ".csv" is named in the call, or the function is named for CSV."""
    for call in ast.walk(function):
        if not isinstance(call, ast.Call) or _callee(call) not in ("open", "open_for_write"):
            continue
        modes = [arg.value for arg in [*call.args[1:2], *(kw.value for kw in call.keywords
                                                          if kw.arg == "mode")]
                 if isinstance(arg, ast.Constant)]
        if _callee(call) == "open" and not any(set(mode) & set("wax+") for mode in modes):
            continue
        names = {sub.value for sub in ast.walk(call)
                 if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}
        if "csv" in function.name.lower() or any(name.endswith(".csv") for name in names):
            return True
    return False


def test_only_artifacts_writes_csv():
    """artifacts.write_csv is the one CSV writer: no other module of src/
    names csv.writer, or opens a CSV file for writing."""
    writers = []
    for path, tree in _trees().items():
        if path.parent != PACKAGE or path.name == "artifacts.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "writer"
                    and isinstance(node.value, ast.Name) and node.value.id == "csv"
                    or isinstance(node, ast.ImportFrom) and node.module == "csv"
                    and any(alias.name == "writer" for alias in node.names)):
                writers.append(f"{path.name}:{node.lineno}: csv.writer")
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and _opens_csv_for_writing(node)):
                writers.append(f"{path.name}:{node.lineno}: {node.name} opens a CSV to write")
    assert writers == []
