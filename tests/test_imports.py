"""Six stdlib-only lints: every imported name is used, every definition is referenced, every
dotted reference to a capdet module in prose resolves, README's lists of config flags are the CLI's,
README's lists of file keys are the readers' field tables, and the CLI re-raises no caught error as
a DataError.

An imported name counts as used when the module reads it anywhere (a bare
name or the base of an attribute chain) or lists it in ``__all__``.
Imports from ``__future__`` are exempt; src/ and tests/ are checked.

A module-level function or class in src/, or a non-dunder method or
property of such a class, counts as referenced when some module in src/
or perfbench/ reads its name as a bare name or an attribute, or spells it
in a string constant, whole or as one part of a dotted name: perfbench
wraps functions it names by string, and ``__all__`` lists names as
strings, so the public names of ``capdet.__all__`` count as referenced.
Use in tests/ does not count: code only the tests call lives in tests/.
Methods that a base class calls are exempt (BASE_CLASS_HOOKS).

A dotted reference is a capdet module's name, alone after ``capdet.`` or
followed by attribute names (``trainer.SceneBatch.pack``), in a
docstring or comment of src/capdet/ or in README.md. It resolves when the
module has each attribute in turn; an annotated field resolves by its
annotation, and names after it are not checked. A file name
(``trainer.py``) is not a reference.

README names the config flags of train and eval, each list in one
sentence with a count; the flags and the count must be those of
``cli.build_parser()``, whose config flags are the ones that set a
TrainConfig field.

README's File formats lists the keys of each field table (fields.Field)
in one phrase, "... with the keys `a`, `b` and `c`"; the keys must be
exactly the table's.

Each reader names its own bad input (fields.naming), so no except handler in
cli.py raises a DataError: a handler that does names, in the CLI, an input
some reader should have named.
"""

import argparse
import ast
import dataclasses
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

from capdet import cli, scorenet, synthbench, textgraph
from capdet.trainer import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree):
    """(bound name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.relative_to(ROOT)} imports names it never uses: {', '.join(unused)}"


def test_flags_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport numpy as np\nfrom a import b, c\n"
                     "__all__ = ['c']\nnp.zeros(1)\n")
    unused = {name for name, _ in imported_names(tree)} - used_names(tree)
    assert unused == {"os", "b"}


# methods that only a base class calls, so no module spells their name
BASE_CLASS_HOOKS = {"_Parser.error"}  # argparse calls error() on a bad command line


def module_definitions(tree):
    """(name, line) for every module-level function and class, and as Class.name each non-dunder method of such a class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.lineno


def dead_definitions(tree, referenced):
    """{name: line} for the definitions whose name, or method name, is not in referenced."""
    return {
        name: line
        for name, line in module_definitions(tree)
        if name not in BASE_CLASS_HOOKS and name.rsplit(".", 1)[-1] not in referenced
    }


def referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def test_no_dead_definitions():
    referenced = set()
    for path in SOURCES + sorted((ROOT / "perfbench").glob("*.py")):
        referenced |= referenced_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    dead = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        dead += [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in dead_definitions(tree, referenced).items()]
    assert not dead, f"defined but referenced nowhere: {', '.join(dead)}"


def test_flags_an_unused_definition():
    tree = ast.parse("def used():\n    def inner(): pass\ndef unused(): pass\nclass Named: pass\nclass Gone: pass\n"
                     "def _helper(): pass\nused()\ntarget = 'Named.step'\nvalue = obj._helper\n")
    assert set(dead_definitions(tree, referenced_names(tree))) == {"unused", "Gone"}


def test_flags_an_unused_method():
    tree = ast.parse("class Named:\n    def __init__(self): pass\n    def step(self): pass\n    def gone(self): pass\n"
                     "    @property\n    def size(self): return 1\n    @property\n    def unread(self): return 2\n"
                     "    @staticmethod\n    def build(): return Named()\n"
                     "class _Parser:\n    def error(self, message): pass\n"
                     "parser = _Parser()\nNamed.build().step()\ntarget = 'Named.size'\n")
    assert set(dead_definitions(tree, referenced_names(tree))) == {"Named.gone", "Named.unread"}


CAPDET_MODULES = sorted(path.stem for path in (ROOT / "src" / "capdet").glob("*.py") if path.stem != "__init__")
DOTTED = re.compile(r"(?<![\w.])(?:capdet\.)?(?:" + "|".join(CAPDET_MODULES) + r")(?:\.[A-Za-z_]\w*)*")


def prose(source):
    """The docstrings and comments of a module's source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node):
            yield ast.get_docstring(node, clean=False)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.string


def dotted_references(text):
    return [ref for ref in DOTTED.findall(text) if "." in ref and not ref.endswith(".py")]


def resolves(reference):
    parts = reference.removeprefix("capdet.").split(".")
    target = importlib.import_module(f"capdet.{parts[0]}")
    for part in parts[1:]:
        if part in getattr(target, "__annotations__", {}):
            return True  # a field, whose value only an instance holds
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_dotted_references_resolve():
    texts = [(ROOT / "README.md", (ROOT / "README.md").read_text(encoding="utf-8"))]
    for path in sorted((ROOT / "src" / "capdet").glob("*.py")):
        texts += [(path, text) for text in prose(path.read_text(encoding="utf-8"))]
    unresolved = [
        f"{path.relative_to(ROOT)}: {ref}" for path, text in texts for ref in dotted_references(text) if not resolves(ref)
    ]
    assert not unresolved, f"references to nothing: {', '.join(unresolved)}"


def test_flags_an_unresolved_reference():
    source = (
        '"""See trainer.SceneBatch.pack and capdet.oicr, not src/capdet/trainer.py or the trainer."""\n'
        "# weakloss.LossReport.l_total.sum, then oicr.gone\n"
        "x = 'geometry.absent'\n"
    )
    references = [ref for text in prose(source) for ref in dotted_references(text)]
    assert references == ["trainer.SceneBatch.pack", "capdet.oicr", "weakloss.LossReport.l_total.sum", "oicr.gone"]
    assert [ref for ref in references if not resolves(ref)] == ["oicr.gone"]


# the README sentence that lists a command's config flags: a count word, then the flags
README_FLAG_LISTS = {
    "train": r"`train` takes the (\w+) training settings as flags \(([^)]*)\)",
    "eval": r"`eval` takes only the (\w+) settings inference reads, ([^.]*)\.",
}
COUNTS = dict(zip("one two three four five six seven eight nine ten eleven twelve".split(), range(1, 13)))


def readme_flag_lists(text):
    """{command: (the count, the sorted flags)} from each sentence of README_FLAG_LISTS, None where it is missing."""
    text = " ".join(text.split())
    lists = {}
    for command, pattern in README_FLAG_LISTS.items():
        match = re.search(pattern, text)
        lists[command] = match and (COUNTS.get(match[1]), sorted(re.findall(r"`(--[\w-]+)`", match[2])))
    return lists


def parser_flag_lists():
    """{command: (the count, the sorted flags)} of the flags of cli.build_parser() that set a TrainConfig field."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    lists = {}
    for command in README_FLAG_LISTS:
        flags = sorted(a.option_strings[0] for a in sub.choices[command]._actions if a.dest in fields)
        lists[command] = (len(flags), flags)
    return lists


def test_readme_flag_lists_are_the_parsers():
    assert readme_flag_lists((ROOT / "README.md").read_text(encoding="utf-8")) == parser_flag_lists()


def test_flags_a_stale_flag_list():
    text = (
        "`train` takes the two training\nsettings as flags (`--seed`, `--steps`) or as a file. "
        "`eval` takes only the three settings inference reads, `--nms-threshold` and `--score-floor`."
    )
    assert readme_flag_lists(text) == {
        "train": (2, ["--seed", "--steps"]),
        "eval": (3, ["--nms-threshold", "--score-floor"]),
    }
    assert readme_flag_lists("`train` takes flags.") == {"train": None, "eval": None}


# the README phrase that lists each field table's keys, up to the words "with the keys"
KEY_LIST = r" with the keys ((?:`\w+`(?:,? and |, )?)+)"
README_KEY_LISTS = {
    "synthbench.HEADER_FIELDS": "one JSON header line",
    "synthbench.RECORD_FIELDS": "one JSON record per scene",
    "synthbench.GT_FIELDS": "each entry of `gt` is an object",
    "scorenet.CHECKPOINT_FIELDS": "a JSON layout header",
    "textgraph.VOCABULARY_FIELDS": "vocabulary files (`--vocab`): a JSON object",
    "textgraph.REGISTRY_FIELDS": "registry files (`--registry`): a JSON object",
    "textgraph.CATEGORY_FIELDS": "each category an object",
    "textgraph.CAPTION_FIELDS": "caption files (`capdet parse` input): one JSON object per line",
}
TABLES = {"synthbench": synthbench, "scorenet": scorenet, "textgraph": textgraph}


def readme_key_lists(text):
    """{table: the sorted keys README's File formats lists for it}, None where the phrase is missing."""
    section = " ".join(text.split("## File formats", 1)[-1].split("\n## ", 1)[0].split())
    lists = {}
    for table, phrase in README_KEY_LISTS.items():
        match = re.search(re.escape(phrase) + KEY_LIST, section)
        lists[table] = match and sorted(re.findall(r"`(\w+)`", match[1]))
    return lists


def test_readme_key_lists_are_the_field_tables():
    tables = {}
    for table in README_KEY_LISTS:
        module, name = table.split(".")
        tables[table] = sorted(getattr(TABLES[module], name))
    assert readme_key_lists((ROOT / "README.md").read_text(encoding="utf-8")) == tables


def test_flags_a_stale_key_list():
    text = (
        "## File formats\n- caption files (`capdet parse` input): one JSON object per line with\n  the keys `image_id`, "
        "`captions` and `extra`; a JSON layout header with the keys `dtype`.\n## Next\neach category an object with the "
        "keys `name` and `values`"
    )
    lists = readme_key_lists(text)
    assert lists["textgraph.CAPTION_FIELDS"] == ["captions", "extra", "image_id"]
    assert lists["scorenet.CHECKPOINT_FIELDS"] == ["dtype"]
    assert lists["textgraph.CATEGORY_FIELDS"] is None  # outside File formats


def data_error_handlers(tree):
    """The line of each except handler that raises a DataError, by bare name or as an attribute."""
    lines = []
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler):
            continue
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(raised, "attr", getattr(raised, "id", None)) == "DataError":
                    lines.append(handler.lineno)
                    break
    return lines


def test_cli_re_raises_no_caught_error_as_a_data_error():
    path = ROOT / "src" / "capdet" / "cli.py"
    lines = data_error_handlers(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not lines, f"cli.py names inputs in except handlers at lines {lines}: let the reader name them (fields.naming)"


def test_flags_a_handler_that_raises_a_data_error():
    tree = ast.parse(
        "try:\n    f()\nexcept ValueError as e:\n    raise DataError(f'x: {e}') from None\n"
        "try:\n    g()\nexcept OSError:\n    if h():\n        raise synthbench.DataError\n"
        "except KeyError:\n    raise UsageError('z')\nexcept TypeError:\n    raise\n"
        "raise DataError('outside a handler')\n"
    )
    assert data_error_handlers(tree) == [3, 7]
