"""Each file job has one path: ``cohort.read_csv`` reads every CSV and
``pipeline.write_file`` writes every file that ``fuse synth`` and ``fuse gof``
produce, so an encoding, a check or an atomic rename is fixed in one place."""

import ast
from pathlib import Path

import riskfuse

SRC = Path(riskfuse.__file__).parent
WRITE_METHODS = {"write_text", "write_bytes"}


def _dotted(node) -> str:
    return f"{node.value.id}.{node.attr}" if isinstance(node.value, ast.Name) else ""


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in WRITE_METHODS:
        return True
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    return mode is not None and not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def test_one_reader_and_one_writer():
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside_write_file = {
            id(node)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "write_file"
            for arg in call.args[1:]
            for node in ast.walk(arg)
        }
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and _dotted(node) in ("csv.reader", "csv.DictReader") \
                    and path.name != "cohort.py":
                problems.append(f"{where} reads a CSV outside cohort.read_csv")
            if isinstance(node, ast.Attribute) and _dotted(node) == "os.replace" and path.name != "pipeline.py":
                problems.append(f"{where} renames a file outside pipeline.write_file")
            if isinstance(node, ast.Call) and path.name in ("synth.py", "cli.py") and _opens_for_writing(node) \
                    and id(node) not in inside_write_file:
                problems.append(f"{where} writes a file outside pipeline.write_file")
    assert problems == []
