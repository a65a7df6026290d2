"""The reference oracles stay off the runtime path."""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

#: Modules allowed to import ``repro.reference``: the module itself and
#: the differential fuzzer.  (The E12 benchmark, which times the BLAS
#: kernels against the int64 ones, lives outside the package.)
ALLOWED = ("reference.py", "fuzz/")


def _imports_reference(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "repro.reference"
                   or alias.name.startswith("repro.reference.")
                   for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "repro.reference":
                return True
            if node.module == "repro" and any(
                    alias.name == "reference" for alias in node.names):
                return True
    return False


def test_only_oracle_consumers_import_reference():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith(ALLOWED):
            continue
        if _imports_reference(ast.parse(path.read_text(), filename=str(path))):
            offenders.append(relative)
    assert offenders == [], (
        f"runtime modules import repro.reference: {offenders}")


def test_boundary_check_sees_every_import_form():
    for source in ("import repro.reference",
                   "from repro.reference import nms_reference",
                   "from repro import reference",
                   "def f():\n    from repro.reference import int64_kernels\n"):
        assert _imports_reference(ast.parse(source)), source
    assert not _imports_reference(ast.parse("from repro.detect import nms"))
