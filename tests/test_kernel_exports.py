"""Every function the extension module exports has a caller in the package.

The names in ``_kernels.c``'s module ``methods[]`` table must each be read
as an attribute (``kernels.<name>``) in some module of the package.  A
kernel that the round stops calling is then deleted with its wrapper
rather than kept alive by its tests alone.  The check reads the C source
and the modules with the standard library alone, so it needs no compiler.

It cannot tell a module function from a method of the same name: a module
``sweep`` would pass on ``Feeder.sweep``'s callers.
"""

from __future__ import annotations

import ast
import re

from conftest import PACKAGE_DIR


def exported(source: str) -> list[str]:
    """The names in the module ``methods[]`` table of a C source."""
    table = re.search(r"PyMethodDef methods\[\] = \{(.*?)\n\};", source, re.S)
    assert table is not None, "no module methods[] table"
    return re.findall(r'^\s*\{"(\w+)"', table.group(1), re.M)


def attributes_read(paths) -> set[str]:
    """Every ``ast.Attribute.attr`` in the Python sources ``paths``."""
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }


def test_every_kernel_export_has_a_caller():
    names = exported((PACKAGE_DIR / "_kernels.c").read_text())
    assert "dual_step" in names and "bind_feeder" in names
    read = attributes_read(sorted(PACKAGE_DIR.glob("*.py")))
    assert [name for name in names if name not in read] == []


def test_the_check_reads_only_the_module_table():
    source = (
        'static PyMethodDef feeder_methods[] = {\n    {"sweep", f, 0, "x"},\n};\n'
        "static PyMethodDef methods[] = {\n"
        '    {"bind_feeder", FASTCALL(bind_feeder),\n     "bind_feeder(...)"},\n'
        '    {"norm", FASTCALL(norm), "norm(a)"},\n'
        "    {NULL, NULL, 0, NULL},\n};\n"
    )
    assert exported(source) == ["bind_feeder", "norm"]
