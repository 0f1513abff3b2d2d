"""The package must run on the NumPy floor that pyproject.toml declares.

The tests run on a NumPy 2.x, so a name that NumPy added after the floor
passes every other test and still breaks an install on the floor (an
`ndarray.mT` did once). This test reads the package source and rejects
those names by their spelling: attributes of `np`, `numpy` and `np.linalg`,
names imported from numpy, and the array attributes below.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Added after 1.24: the submodules of 1.25, then the array-API names of 2.0-2.2.
NEWER_NUMPY = {
    "exceptions", "dtypes", "strings", "long", "ulong",
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh",
    "bitwise_left_shift", "bitwise_right_shift", "bitwise_invert", "bitwise_count",
    "concat", "permute_dims", "pow", "matrix_transpose", "vecdot", "matvec", "vecmat",
    "isdtype", "astype", "unstack", "cumulative_sum", "cumulative_prod", "trapezoid",
    "unique_all", "unique_counts", "unique_inverse", "unique_values",
}
NEWER_LINALG = {
    "matrix_norm", "vector_norm", "vecdot", "diagonal", "trace", "outer", "cross",
    "matrix_transpose", "svdvals", "tensordot", "matmul",
}
NEWER_ARRAY_ATTRIBUTES = {"mT", "device", "to_device"}


def _newer_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            if (node.attr in NEWER_ARRAY_ATTRIBUTES
                    or owner in ("np", "numpy") and node.attr in NEWER_NUMPY
                    or owner in ("np.linalg", "numpy.linalg") and node.attr in NEWER_LINALG):
                yield node.lineno, f"{owner}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            newer = NEWER_NUMPY if node.module == "numpy" else NEWER_LINALG
            for alias in node.names:
                if alias.name in newer:
                    yield node.lineno, f"from {node.module} import {alias.name}"


def test_source_uses_no_numpy_name_newer_than_the_floor():
    # the name lists above are relative to this floor
    assert '"numpy>=1.24"' in (ROOT / "pyproject.toml").read_text()
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line, name in _newer_names(ast.parse(path.read_text(), str(path))):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert found == []


def test_newer_names_are_caught():
    source = ("import numpy as np\nfrom numpy import concat\n"
              "a = np.eye(2).mT\nb = np.pow(a, 2)\nc = np.linalg.vector_norm(b)\n"
              "d = np.swapaxes(a, -1, -2) @ np.linalg.norm(b)\n")
    assert {name for _, name in _newer_names(ast.parse(source))} == {
        "from numpy import concat", "np.eye(2).mT", "np.pow", "np.linalg.vector_norm"}
