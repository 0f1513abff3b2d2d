import ast
from pathlib import Path

import magicforge


def test_all_lists_exactly_the_imported_public_names():
    # __all__ is computed from __init__'s imports: exactly their public names, no submodule
    tree = ast.parse(Path(magicforge.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if not alias.name.startswith("_")}
    assert len(magicforge.__all__) == len(set(magicforge.__all__))
    assert set(magicforge.__all__) == imported
