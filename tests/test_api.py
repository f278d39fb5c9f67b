import ast
from pathlib import Path

import drawlab as dl


def test_all_lists_exactly_the_public_imports():
    # a name removed from a module but still exported, or imported but not
    # listed, fails here
    tree = ast.parse(Path(dl.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(dl.__all__) == len(set(dl.__all__))
    assert set(dl.__all__) == public
    for name in dl.__all__:
        assert getattr(dl, name) is not None, name
