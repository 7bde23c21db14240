"""The layer graph: which package layers each layer imports, read from the
source with ast, so imports inside functions count too."""

import ast
import pathlib

import bianchiq

SRC = pathlib.Path(bianchiq.__file__).parent

# layer -> the other layers it imports
LAYERS = {
    "exact": set(),
    "theta": set(),
    "congruence": set(),
    "modular": {"exact"},
    "curve": {"exact"},
    "identities": {"exact", "curve", "modular", "theta"},
    "cli": {"congruence", "curve", "identities", "modular", "theta"},
}


def imported_layers(path):
    """The package layers named by every import in the file, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            # "from .x import y" names x; "from . import x, y" names x and y
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # the layers reach each other by relative imports only
            assert "bianchiq" not in ast.unparse(node), f"{path.name}: {ast.unparse(node)}"
    return found


def test_each_layer_imports_only_the_layers_below_it():
    layers = {p.stem for p in SRC.glob("*.py") if not p.stem.startswith("__")}
    assert layers == set(LAYERS)
    graph = {name: imported_layers(SRC / f"{name}.py") for name in sorted(layers)}
    assert graph == LAYERS
