"""The spectral core is the only module of the package that transforms."""

import ast
from pathlib import Path

import phi4torus

FFT_MODULES = {"scipy.fft", "numpy.fft"}


def fft_imports(path: Path) -> set[str]:
    """The FFT modules a source file imports, as `import a.b`, `from a.b
    import c` or `from a import b`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found.update(name for name in names if name in FFT_MODULES)
    return found


def test_only_spectral_imports_an_fft():
    sources = sorted(Path(phi4torus.__file__).parent.glob("*.py"))
    importers = {path.name for path in sources if fft_imports(path)}
    assert importers == {"spectral.py"}
