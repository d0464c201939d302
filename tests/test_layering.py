"""The spectral core is the only module of the package that transforms, and
inside it one helper makes every transform, so that its counts see them all."""

import ast
import subprocess
import sys
from pathlib import Path

import phi4torus

FFT_MODULES = {"scipy.fft", "numpy.fft"}


def fft_imports(path: Path) -> set[str]:
    """The FFT modules a source file imports, as `import a.b`, `from a.b
    import c` or `from a import b`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        found |= fft_imports_of(node)
    return found


def fft_imports_of(node: ast.AST) -> set[str]:
    """The FFT modules one import statement imports."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module:
        names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    else:
        return set()
    return {name for name in names if name in FFT_MODULES}


def test_only_spectral_imports_an_fft():
    sources = sorted(Path(phi4torus.__file__).parent.glob("*.py"))
    importers = {path.name for path in sources if fft_imports(path)}
    assert importers == {"spectral.py"}


# scipy.fft functions that transform nothing
NON_TRANSFORMS = {"fftfreq", "rfftfreq", "get_workers"}


def fft_uses(source: str) -> list[tuple[str | None, str]]:
    """(enclosing function, name) of each use of `sfft` (scipy.fft in the
    spectral core) other than a non-transform function, and of each use of
    `np.fft`."""
    uses = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                if child.value.id == "sfft":
                    if child.attr not in NON_TRANSFORMS:
                        uses.append((func, "sfft." + child.attr))
                    continue
                if child.value.id == "np" and child.attr == "fft":
                    uses.append((func, "np.fft"))
            elif isinstance(child, ast.Name) and child.id == "sfft":
                uses.append((func, "sfft"))
            visit(child, func)

    visit(ast.parse(source), None)
    return uses


def test_one_helper_makes_every_transform():
    path = Path(phi4torus.__file__).parent / "spectral.py"
    source = path.read_text()
    imports = [node for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and fft_imports_of(node)]
    assert [ast.unparse(node) for node in imports] == ["from scipy import fft as sfft"]
    uses = fft_uses(source)
    assert uses and {func for func, _ in uses} == {"_fft"}


def test_transform_outside_the_helper_is_caught():
    source = ("def _fft(x):\n    return getattr(sfft, 'rfftn')(x)\n"
              "def values(x):\n    return sfft.irfftn(x) + np.fft.fft(x)\n"
              "def freqs(n):\n    return sfft.rfftfreq(n)\n")
    assert fft_uses(source) == [("_fft", "sfft"), ("values", "sfft.irfftn"),
                                ("values", "np.fft")]


def test_cli_import_leaves_out_scipy_integrate():
    # only the renorm quadratures need scipy.integrate, which loads
    # scipy.optimize, scipy.linalg and scipy.sparse; starting the CLI must not
    src = Path(phi4torus.__file__).resolve().parent.parent
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import phi4torus.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# The functions of the package that may read the eigenvalues of P: the cached
# semigroup, the general multiplier and the cached noise amplitude.  Every
# other linear step reads its factors from the semigroup.
EIGENVALUE_READERS = {("spectral.py", "semigroup"), ("spectral.py", "apply_multiplier"),
                      ("noise.py", "ou_amplitude")}


def eigenvalue_reads(source: str) -> list[str | None]:
    """The enclosing function of each read of an `eigenvalues` attribute, as
    in `half_cube(grid).eigenvalues`."""
    reads = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "eigenvalues":
                reads.append(func)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(ast.parse(source), None)
    return reads


def test_only_the_semigroup_multiplier_and_amplitude_read_eigenvalues():
    readers = set()
    for path in sorted(Path(phi4torus.__file__).parent.glob("*.py")):
        readers |= {(path.name, func) for func in eigenvalue_reads(path.read_text())}
    assert readers == EIGENVALUE_READERS


def test_eigenvalue_read_outside_is_caught():
    source = ("def semigroup(grid, t):\n    return np.exp(-t * half_cube(grid).eigenvalues)\n"
              "def step(u, dt):\n    return lambda: half_cube(u.grid).eigenvalues\n"
              "lam = HALF.eigenvalues\n")
    assert eigenvalue_reads(source) == ["semigroup", "step", None]
