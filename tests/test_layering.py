"""The spectral core is the only module of the package that transforms, and
inside it one helper makes every transform, so that its counts see them all."""

import ast
import subprocess
import sys
from pathlib import Path

import phi4torus

FFT_MODULES = {"scipy.fft", "numpy.fft"}


def fft_imports(path: Path) -> set[str]:
    """The FFT modules a source file reaches: imported as `import a.b`,
    `from a.b import c` or `from a import b`, or used as `np.fft`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        found |= fft_imports_of(node)
        if is_np_fft(node):
            found.add("numpy.fft")
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


def is_np_fft(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "fft"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def test_only_spectral_imports_an_fft():
    sources = sorted(Path(phi4torus.__file__).parent.glob("*.py"))
    importers = {path.name for path in sources if fft_imports(path)}
    assert importers == {"spectral.py"}


def fft_uses(source: str) -> list[tuple[str | None, str]]:
    """(enclosing function, "np.fft") of each use of `np.fft`, transform or
    not: the spectral core builds its frequencies without numpy.fft."""
    uses = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if is_np_fft(child):
                uses.append((func, "np.fft"))
            visit(child, func)

    visit(ast.parse(source), None)
    return uses


def test_one_helper_makes_every_transform():
    # numpy.fft through `np` is the one FFT library: the core imports no
    # FFT module, and scipy not at all (scipy.fft costs most of the import)
    path = Path(phi4torus.__file__).parent / "spectral.py"
    source = path.read_text()
    imports = [ast.unparse(node) for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and not [line for line in imports if "scipy" in line or "fft" in line]
    uses = fft_uses(source)
    assert uses and {func for func, _ in uses} == {"_fft"}


def test_transform_outside_the_helper_is_caught():
    source = ("def _fft(x):\n    return getattr(np.fft, 'rfft')(x)\n"
              "def values(x):\n    return np.fft.irfftn(x)\n"
              "def freqs(n):\n    return numpy.fft.rfftfreq(n)\n"
              "K = np.fft.fftfreq(8)\n")
    assert fft_uses(source) == [("_fft", "np.fft"), ("values", "np.fft"),
                                ("freqs", "np.fft"), (None, "np.fft")]


def test_cli_import_leaves_out_scipy_integrate():
    # only the renorm quadratures need scipy.integrate, which loads
    # scipy.optimize, scipy.linalg and scipy.sparse, and only the tests'
    # oracles need scipy.fft, which loads scipy.special; starting the CLI
    # must load neither
    src = Path(phi4torus.__file__).resolve().parent.parent
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import phi4torus.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.fft'))))")
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


def run_blocks(source: str) -> list[ast.With]:
    """The `with _run() ...` statements of a source."""
    return [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.With)
            and any(isinstance(item.context_expr, ast.Call)
                    and isinstance(item.context_expr.func, ast.Name)
                    and item.context_expr.func.id == "_run" for item in node.items)]


def tries_in_run_blocks(source: str) -> list[int]:
    """The line of each `try` statement inside a `with _run()` block."""
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    return sorted({node.lineno for block in run_blocks(source) for stmt in block.body
                   for node in ast.walk(stmt) if isinstance(node, tries)})


def test_run_blocks_catch_nothing():
    # `_run()` alone decides how a run ends: a library ValueError or a
    # blow-up refuses it, any other exception is an error
    source = (Path(phi4torus.__file__).parent / "cli.py").read_text()
    assert run_blocks(source)
    assert tries_in_run_blocks(source) == []


def test_try_inside_a_run_block_is_caught():
    source = ("def ok():\n    try:\n        f()\n    except ValueError:\n        pass\n"
              "def sub():\n    with _run() as (outdir, manifest):\n        g()\n"
              "        if x:\n            try:\n                h()\n"
              "            except ValueError as exc:\n                raise Refused(str(exc))\n"
              "def other():\n    with open(p) as fh, _run() as run:\n"
              "        try:\n            k()\n        finally:\n            pass\n")
    assert tries_in_run_blocks(source) == [10, 16]


def blow_up_handlers(source: str) -> list[str | None]:
    """The enclosing function of each `except` clause that names
    BlowUpError, alone, dotted or in a tuple."""
    found = []

    def names(node):
        if isinstance(node, ast.Tuple):
            return [n for elt in node.elts for n in names(elt)]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        return [node.id] if isinstance(node, ast.Name) else []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and "BlowUpError" in names(child.type):
                found.append(func)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(ast.parse(source), None)
    return found


def test_a_blow_up_is_caught_in_two_places_only():
    # `_run()` refuses the run; coming down from infinity turns the blow-up
    # of one initial size into a NaN row of its result.  Every other chain
    # hands a blow-up on, so no run ends with part of its samples
    handlers = set()
    for path in sorted(Path(phi4torus.__file__).parent.glob("*.py")):
        handlers |= {(path.name, func) for func in blow_up_handlers(path.read_text())}
    assert handlers == {("cli.py", "_run"), ("dynamics.py", "coming_down_experiment")}


def test_a_blow_up_handler_is_caught():
    source = ("def run():\n    try:\n        f()\n    except (ValueError, BlowUpError):\n"
              "        pass\n"
              "def chain():\n    try:\n        g()\n    except dynamics.BlowUpError as exc:\n"
              "        keep(exc)\n    except ValueError:\n        pass\n"
              "try:\n    h()\nexcept BlowUpError:\n    pass\n"
              "def other():\n    try:\n        k()\n    except Exception:\n        pass\n")
    assert blow_up_handlers(source) == ["run", "chain", None]
