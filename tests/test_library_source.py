"""Checks on the library source itself."""

import ast
import re
import sys
from pathlib import Path

import finmeas
from finmeas import cli

MODULES = sorted(Path(finmeas.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # an assert vanishes under python -O; self-checks must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(MODULES) > 1
    assert found == []


def test_library_imports_only_the_standard_library():
    # the library is stdlib-only: every import is relative or a stdlib module
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_library_reads_no_environment_variable():
    # results depend on the arguments only: no os.environ, os.getenv or
    # `from os import environ`
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in readers
        or isinstance(node, ast.alias) and node.name in readers
    ]
    assert found == []


def test_library_imports_no_private_name_from_a_sibling_module():
    # a name another module needs is public: `from .x import _y` is refused
    found = [
        f"{path.name}:{node.lineno} {node.module}.{alias.name}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_only_the_flow_module_uses_max_flow():
    # every Strassen question goes through flow.transport or
    # flow.transport_sweep, so no other module runs a general max flow of
    # its own: none names max_flow at all
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name != "flow.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Name) and node.id == "max_flow"
        or isinstance(node, ast.Attribute) and node.attr == "max_flow"
        or isinstance(node, ast.alias) and node.name == "max_flow"
    ]
    assert found == []


def test_the_flow_module_builds_a_residual_network_in_two_places():
    # every Strassen question goes through flow.transport_sweep (transport
    # is its one-batch form), so the bipartite network is built in one
    # place, and the Hutchinson transshipment builds the only other
    path = Path(finmeas.__file__).parent / "flow.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        top.name
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_Residual"
    ]
    assert found == ["transport_sweep", "min_cost_transshipment"]


def test_the_flow_module_imports_nothing_from_fractions():
    # the solvers run on the ints their callers scale to, so they build
    # no Fraction: flow.py neither imports fractions nor names Fraction
    path = Path(finmeas.__file__).parent / "flow.py"
    found = [
        f"flow.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import)
        and any(alias.name.partition(".")[0] == "fractions" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "fractions"
        or isinstance(node, ast.Name) and node.id == "Fraction"
    ]
    assert found == []


def test_only_measures_reads_the_dense_weights_view_and_none_reads_dist():
    # algorithms and the CLI read a measure's integer form (D, cols, nums)
    # and a metric's (D, rows); the dense Fraction views `weights` and
    # `dist` are built for callers outside the library, and only
    # measures.py reads its own view
    found = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and (
            node.attr == "dist"
            or node.attr == "weights" and path.name != "measures.py"
        )
    ]
    assert found == []


def test_no_module_counts_atoms_by_listing_them():
    # a product lists its points and atoms on first read, so the number of
    # atoms is read from n_atoms: no len(<expr>.atoms) anywhere
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "len"
        and any(isinstance(a, ast.Attribute) and a.attr == "atoms" for a in node.args)
    ]
    assert found == []


def test_only_the_spaces_module_writes_the_label_bar():
    # product labels are built and counted in spaces.py alone, so the '|'
    # escape rule is stated once: no other module has a "|" constant
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name != "spaces.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value == "|"
    ]
    assert found == []


def _is_cli_handler(node):
    """Whether node is a function registered through cli._command."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_command"
        for d in node.decorator_list
    )


def test_no_cli_handler_reads_the_model():
    # model references are read in one place, the cli._READ table: a
    # handler registered through _command takes the entries its flags
    # declare, and neither has a model parameter nor reads the name
    tree = ast.parse((Path(finmeas.__file__).parent / "cli.py").read_text())
    handlers = [node for node in ast.walk(tree) if _is_cli_handler(node)]
    found = [
        f"{node.name}:{sub.lineno}"
        for node in handlers
        for sub in ast.walk(node)
        if isinstance(sub, ast.arg) and sub.arg == "model"
        or isinstance(sub, ast.Name) and sub.id == "model"
    ]
    assert len(handlers) == len(cli._COMMANDS)
    assert found == []


def test_only_cli_handlers_import_inside_a_function():
    # a module imports its siblings once, at its top; only a CLI command
    # handler defers an import, so a command loads the layers it runs
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, ast.FunctionDef)
        and not (path.name == "cli.py" and _is_cli_handler(func))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_the_public_names_are_no_modules():
    # `from finmeas import *` gives the API, not the package's submodules
    modules = [
        name for name in finmeas.__all__
        if isinstance(getattr(finmeas, name), type(finmeas))
    ]
    assert modules == []


def test_every_public_name_is_used_by_the_cli_or_documented():
    # a name in __all__ is either exercised by the CLI or listed in the
    # README, whose API index covers the library-only names
    root = Path(finmeas.__file__).parent
    cli = ast.parse((root / "cli.py").read_text())
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(cli)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    used |= {
        alias.name for node in ast.walk(cli) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    # a name counts as documented when it is a word inside a code block or
    # an inline code span
    blocks = re.findall(r"```.*?```", readme, flags=re.S)
    inline = re.findall(r"`[^`\n]+`", re.sub(r"```.*?```", "", readme, flags=re.S))
    spans = " ".join(blocks + inline)
    documented = set(re.findall(r"\w+", spans))
    missing = [name for name in finmeas.__all__ if name not in used | documented]
    assert missing == []


def test_every_error_code_is_its_class_name():
    # FinmeasError.__init_subclass__ sets each code once, from the name
    errors = [
        value for value in vars(finmeas.errors).values()
        if isinstance(value, type) and issubclass(value, finmeas.FinmeasError)
    ]
    exported = [getattr(finmeas, name) for name in finmeas.__all__]
    assert {e for e in exported if e in errors} == set(errors)
    assert len(errors) > 10
    assert [e.__name__ for e in errors if e.code != e.__name__] == []
