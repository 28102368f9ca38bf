"""The library keeps only what a program path runs.

Every public top-level function or class of `src/eqlines`, and every
public method of a public class, must be referenced by the library
itself (outside `__init__.py` and its own definition), by the benchmark
harness (`perfbench/*.py`) or by the Python snippets of the recipes
(`docs/recipes/*.sh`).  A name is referenced when it appears as an
attribute, an imported name or an identifier string (as `getattr`
takes it), or, for a top-level name, as a variable of its own module;
a local variable of the same name elsewhere is not a reference.
Helpers that only tests use belong in `tests/oracles.py`.

Every keyword parameter (one with a default) of such a function or
method must likewise be passed by some program call of that name, by
keyword or by position; a call with `*args` or `**kwargs` counts as
passing every parameter it could reach.

No library module imports `time` or `random`, so that every library
result is a function of its inputs alone.
"""

import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
LIB = ROOT / "src" / "eqlines"

# qualified name -> why it stays though no program path references it
ALLOWED = {
    "spansearch.SpanEngine.tier_counts": "observability: the draws each "
    "span tier decided, to be reported on the trace side channel",
    "spansearch.SplitMix64": "the reference definition of the seed stream "
    "that `_draw_block` reproduces lane by lane, as the README documents",
    "linalg.RatMatrix.entries": "with `row` and `[i, j]`, the documented "
    "way to read a matrix's entries as Fractions",
    "linalg.RatMatrix.row": "with `entries` and `[i, j]`, the documented "
    "way to read a matrix's entries as Fractions",
}

# "qualified name(parameter)" -> why the parameter stays though no
# program call passes it
ALLOWED_PARAMS = {
    "saturation.check_saturated(node_budget)": "the d = 17 row of the "
    "saturation table, whose clique search does not finish, needs a "
    "bounded search that every machine stops at the same pool",
    "maxclique.to_dimacs(comment)": "DIMACS comment lines are part of the "
    "export format",
}

# the body of each `<<'PY'` ... `PY` heredoc of a recipe
_HEREDOC = re.compile(r"<<\s*'?PY'?\n(.*?)\nPY\n", re.S)


def _public_nodes() -> list[tuple[str, str, ast.AST]]:
    """(module, class or "", node) of every public top-level function
    or class and every public method of a public class."""
    found = []
    for path in sorted(LIB.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found.append((path.stem, "", node))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (path.stem, node.name, item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return found


def _references(source: str) -> tuple[set[str], set[str]]:
    """(names used as variables, names used any other way) in source."""
    variables, other = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            variables.add(node.id)
        elif isinstance(node, ast.Attribute):
            other.add(node.attr)
        elif isinstance(node, ast.alias):
            other.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                other.add(node.value)
    return variables, other


def _program_sources() -> dict[str, str]:
    """Label -> source of every program file: a library module's label
    is its module name."""
    sources = {
        p.stem: p.read_text() for p in sorted(LIB.glob("*.py")) if p.name != "__init__.py"
    }
    sources.update(
        (f"perfbench/{p.name}", p.read_text())
        for p in sorted((ROOT / "perfbench").glob("*.py"))
    )
    for script in sorted((ROOT / "docs" / "recipes").glob("*.sh")):
        for k, snippet in enumerate(_HEREDOC.findall(script.read_text())):
            sources[f"docs/recipes/{script.name}#{k}"] = snippet
    return sources


def _unreferenced() -> list[str]:
    refs = {label: _references(src) for label, src in _program_sources().items()}
    used = set().union(*(other for _, other in refs.values()))
    unused = []
    for module, cls, node in _public_nodes():
        name = node.name
        own = module in refs and not cls and name in refs[module][0]
        if name not in used and not own:
            unused.append(".".join(filter(None, (module, cls, name))))
    return unused


def _keyword_parameters(fn: ast.FunctionDef, method: bool):
    """(name, position or None) of each parameter of fn with a default;
    position counts from a call's first argument, and is None for a
    keyword-only parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    decorators = [getattr(d, "id", None) for d in fn.decorator_list]
    if method and "staticmethod" not in decorators:
        positional = positional[1:]  # self or cls
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    found.extend(
        (a.arg, None)
        for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None
    )
    return found


def _passes(call: ast.Call, param: str, position) -> bool:
    """Whether call passes param by keyword or through **kwargs, or by
    position, which *args reaches at any position."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return position is not None and (starred or len(call.args) > position)


def _unpassed_parameters() -> list[str]:
    """"module.[class.]function(parameter)" of every keyword parameter
    that no program call of the function's name passes."""
    calls: dict[str, list[ast.Call]] = {}
    for src in _program_sources().values():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, cls, node in _public_nodes():
        if not isinstance(node, ast.FunctionDef):
            continue
        named = calls.get(node.name, [])
        for param, position in _keyword_parameters(node, bool(cls)):
            if not any(_passes(c, param, position) for c in named):
                qual = ".".join(filter(None, (module, cls, node.name)))
                unpassed.append(f"{qual}({param})")
    return unpassed


def test_every_public_name_has_a_program_caller():
    unused = [name for name in _unreferenced() if name not in ALLOWED]
    assert not unused, f"public names no program path references: {unused}"


def test_allowlist_holds_only_unreferenced_names():
    # an entry whose name gained a caller, or went, must leave the list
    assert sorted(ALLOWED) == sorted(set(ALLOWED) & set(_unreferenced()))


def test_recipe_snippets_are_found():
    # the heredoc pattern must keep matching the recipes' layout
    snippets = [s for label, s in _program_sources().items() if "#" in label]
    assert len(snippets) >= 5 and any("from eqlines" in s for s in snippets)


def _unresolved_names(source: str) -> list[str]:
    """Names source takes from `eqlines` that do not exist: each name of
    a `from eqlines... import`, and each attribute read off an `eqlines`
    module that source imports."""
    modules: dict[str, ModuleType] = {}
    missing = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "eqlines":
                    local = alias.asname or "eqlines"
                    target = alias.name if alias.asname else "eqlines"
                    modules[local] = importlib.import_module(target)
        elif (
            isinstance(node, ast.ImportFrom)
            and not node.level
            and node.module.split(".")[0] == "eqlines"
        ):
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    value = getattr(module, alias.name)
                except AttributeError:
                    try:
                        value = importlib.import_module(f"{node.module}.{alias.name}")
                    except ImportError:
                        missing.append(f"{node.module}.{alias.name}")
                        continue
                if isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            base = modules.get(node.value.id)
            if base is not None and not hasattr(base, node.attr):
                missing.append(f"{base.__name__}.{node.attr}")
    return missing


def test_recipe_names_resolve():
    # recipe 08 needs a graph file that tier-1 does not have, so this is
    # what keeps its snippet in step with renames in the library
    snippets = {l: s for l, s in _program_sources().items() if "#" in l}
    unresolved = {
        label: names
        for label, source in snippets.items()
        if (names := _unresolved_names(source))
    }
    assert not unresolved, f"recipe names that do not resolve: {unresolved}"


def test_unresolved_recipe_names_are_caught():
    # the check itself must see a gone name in either position
    bad = (
        "import eqlines.lineset as ls\n"
        "from eqlines import lineset\n"
        "from eqlines.constructions import from_graph6, srg_check\n"
        "lineset.save(ls.nope)\n"
    )
    assert _unresolved_names(bad) == [
        "eqlines.constructions.from_graph6",
        "eqlines.lineset.nope",
    ]


def test_every_keyword_parameter_is_passed():
    unpassed = [p for p in _unpassed_parameters() if p not in ALLOWED_PARAMS]
    assert not unpassed, f"keyword parameters no program call passes: {unpassed}"


def test_parameter_allowlist_holds_only_unpassed_parameters():
    # an entry whose parameter gained a caller, or went, must leave the list
    unpassed = set(_unpassed_parameters())
    assert sorted(ALLOWED_PARAMS) == sorted(set(ALLOWED_PARAMS) & unpassed)


def _imported_modules(source: str) -> set[str]:
    """Top-level names of the modules source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_library_reads_no_clock_or_random_state():
    nondeterministic = {"time", "random"}
    offenders = {
        path.stem: sorted(_imported_modules(path.read_text()) & nondeterministic)
        for path in sorted(LIB.glob("*.py"))
    }
    offenders = {m: names for m, names in offenders.items() if names}
    assert not offenders, f"library modules importing time or random: {offenders}"
