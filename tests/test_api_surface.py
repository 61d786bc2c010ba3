"""Every public name has a caller in the package or the benchmark harness, the
package reads no environment and starts no threads or processes, and its
source stays under a line ceiling."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# exported on purpose although nothing in the package or harness loads them
UNCALLED_OK = {
    "find_subtree": "the lazy scan's reference oracle",
    "rho_index": "the reference for compress_along_pi_rho heights",
    "ifs_to_json": "README's grid.json recipe",
    "validate_section": "the reference check that section_pi_rho returns a section",
}


# ROADMAP item 5: src/ shrinks toward 5,463 lines.  Only the items that add
# code (11, 14, 16 and 18) may raise this, each by at most its cap, saying so
# in CHANGES.md; every other change keeps src/ at or below it.
SRC_LINE_CEILING = 5549


def _exports():
    tree = ast.parse((ROOT / "src/gwfract/__init__.py").read_text())
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names}


def _loads(tree):
    """Names loaded as a Name or an Attribute, each outside the definition of
    the function or class of that name."""
    out = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def _traced():
    """Names the benchmark tracer wraps, which it looks up from strings."""
    tree = ast.parse((ROOT / "perfbench/tracer.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "TRACED")
    return {part for _, qual in ast.literal_eval(table) for part in qual.split(".")}


def test_every_export_is_loaded_outside_its_definition():
    files = sorted((ROOT / "src/gwfract").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    loaded = set().union(_traced(), *(_loads(ast.parse(f.read_text())) for f in files))
    exports = _exports()
    assert set(UNCALLED_OK) <= exports
    assert sorted(exports - loaded - set(UNCALLED_OK)) == []


def test_no_environment_input_and_no_concurrency():
    # outputs are a function of (config, seed) alone
    banned = ("concurrent", "threading", "multiprocessing")
    found = []
    for f in sorted((ROOT / "src/gwfract").glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names
                                               if node.module == "os"]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += ["%s:%d %s" % (f.name, node.lineno, n) for n in names
                      if n.split(".")[0] in banned or n in ("environ", "environb", "getenv")]
    assert found == []


def test_source_stays_under_its_line_ceiling():
    lines = sum(len(f.read_text().splitlines()) for f in (ROOT / "src/gwfract").glob("*.py"))
    assert lines <= SRC_LINE_CEILING, lines
