"""No function, method or class in ``src/voacalc`` that nothing calls.

A definition counts as used when some ``src`` code outside its own body
names it: a function or class as a plain name or as an attribute
(``moduli.sew``), a method as an attribute only. Imports and ``__all__``
entries do not count, so a name kept only by a re-export still fails.
Dunder methods run by protocol and are exempt. The check goes by name,
so a method that shares its name with a used one (``extend``, ``act``)
passes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "voacalc"

# aids that only tests or the benchmark call, each with its reason
ALLOWED = {
    "fock.HeisenbergVOA.corrupt":
        "negative controls corrupt one structure constant",
    "fock.HeisenbergVOA.clear_corruptions":
        "negative controls undo their corruption",
    "fock.HeisenbergVOA.touched_mode_keys":
        "tests and perfbench pick the constants to corrupt",
    "fusion.VerlindeAlgebra.multiply": "tests multiply module classes",
    "moduli.compose_perms": "tests compose permutations of punctures",
    "moduli.ModuliElement.standard_coordinates":
        "tests read whether an element's coordinates are standard",
}


class _Scan(ast.NodeVisitor):
    """The definitions of one module, as (qualified name, name, node id,
    whether it is a method), and the names it references, as (name,
    whether an attribute, ids of the definitions enclosing it)."""

    def __init__(self, module: str):
        self.defs: list = []
        self.refs: list = []
        self._path = [module]
        self._enclosing: list = []
        self._in_class = False

    def _define(self, node):
        for dec in node.decorator_list:
            self.visit(dec)
        if not (node.name.startswith("__") and node.name.endswith("__")):
            self.defs.append((".".join(self._path + [node.name]), node.name,
                              id(node), self._in_class))
        self._path.append(node.name)
        self._enclosing.append(id(node))
        outer, self._in_class = self._in_class, isinstance(node, ast.ClassDef)
        for child in ast.iter_child_nodes(node):
            if child not in node.decorator_list:
                self.visit(child)
        self._in_class = outer
        self._enclosing.pop()
        self._path.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Name(self, node):
        self.refs.append((node.id, False, frozenset(self._enclosing)))

    def visit_Attribute(self, node):
        self.refs.append((node.attr, True, frozenset(self._enclosing)))
        self.generic_visit(node)


def _definitions() -> dict:
    """Qualified name -> whether a reference outside its body names it."""
    # the trees stay alive until the end, so that no two modules' nodes
    # share an id: a freed tree's ids are reused by the next module's
    scans, trees = [], []
    for path in sorted(SRC.glob("*.py")):
        scan = _Scan(path.stem)
        trees.append(ast.parse(path.read_text(), str(path)))
        scan.visit(trees[-1])
        scans.append(scan)
    refs = [ref for scan in scans for ref in scan.refs]
    return {qual: any(n == name and (attr or not method) and node not in inside
                      for n, attr, inside in refs)
            for scan in scans for qual, name, node, method in scan.defs}


def test_every_definition_is_referenced():
    unused = [qual for qual, used in _definitions().items()
              if not used and qual not in ALLOWED]
    assert unused == []


def test_allow_list_names_unreferenced_definitions():
    # an entry whose definition is gone, or now referenced, is stale
    defs = _definitions()
    assert {qual for qual in ALLOWED if defs.get(qual) is False} \
        == set(ALLOWED)
