"""No function, method or class in ``src/voacalc`` that nothing calls, and
no defaulted parameter that no call sets.

A definition counts as used when some ``src`` code outside its own body
names it: a function or class as a plain name or as an attribute
(``moduli.sew``), a method as an attribute only. Imports and ``__all__``
entries do not count, so a name kept only by a re-export still fails.
Dunder methods run by protocol and are exempt. The check goes by name,
so a method that shares its name with a used one (``extend``, ``act``)
passes.

A defaulted parameter counts as set when some ``src`` call outside the
function's own body, to a name the function goes by (as above), passes it
by position or by name; a call that unpacks ``*args`` or ``**kwargs``
passes every position or every name. Dunder methods are exempt."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "voacalc"

# aids that only tests or the benchmark call, each with its reason
ALLOWED = {
    "contragredient.ContragredientModule.conj_operator":
        "the conjugated operand on one vector, sharing the defining "
        "relation's code: tests hold the dual to it, and perfbench's "
        "tracer counts its calls",
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

# defaulted parameters that only tests or the console script set, or that
# a call the scan cannot resolve passes, each with its reason
ALLOWED_KNOBS = {
    "contragredient.ContragredientModule.conj_operator.ceiling":
        "tests clip the conjugated operand at |mu|, as the defining "
        "relation's right side does",
    "cli.emit.stream": "tests capture the records of one run",
    "cli.main.argv": "tests pass argv; the console script reads sys.argv",
    "contragredient.build_invariant_form.normalization":
        "tests scale the form",
    "fusion.parse_fusion_tensor.name":
        "reports.load_fixture passes it to the parser it is handed",
    "moduli.parse_moduli_element.name":
        "reports.load_fixture passes it to the parser it is handed",
}


class _Scan(ast.NodeVisitor):
    """The definitions of one module, as (qualified name, name, node id,
    whether it is a method), the names it references, as (name, whether an
    attribute, ids of the definitions enclosing it), the defaulted
    parameters of its functions, as (qualified name, function name, node
    id, whether a method, position or None, name or None), and
    its calls, as (name, whether an attribute, ids of the definitions
    enclosing it, positions passed, names passed or None for all)."""

    def __init__(self, module: str):
        self.defs: list = []
        self.refs: list = []
        self.knobs: list = []
        self.calls: list = []
        self._path = [module]
        self._enclosing: list = []
        self._in_class = False

    def _define(self, node):
        for dec in node.decorator_list:
            self.visit(dec)
        if not (node.name.startswith("__") and node.name.endswith("__")):
            self.defs.append((".".join(self._path + [node.name]), node.name,
                              id(node), self._in_class))
            if not isinstance(node, ast.ClassDef):
                self._knobs(node)
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

    def _knobs(self, node):
        a = node.args
        positional = a.posonlyargs + a.args
        # a call on an instance or a class passes self or cls itself
        shift = self._in_class and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list)
        prefix = ".".join(self._path + [node.name])
        for i, arg in enumerate(positional):
            if i >= len(positional) - len(a.defaults):
                self.knobs.append((f"{prefix}.{arg.arg}", node.name,
                                   id(node), self._in_class, i - shift,
                                   None if arg in a.posonlyargs else arg.arg))
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                self.knobs.append((f"{prefix}.{arg.arg}", node.name,
                                   id(node), self._in_class, None, arg.arg))

    def visit_Call(self, node):
        f = node.func
        if isinstance(f, (ast.Name, ast.Attribute)):
            starred = any(isinstance(x, ast.Starred) for x in node.args)
            names = None if any(k.arg is None for k in node.keywords) \
                else {k.arg for k in node.keywords}
            self.calls.append((f.id if isinstance(f, ast.Name) else f.attr,
                               isinstance(f, ast.Attribute),
                               frozenset(self._enclosing),
                               float("inf") if starred else len(node.args),
                               names))
        self.generic_visit(node)

    def visit_Name(self, node):
        self.refs.append((node.id, False, frozenset(self._enclosing)))

    def visit_Attribute(self, node):
        self.refs.append((node.attr, True, frozenset(self._enclosing)))
        self.generic_visit(node)


def _scans() -> tuple:
    """The scan of every module, with the trees it holds ids of."""
    # the trees stay alive with the scans, so that no two modules' nodes
    # share an id: a freed tree's ids are reused by the next module's
    scans, trees = [], []
    for path in sorted(SRC.glob("*.py")):
        scan = _Scan(path.stem)
        trees.append(ast.parse(path.read_text(), str(path)))
        scan.visit(trees[-1])
        scans.append(scan)
    return scans, trees


def _definitions() -> dict:
    """Qualified name -> whether a reference outside its body names it."""
    scans, _trees = _scans()
    refs = [ref for scan in scans for ref in scan.refs]
    return {qual: any(n == name and (attr or not method) and node not in inside
                      for n, attr, inside in refs)
            for scan in scans for qual, name, node, method in scan.defs}


def _knobs() -> dict:
    """Qualified name of a defaulted parameter -> whether a call outside
    its function's body passes it."""
    scans, _trees = _scans()
    calls = [call for scan in scans for call in scan.calls]
    return {qual: any(n == name and (attr or not method)
                      and node not in inside
                      and ((pos is not None and pos < npos)
                           or (kw is not None
                               and (names is None or kw in names)))
                      for n, attr, inside, npos, names in calls)
            for scan in scans
            for qual, name, node, method, pos, kw in scan.knobs}


def test_every_definition_is_referenced():
    unused = [qual for qual, used in _definitions().items()
              if not used and qual not in ALLOWED]
    assert unused == []


def test_allow_list_names_unreferenced_definitions():
    # an entry whose definition is gone, or now referenced, is stale
    defs = _definitions()
    assert {qual for qual in ALLOWED if defs.get(qual) is False} \
        == set(ALLOWED)


def test_every_defaulted_parameter_is_set():
    unset = [qual for qual, used in _knobs().items()
             if not used and qual not in ALLOWED_KNOBS]
    assert unset == []


def test_knob_allow_list_names_unset_parameters():
    knobs = _knobs()
    assert {qual for qual in ALLOWED_KNOBS if knobs.get(qual) is False} \
        == set(ALLOWED_KNOBS)
