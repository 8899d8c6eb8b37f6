"""Rule ``twin-parity``: the compiled core exposes the pure surface.

``repro.sim._corec`` is a bit-exact C twin of the pure-Python engine;
the selector in ``repro.sim._core`` swaps one for the other unless
``REPRO_NO_COMPILED`` is set.
That substitution is only sound while the *surfaces* agree — a method
added to :class:`repro.sim.engine.Simulator` but not to ``sim_methods``
(or vice versa) produces code that works on one engine build and
AttributeErrors on the other, and the engine-matrix CI only catches it
where a test happens to exercise the new name.

This rule diffs the two surfaces statically, per twin class
(``Event``, ``SeriesEvent``, ``Simulator``):

* method names — C ``PyMethodDef`` tables (with ``tp_base`` chains
  unioned, as Python inheritance would) against public ``def``s;
* attribute names — C ``PyMemberDef`` + ``PyGetSetDef`` against public
  slots, properties, class attributes, and ``self.x`` assignments in
  ``__init__``;
* calling conventions — ``METH_NOARGS`` methods must be zero-argument
  in Python; where the C side parses keywords through a ``kwlist``,
  the names and order must equal the pure signature (keyword-argument
  call sites are the first thing to break on drift);
* construction — ``tp_init``'s kwlist against pure ``__init__``.

Module-level C functions (the ``PyModuleDef``'s ``m_methods`` table) are
checked against :data:`TWIN_FUNCTIONS`: every C function needs a declared
pure twin that exists as a top-level ``def`` in its module, and every
declared twin must be in the C table.

The parsing helpers (:func:`parse_c_surface`, :func:`parse_pure_surface`,
:func:`compare_surfaces`, :func:`parse_c_module_functions`,
:func:`compare_module_functions`) are pure functions over source text so the
self-test suite can seed mutations (rename a C method, drop a kwlist
entry) and prove each drift class is caught.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable

from repro.lint.analyzer import LintRule, Project, register_rule
from repro.lint.findings import Finding

#: pure-class name -> the C PyTypeObject variable implementing it.
TWIN_CLASSES: dict[str, str] = {
    "Event": "Event_Type",
    "SeriesEvent": "SeriesEvent_Type",
    "Simulator": "Simulator_Type",
}

#: C module-level function -> the pure module defining its twin.
TWIN_FUNCTIONS: dict[str, str] = {
    "stable_hash64": "repro.util.hashing",
}

_TABLE_RE = re.compile(
    r"static\s+(PyMethodDef|PyMemberDef|PyGetSetDef)\s+(\w+)\[\]\s*=\s*\{"
    r"(.*?)\n\};",
    re.DOTALL,
)
_TYPE_RE = re.compile(
    r"static\s+PyTypeObject\s+(\w+)\s*=\s*\{(.*?)\n\};", re.DOTALL
)
_MODULE_RE = re.compile(
    r"static\s+struct\s+PyModuleDef\s+\w+\s*=\s*\{(.*?)\n\};", re.DOTALL
)
_M_METHODS_RE = re.compile(r"\.m_methods\s*=\s*(\w+)")
_METHOD_ENTRY_RE = re.compile(
    r"\{\s*\"(\w+)\"\s*,\s*(?:\(PyCFunction\))?\s*(\w+)\s*,"
    r"\s*([A-Z_|\s]+?)\s*,",
    re.DOTALL,
)
_NAME_ENTRY_RE = re.compile(r"\{\s*\"(\w+)\"\s*,")
_SLOT_RE = re.compile(r"\.tp_(\w+)\s*=\s*&?(?:\((?:\w+)\))?\s*\"?([\w.]+)\"?")
_KWLIST_RE = re.compile(r"static\s+char\s*\*kwlist\[\]\s*=\s*\{([^}]*)\};")
_CFUNC_DEF_RE = re.compile(r"^(\w+)\(PyObject\b", re.MULTILINE)


@dataclass
class ClassSurface:
    """One class's externally visible surface, from either language."""

    methods: dict[str, tuple[str, ...] | None] = field(default_factory=dict)
    #: method name -> kwlist/parameter names, or None when unknown
    #: (C METH_VARARGS without a kwlist; nothing to compare).
    attrs: set[str] = field(default_factory=set)
    noargs: set[str] = field(default_factory=set)
    init_params: tuple[str, ...] | None = None


def _parse_tables(c_text: str) -> dict[str, list]:
    """Every static method/member/getset table: name -> its entries."""
    tables: dict[str, list] = {}
    for kind, name, body in _TABLE_RE.findall(c_text):
        if kind == "PyMethodDef":
            tables[name] = _METHOD_ENTRY_RE.findall(body)
        else:
            tables[name] = _NAME_ENTRY_RE.findall(body)
    return tables


def parse_c_module_functions(c_text: str) -> set[str]:
    """Names in the ``m_methods`` table of ``_corec.c``'s module def."""
    tables = _parse_tables(c_text)
    names: set[str] = set()
    for body in _MODULE_RE.findall(c_text):
        match = _M_METHODS_RE.search(body)
        if match and match.group(1) in tables:
            names.update(name for name, _, _ in tables[match.group(1)])
    return names


def compare_module_functions(
    c_functions: set[str],
    pure_defs: dict[str, set[str] | None],
) -> list[str]:
    """Drift between C module functions and their declared pure twins.

    ``pure_defs`` maps a pure module to its top-level function names, or
    to None when that module is not in the analyzed set.
    """
    declared = TWIN_FUNCTIONS
    drifts: list[str] = []
    for name in sorted(c_functions - set(declared)):
        drifts.append(
            f"module function {name}: in the compiled core with no "
            f"declared pure twin"
        )
    for name in sorted(set(declared) - c_functions):
        drifts.append(
            f"module function {name}: declared twin of "
            f"{declared[name]}.{name} is missing from the compiled core"
        )
    for name in sorted(set(declared) & c_functions):
        defs = pure_defs.get(declared[name])
        if defs is not None and name not in defs:
            drifts.append(
                f"module function {name}: pure twin "
                f"{declared[name]}.{name} does not exist"
            )
    return drifts


def parse_c_surface(c_text: str) -> dict[str, ClassSurface]:
    """Extract per-twin-class surfaces from ``_corec.c`` source text."""
    tables = _parse_tables(c_text)

    # C function name -> kwlist names, matched to the enclosing function
    # definition (the last one opening before the kwlist declaration).
    kwlists: dict[str, tuple[str, ...]] = {}
    for match in _KWLIST_RE.finditer(c_text):
        names = tuple(re.findall(r"\"(\w+)\"", match.group(1)))
        owner = None
        for fn in _CFUNC_DEF_RE.finditer(c_text, 0, match.start()):
            owner = fn.group(1)
        if owner is not None:
            kwlists[owner] = names

    types: dict[str, dict[str, str]] = {}
    for var, body in _TYPE_RE.findall(c_text):
        types[var] = dict(_SLOT_RE.findall(body))

    def build(var: str, seen: frozenset[str] = frozenset()) -> ClassSurface:
        surface = ClassSurface()
        slots = types.get(var, {})
        base = slots.get("base")
        if base and base in types and base not in seen:
            parent = build(base, seen | {var})
            surface.methods.update(parent.methods)
            surface.attrs.update(parent.attrs)
            surface.noargs.update(parent.noargs)
        for table_slot, attr in (("members", "attrs"), ("getset", "attrs")):
            table = slots.get(table_slot)
            if table in tables:
                surface.attrs.update(tables[table])
        methods_table = slots.get("methods")
        if methods_table in tables:
            for name, cfunc, flags in tables[methods_table]:
                surface.methods[name] = kwlists.get(cfunc)
                if "METH_NOARGS" in flags:
                    surface.noargs.add(name)
                else:
                    surface.noargs.discard(name)
        init_fn = slots.get("init")
        if init_fn:
            surface.init_params = kwlists.get(init_fn)
        return surface

    return {
        cls: build(var)
        for cls, var in TWIN_CLASSES.items()
        if var in types
    }


def parse_pure_surface(py_text: str) -> dict[str, ClassSurface]:
    """Extract per-twin-class public surfaces from ``engine.py`` text."""
    tree = ast.parse(py_text)
    class_nodes = {
        node.name: node for node in tree.body
        if isinstance(node, ast.ClassDef)
    }

    def public(name: str) -> bool:
        return not name.startswith("_")

    def own_surface(node: ast.ClassDef) -> ClassSurface:
        surface = ClassSurface()
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                params = tuple(
                    a.arg for a in stmt.args.posonlyargs + stmt.args.args
                )[1:]  # drop self
                decorators = {
                    d.id for d in stmt.decorator_list
                    if isinstance(d, ast.Name)
                }
                if stmt.name == "__init__":
                    surface.init_params = params
                    for sub in ast.walk(stmt):
                        if (
                            isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"
                            and public(sub.attr)
                        ):
                            surface.attrs.add(sub.attr)
                elif public(stmt.name):
                    if "property" in decorators:
                        surface.attrs.add(stmt.name)
                    else:
                        surface.methods[stmt.name] = params
                        if not params:
                            surface.noargs.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if target.id == "__slots__":
                        for sub in ast.walk(stmt.value or ast.Tuple([], None)):
                            if (
                                isinstance(sub, ast.Constant)
                                and isinstance(sub.value, str)
                                and public(sub.value)
                            ):
                                surface.attrs.add(sub.value)
                    elif public(target.id):
                        surface.attrs.add(target.id)
        return surface

    def build(name: str, seen: frozenset[str] = frozenset()) -> ClassSurface:
        node = class_nodes[name]
        surface = ClassSurface()
        for base in node.bases:
            if (
                isinstance(base, ast.Name)
                and base.id in class_nodes
                and base.id not in seen
            ):
                parent = build(base.id, seen | {name})
                surface.methods.update(parent.methods)
                surface.attrs.update(parent.attrs)
                surface.noargs.update(parent.noargs)
        own = own_surface(node)
        for mname, params in own.methods.items():
            surface.methods[mname] = params
            if mname in own.noargs:
                surface.noargs.add(mname)
            else:
                surface.noargs.discard(mname)
        surface.attrs.update(own.attrs)
        if own.init_params is not None:
            surface.init_params = own.init_params
        return surface

    return {
        cls: build(cls) for cls in TWIN_CLASSES if cls in class_nodes
    }


def compare_surfaces(
    c_surface: dict[str, ClassSurface],
    pure_surface: dict[str, ClassSurface],
) -> list[str]:
    """Human-readable drift descriptions (empty when the twins agree)."""
    drifts: list[str] = []
    for cls in TWIN_CLASSES:
        c = c_surface.get(cls)
        pure = pure_surface.get(cls)
        if c is None or pure is None:
            if c is not pure:
                side = "compiled" if c is None else "pure"
                drifts.append(f"{cls}: missing from the {side} engine")
            continue
        only_pure = sorted(set(pure.methods) - set(c.methods))
        only_c = sorted(set(c.methods) - set(pure.methods))
        if only_pure:
            drifts.append(
                f"{cls}: methods only in the pure engine: "
                f"{', '.join(only_pure)}"
            )
        if only_c:
            drifts.append(
                f"{cls}: methods only in the compiled engine: "
                f"{', '.join(only_c)}"
            )
        attr_pure = sorted(pure.attrs - c.attrs)
        attr_c = sorted(c.attrs - pure.attrs)
        if attr_pure:
            drifts.append(
                f"{cls}: attributes only in the pure engine: "
                f"{', '.join(attr_pure)}"
            )
        if attr_c:
            drifts.append(
                f"{cls}: attributes only in the compiled engine: "
                f"{', '.join(attr_c)}"
            )
        for name in sorted(set(c.methods) & set(pure.methods)):
            pure_params = pure.methods[name] or ()
            if name in c.noargs and pure_params:
                drifts.append(
                    f"{cls}.{name}: METH_NOARGS in C but takes "
                    f"({', '.join(pure_params)}) in Python"
                )
            c_kwlist = c.methods[name]
            if c_kwlist is not None and c_kwlist != pure_params:
                drifts.append(
                    f"{cls}.{name}: C kwlist {list(c_kwlist)} != pure "
                    f"signature {list(pure_params)}"
                )
        if c.init_params is not None and pure.init_params is not None:
            if c.init_params != tuple(pure.init_params):
                drifts.append(
                    f"{cls}.__init__: C kwlist {list(c.init_params)} != "
                    f"pure signature {list(pure.init_params)}"
                )
    return drifts


@register_rule
class TwinParityRule(LintRule):
    id = "twin-parity"
    title = "_corec.c's exposed surface matches its pure twins"
    rationale = (
        "the compiled core is swapped in transparently unless "
        "REPRO_NO_COMPILED is set; surface drift means code that works "
        "on one engine build and AttributeErrors on the other"
    )
    scope = ()  # purely cross-file
    project_wide = True

    def check_project(self, project: Project) -> Iterable[Finding]:
        engine = project.source_for("repro.sim.engine")
        if engine is None:
            return ()
        c_path = engine.path.parent / "_corec.c"
        if not c_path.is_file():
            return ()
        c_text = c_path.read_text(encoding="utf-8")
        drifts = compare_surfaces(
            parse_c_surface(c_text), parse_pure_surface(engine.text)
        )
        pure_defs: dict[str, set[str] | None] = {}
        for module in set(TWIN_FUNCTIONS.values()):
            src = project.source_for(module)
            pure_defs[module] = None if src is None else {
                node.name for node in src.tree.body
                if isinstance(node, ast.FunctionDef)
            }
        drifts += compare_module_functions(
            parse_c_module_functions(c_text), pure_defs
        )
        return [
            engine.finding(
                self.id, 1, f"{drift} (see {c_path.name})"
            )
            for drift in drifts
        ]
