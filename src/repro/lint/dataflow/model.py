"""Project model for the dataflow analyses: functions, classes, imports.

The model is the cross-module half of the single-parse pipeline: the engine
parses every file once, and :class:`ProjectModel` indexes the resulting
trees so the analyses can resolve calls, walk method-resolution orders, and
find every ``self.attr = ...`` site without re-parsing.

Resolution is deliberately best-effort, in the style of a linter rather
than a type checker:

* a ``Name`` callee resolves to a class constructor or to a module-level
  function of the same module, falling back to the unique project-wide
  function of that bare name;
* an ``obj.method(...)`` callee resolves through the receiver's inferred
  class (annotation or constructor call) and its MRO, falling back to the
  unique project-wide method of that bare name;
* anything ambiguous resolves to *unknown*, which the analyses treat as
  top — unresolved code can never create a finding.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ParsedModule",
    "ProjectModel",
    "ModuleCtx",
    "name_tokens",
    "dotted_name",
]

_TOKEN_RE = re.compile(r"[A-Z]?[a-z]+|[A-Z]+(?![a-z])|\d+")


def name_tokens(name: str) -> Tuple[str, ...]:
    """Split a snake_case / CamelCase identifier into lowercase tokens."""
    return tuple(tok.lower() for tok in _TOKEN_RE.findall(name))


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of an attribute chain ('' if not one)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _annotation_names(node: Optional[ast.AST]) -> Tuple[str, ...]:
    """Candidate class names mentioned by an annotation expression."""
    if node is None:
        return ()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value.strip().split("[")[0].rsplit(".", 1)[-1],)
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_names(node.left) + _annotation_names(node.right)
    if isinstance(node, ast.Subscript):
        # Optional[X] / tuple[X, ...] — look inside for a usable name.
        outer = _annotation_names(node.value)
        if outer and outer[0] in ("Optional", "Annotated"):
            return _annotation_names(node.slice)
        return outer
    return ()


@dataclass
class FunctionInfo:
    """One ``def``: identity, parameters, and the AST body."""

    path: str
    name: str
    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None
    params: Tuple[str, ...] = ()
    vararg: Optional[str] = None
    kwarg: Optional[str] = None
    annotations: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    return_annotation: Tuple[str, ...] = ()
    decorators: Tuple[str, ...] = ()

    @property
    def is_method(self) -> bool:
        return self.class_name is not None and "staticmethod" not in self.decorators

    @property
    def is_property(self) -> bool:
        return any(dec in ("property", "cached_property") for dec in self.decorators)


@dataclass
class ClassInfo:
    """One ``class``: methods, fields, and every ``self.attr`` store site."""

    path: str
    name: str
    node: ast.ClassDef
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Class-level simple assignments (``X = expr`` in the class body).
    class_assigns: Dict[str, ast.expr] = field(default_factory=dict)
    #: AnnAssign field annotations (dataclass fields), in declaration order.
    field_ann: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: ``self.attr = expr`` sites: (attr, value expression, enclosing method).
    attr_sites: List[Tuple[str, ast.expr, FunctionInfo]] = field(default_factory=list)
    is_dataclass: bool = False


@dataclass(frozen=True)
class ModuleCtx:
    """Lightweight evaluation context for module-level expressions."""

    path: str
    class_name: Optional[str] = None


@dataclass
class ParsedModule:
    """One parsed file plus its import-alias map (local name -> dotted)."""

    path: str
    tree: ast.Module
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Module-level simple assignments (``NAME = expr``).
    assigns: Dict[str, ast.expr] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted path, keeping relative imports by last segment."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            prefix = node.module or ""
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return aliases


def _function_info(
    node: ast.AST, path: str, class_name: Optional[str] = None
) -> FunctionInfo:
    decorators = tuple(
        dotted_name(dec).rsplit(".", 1)[-1]
        for dec in node.decorator_list
        if dotted_name(dec)
    )
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    annotations = {
        a.arg: _annotation_names(a.annotation)
        for a in args.posonlyargs + args.args + args.kwonlyargs
        if a.annotation is not None
    }
    is_method = class_name is not None and "staticmethod" not in decorators
    if is_method and names:
        names = names[1:]
    qual = f"{class_name}.{node.name}" if class_name else node.name
    return FunctionInfo(
        path=path,
        name=node.name,
        qualname=f"{path}::{qual}",
        node=node,
        class_name=class_name,
        params=tuple(names),
        vararg=args.vararg.arg if args.vararg else None,
        kwarg=args.kwarg.arg if args.kwarg else None,
        annotations=annotations,
        return_annotation=_annotation_names(node.returns),
        decorators=decorators,
    )


def _collect_attr_sites(info: FunctionInfo, out: List[Tuple[str, ast.expr, FunctionInfo]]) -> None:
    for node in ast.walk(info.node):
        targets: List[ast.AST] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = list(node.targets), node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                out.append((target.attr, value, info))


def _class_info(node: ast.ClassDef, path: str) -> ClassInfo:
    info = ClassInfo(
        path=path,
        name=node.name,
        node=node,
        bases=tuple(dotted_name(base).rsplit(".", 1)[-1] for base in node.bases),
        is_dataclass=any(
            dotted_name(dec).rsplit(".", 1)[-1].startswith("dataclass")
            for dec in node.decorator_list
        ),
    )
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = _function_info(stmt, path, class_name=node.name)
            info.methods[stmt.name] = method
            _collect_attr_sites(method, info.attr_sites)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.field_ann[stmt.target.id] = _annotation_names(stmt.annotation)
            if stmt.value is not None:
                info.class_assigns[stmt.target.id] = stmt.value
        elif isinstance(stmt, ast.Assign) and stmt.value is not None:
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.class_assigns[target.id] = stmt.value
    return info


class ProjectModel:
    """Cross-module index over a set of parsed files."""

    def __init__(self, modules: Sequence[Tuple[str, ast.Module]]) -> None:
        self.modules: Dict[str, ParsedModule] = {}
        self.classes: Dict[str, List[ClassInfo]] = {}
        self.functions: List[FunctionInfo] = []
        self._by_bare_name: Dict[str, List[FunctionInfo]] = {}
        self._assign_origin: Dict[str, List[str]] = {}

        for path, tree in modules:
            parsed = ParsedModule(path=path, tree=tree, aliases=_import_aliases(tree))
            for stmt in tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = _function_info(stmt, path)
                    parsed.functions[stmt.name] = info
                elif isinstance(stmt, ast.ClassDef):
                    parsed.classes[stmt.name] = _class_info(stmt, path)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            parsed.assigns[target.id] = stmt.value
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    if stmt.value is not None:
                        parsed.assigns[stmt.target.id] = stmt.value
            self.modules[path] = parsed
            for name in parsed.assigns:
                self._assign_origin.setdefault(name, []).append(path)
            for info in parsed.functions.values():
                self.functions.append(info)
                self._by_bare_name.setdefault(info.name, []).append(info)
            for cls in parsed.classes.values():
                self.classes.setdefault(cls.name, []).append(cls)
                for method in cls.methods.values():
                    self.functions.append(method)
                    self._by_bare_name.setdefault(method.name, []).append(method)

    # -- lookups ---------------------------------------------------------

    def class_named(self, name: str) -> Optional[ClassInfo]:
        """The class of that bare name, if it is unique project-wide."""
        matches = self.classes.get(name, [])
        return matches[0] if len(matches) == 1 else None

    def unique_function(self, name: str) -> Optional[FunctionInfo]:
        """The function/method of that bare name, if unique project-wide."""
        matches = self._by_bare_name.get(name, [])
        return matches[0] if len(matches) == 1 else None

    def unique_assign(self, name: str) -> Optional[Tuple[str, ast.expr]]:
        """The module-level assignment of that name, if unique project-wide."""
        origins = self._assign_origin.get(name, [])
        if len(origins) != 1:
            return None
        return origins[0], self.modules[origins[0]].assigns[name]

    def mro(self, class_name: str) -> List[ClassInfo]:
        """Linearized project-visible base chain (self first, no repeats)."""
        out: List[ClassInfo] = []
        seen = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            cls = self.class_named(name)
            if cls is None:
                continue
            out.append(cls)
            queue.extend(cls.bases)
        return out

    def resolve_method(self, class_name: str, method: str) -> Optional[FunctionInfo]:
        for cls in self.mro(class_name):
            if method in cls.methods:
                return cls.methods[method]
        return None

    def dataclass_fields(self, class_name: str) -> Tuple[str, ...]:
        """Constructor parameter names of a dataclass, MRO-ordered."""
        fields: List[str] = []
        for cls in reversed(self.mro(class_name)):
            if not cls.is_dataclass:
                continue
            for name in cls.field_ann:
                if name not in fields:
                    fields.append(name)
        return tuple(fields)

    def constructor(self, class_name: str) -> Optional[FunctionInfo]:
        return self.resolve_method(class_name, "__init__")

    def attr_sites(self, class_name: str, attr: str) -> List[Tuple[ast.expr, FunctionInfo]]:
        """Every value expression assigned to ``self.<attr>`` over the MRO."""
        sites = []
        for cls in self.mro(class_name):
            for name, value, method in cls.attr_sites:
                if name == attr:
                    sites.append((value, method))
            if attr in cls.class_assigns:
                sites.append((cls.class_assigns[attr], None))
        return sites

    def field_annotation(self, class_name: str, attr: str) -> Tuple[str, ...]:
        for cls in self.mro(class_name):
            if attr in cls.field_ann:
                return cls.field_ann[attr]
        return ()

    def resolve_alias(self, path: str, name: str) -> str:
        parsed = self.modules.get(path)
        if parsed is None:
            return name
        return parsed.aliases.get(name, name)
