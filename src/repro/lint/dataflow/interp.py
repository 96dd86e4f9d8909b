"""Abstract interpreter behind the unit checker.

:class:`Evaluator` walks function bodies over abstract values
(:class:`AV`), resolving names, attributes, and calls through the
:class:`~repro.lint.dataflow.model.ProjectModel`.  Control flow is handled
by evaluating every branch and joining the resulting environments, and
loop bodies are evaluated twice (enough for the flat unit lattice, and
bounded regardless by the join).

The interpreter is lattice-agnostic: the *meaning* of a value lives in
the ``payload`` slot, and a subclass defines the lattice through a small
set of hooks (``join_payload``, ``const_payload``, ``binop_payload``,
``call_external``, ...).  Interprocedural behaviour is delegated to the
``call_project`` hook; the unit checker uses it to memoize
context-sensitive summaries keyed by argument units.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from .model import FunctionInfo, ModuleCtx, ProjectModel

__all__ = ["AV", "Finding", "Reporter", "Evaluator", "EXTERNAL_ROOTS", "BUILTIN_NAMES"]

#: Import roots treated as external libraries (never project code).
EXTERNAL_ROOTS = frozenset(
    {
        "numpy", "scipy", "math", "json", "time", "datetime", "os", "sys",
        "re", "abc", "dataclasses", "typing", "functools", "itertools",
        "collections", "argparse", "pathlib", "warnings", "copy",
    }
)

BUILTIN_NAMES = frozenset(
    {
        "float", "int", "bool", "str", "len", "abs", "round", "min", "max",
        "sum", "sorted", "range", "enumerate", "zip", "tuple", "list",
        "dict", "set", "frozenset", "isinstance", "issubclass", "getattr",
        "setattr", "hasattr", "print", "any", "all", "repr", "divmod",
        "pow", "reversed", "map", "filter", "iter", "next", "vars", "id",
        "type", "ValueError", "TypeError", "KeyError", "RuntimeError",
        "NotImplementedError", "Exception", "StopIteration", "OverflowError",
        "ZeroDivisionError", "ArithmeticError", "AttributeError",
    }
)


@dataclass(frozen=True)
class AV:
    """Abstract value: analysis payload plus best-effort object identity."""

    #: Analysis-specific lattice element (None is the analysis bottom).
    payload: object = None
    #: Project class this value is an instance of, when known.
    cls: Optional[str] = None
    #: Project function this value *is* (a callable reference).
    func: Optional[FunctionInfo] = None
    #: Receiver the callable reference is bound to.
    bound: Optional["AV"] = None
    #: Class name when this value is the class object itself.
    ctor: Optional[str] = None
    #: Dotted path when this value is an external module/function.
    ext: Optional[str] = None
    #: Element values of a tuple/list literal, when tracked.
    elems: Optional[Tuple["AV", ...]] = None


@dataclass(frozen=True, order=True)
class Finding:
    """One dataflow finding, in engine-compatible coordinates."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str


class Reporter:
    """Collects findings with de-duplication and a mute stack.

    Summary evaluations re-run function bodies in many contexts; only the
    default (declaration-context) pass is allowed to report, which the
    analyses arrange by muting the reporter around auxiliary evaluations.
    """

    def __init__(self) -> None:
        self._seen = set()
        self.findings: List[Finding] = []
        self._mute = 0

    def mute(self) -> None:
        self._mute += 1

    def unmute(self) -> None:
        self._mute -= 1

    def report(self, path: str, node: ast.AST, rule_id: str, message: str) -> None:
        if self._mute > 0:
            return
        finding = Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=rule_id,
            message=message,
        )
        key = (finding.path, finding.line, finding.col, finding.rule_id, finding.message)
        if key not in self._seen:
            self._seen.add(key)
            self.findings.append(finding)


class Evaluator:
    """Abstract interpreter; a subclass implements the lattice hooks."""

    MAX_DEPTH = 40
    LOOP_PASSES = 2

    def __init__(self, model: ProjectModel, reporter: Reporter) -> None:
        self.model = model
        self.reporter = reporter
        self._depth = 0
        self._global_cache: Dict[Tuple[str, str], AV] = {}
        self._global_stack = set()
        self._attr_cache: Dict[Tuple[str, str], Optional[AV]] = {}
        self._attr_stack = set()

    # ------------------------------------------------------------------
    # Hooks.  The lattice subclass (UnitsEvaluator) supplies the rest:
    # join_payload, const_payload, string_payload, binop_payload,
    # unary_payload, compare_payload, attr_av, global_av, bind_name,
    # bind_attr, call_project, call_constructor, call_external.
    # ------------------------------------------------------------------

    def subscript_payload(self, obj: AV, node: ast.Subscript, ctx) -> object:
        return obj.payload

    def param_av(self, func: FunctionInfo, name: str) -> AV:
        return AV(cls=self._annotation_cls(func.annotations.get(name, ())))

    def joined_payload(self, avs: List[AV]) -> object:
        payload = None
        for av in avs:
            payload = self.join_payload(payload, av.payload)
        return payload

    # ------------------------------------------------------------------
    # Function evaluation
    # ------------------------------------------------------------------

    def _annotation_cls(self, candidates: Iterable[str]) -> Optional[str]:
        for name in candidates:
            if self.model.class_named(name) is not None:
                return name
        return None

    def seed_env(self, func: FunctionInfo, self_av: Optional[AV] = None) -> Dict[str, AV]:
        env: Dict[str, AV] = {}
        if func.is_method:
            env["self"] = self_av if self_av is not None else AV(cls=func.class_name)
        for name in func.params:
            env[name] = self.param_av(func, name)
        if func.vararg:
            env[func.vararg] = AV()
        if func.kwarg:
            env[func.kwarg] = AV()
        return env

    def exec_function(self, func: FunctionInfo, env: Dict[str, AV]) -> AV:
        """Evaluate a function body; returns the joined return value."""
        if self._depth >= self.MAX_DEPTH:
            return AV()
        self._depth += 1
        try:
            rets: List[AV] = []
            self._exec_body(func.node.body, env, func, rets)
            if not rets:
                return AV()
            out = rets[0]
            for av in rets[1:]:
                out = self.join_av(out, av)
            return out
        finally:
            self._depth -= 1

    def join_av(self, a: AV, b: AV) -> AV:
        elems = None
        if a.elems is not None and b.elems is not None and len(a.elems) == len(b.elems):
            elems = tuple(self.join_av(x, y) for x, y in zip(a.elems, b.elems))
        return AV(
            payload=self.join_payload(a.payload, b.payload),
            cls=a.cls if a.cls == b.cls else None,
            func=a.func if a.func is b.func else None,
            bound=a.bound if a.bound is b.bound else None,
            ctor=a.ctor if a.ctor == b.ctor else None,
            ext=a.ext if a.ext == b.ext else None,
            elems=elems,
        )

    def _join_env(self, a: Dict[str, AV], b: Dict[str, AV]) -> Dict[str, AV]:
        out: Dict[str, AV] = {}
        for name in set(a) | set(b):
            if name in a and name in b:
                out[name] = self.join_av(a[name], b[name])
            else:
                out[name] = a.get(name) or b.get(name)
        return out

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _exec_body(self, stmts, env, ctx, rets) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env, ctx, rets)

    def _exec_stmt(self, stmt, env, ctx, rets) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env, ctx)
            for target in stmt.targets:
                self._bind_target(target, value, stmt, env, ctx)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval(stmt.value, env, ctx)
            else:
                value = AV()
            cls = self._annotation_cls(
                _annotation_candidates(stmt.annotation)
            )
            if cls is not None and value.cls is None:
                value = replace(value, cls=cls)
            self._bind_target(stmt.target, value, stmt, env, ctx)
        elif isinstance(stmt, ast.AugAssign):
            current = self.eval(stmt.target, env, ctx)
            operand = self.eval(stmt.value, env, ctx)
            synthetic = ast.BinOp(left=stmt.target, op=stmt.op, right=stmt.value)
            ast.copy_location(synthetic, stmt)
            payload = self.binop_payload(synthetic, current, operand, ctx)
            self._bind_target(stmt.target, AV(payload=payload), stmt, env, ctx)
        elif isinstance(stmt, ast.Return):
            value = self.eval(stmt.value, env, ctx) if stmt.value is not None else AV()
            rets.append(value)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env, ctx)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test, env, ctx)
            body_env = dict(env)
            else_env = dict(env)
            self._exec_body(stmt.body, body_env, ctx, rets)
            self._exec_body(stmt.orelse, else_env, ctx, rets)
            env.clear()
            env.update(self._join_env(body_env, else_env))
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            if isinstance(stmt, ast.While):
                self.eval(stmt.test, env, ctx)
            else:
                iterable = self.eval(stmt.iter, env, ctx)
                self._bind_target(stmt.target, self._element_av(iterable), stmt, env, ctx)
            for _ in range(self.LOOP_PASSES):
                loop_env = dict(env)
                self._exec_body(stmt.body, loop_env, ctx, rets)
                merged = self._join_env(env, loop_env)
                env.clear()
                env.update(merged)
            self._exec_body(stmt.orelse, env, ctx, rets)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval(item.context_expr, env, ctx)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, value, stmt, env, ctx)
            self._exec_body(stmt.body, env, ctx, rets)
        elif isinstance(stmt, ast.Try):
            body_env = dict(env)
            self._exec_body(stmt.body, body_env, ctx, rets)
            merged = self._join_env(env, body_env)
            for handler in stmt.handlers:
                handler_env = dict(env)
                if handler.name:
                    handler_env[handler.name] = AV()
                self._exec_body(handler.body, handler_env, ctx, rets)
                merged = self._join_env(merged, handler_env)
            env.clear()
            env.update(merged)
            self._exec_body(stmt.orelse, env, ctx, rets)
            self._exec_body(stmt.finalbody, env, ctx, rets)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc, env, ctx)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env, ctx)
            if stmt.msg is not None:
                self.eval(stmt.msg, env, ctx)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            env[stmt.name] = AV()
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # Pass / Break / Continue / Import / Global / Nonlocal: no effect.

    def _bind_target(self, target, value: AV, stmt, env, ctx) -> None:
        if isinstance(target, ast.Name):
            self.bind_name(target.id, value, stmt, env, ctx)
        elif isinstance(target, ast.Attribute):
            obj = self.eval(target.value, env, ctx)
            self.bind_attr(obj, target.attr, value, stmt, ctx)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elems = value.elems
            if elems is not None and len(elems) == len(target.elts):
                for sub, av in zip(target.elts, elems):
                    self._bind_target(sub, av, stmt, env, ctx)
            else:
                spread = AV(payload=value.payload)
                for sub in target.elts:
                    self._bind_target(sub, spread, stmt, env, ctx)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, AV(payload=value.payload), stmt, env, ctx)
        elif isinstance(target, ast.Subscript):
            obj = self.eval(target.value, env, ctx)
            if isinstance(target.value, ast.Name) and target.value.id in env:
                merged = self.join_av(obj, AV(payload=value.payload))
                env[target.value.id] = merged

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def eval(self, node, env: Dict[str, AV], ctx) -> AV:
        if node is None:
            return AV()
        method = getattr(self, f"_eval_{type(node).__name__.lower()}", None)
        if method is not None:
            return method(node, env, ctx)
        # Unhandled expression kinds: evaluate children for effects.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child, env, ctx)
        return AV()

    def _eval_constant(self, node, env, ctx) -> AV:
        return AV(payload=self.const_payload(node.value))

    def _eval_name(self, node, env, ctx) -> AV:
        name = node.id
        if name in env:
            return env[name]
        mod = self.model.modules.get(ctx.path)
        if mod is not None:
            if name in mod.assigns:
                return self.module_global(ctx.path, name)
            if name in mod.classes:
                return AV(ctor=name)
            if name in mod.functions:
                return AV(func=mod.functions[name])
        resolved = self.model.resolve_alias(ctx.path, name)
        last = resolved.rsplit(".", 1)[-1]
        if self.model.class_named(last) is not None:
            return AV(ctor=last)
        unique = self.model.unique_function(last)
        if unique is not None:
            return AV(func=unique)
        origin = self.model.unique_assign(last)
        if origin is not None:
            return self.module_global(origin[0], last)
        root = resolved.split(".", 1)[0]
        if root in EXTERNAL_ROOTS:
            return AV(ext=resolved)
        if name in BUILTIN_NAMES:
            return AV(ext=f"builtins.{name}")
        return self.global_av(name, node, ctx)

    def module_global(self, path: str, name: str) -> AV:
        """Lazily evaluate a module-level assignment (muted, memoized)."""
        key = (path, name)
        if key in self._global_cache:
            return self._global_cache[key]
        if key in self._global_stack:
            return AV()
        mod = self.model.modules.get(path)
        if mod is None or name not in mod.assigns:
            return AV()
        self._global_stack.add(key)
        self.reporter.mute()
        try:
            value = self.eval(mod.assigns[name], {}, ModuleCtx(path=path))
        finally:
            self.reporter.unmute()
            self._global_stack.discard(key)
        self._global_cache[key] = value
        return value

    def _eval_attribute(self, node, env, ctx) -> AV:
        obj = self.eval(node.value, env, ctx)
        attr = node.attr
        if obj.ext is not None:
            return AV(ext=f"{obj.ext}.{attr}")
        if obj.ctor is not None:
            cls = self.model.class_named(obj.ctor)
            if cls is not None and attr in cls.class_assigns:
                return self.eval_class_assign(cls, attr)
            method = self.model.resolve_method(obj.ctor, attr) if cls else None
            if method is not None:
                return AV(func=method)
            return self.attr_av(obj, attr, node, ctx)
        if obj.cls is not None:
            method = self.model.resolve_method(obj.cls, attr)
            if method is not None and not method.is_property:
                return AV(func=method, bound=obj)
            if method is not None and method.is_property:
                return self.call_project(node, method, obj, {}, [], True, ctx)
        return self.attr_av(obj, attr, node, ctx)

    def eval_attr_sites(self, class_name: str, attr: str) -> Optional[AV]:
        """Join of every ``self.<attr> = ...`` site value (muted, memoized).

        The site expression is evaluated in an environment seeded with the
        enclosing method's parameters; locals it references resolve through
        the global/convention fallbacks, so an unresolvable site simply
        contributes *unknown*.
        """
        key = (class_name, attr)
        if key in self._attr_cache:
            return self._attr_cache[key]
        if key in self._attr_stack:
            return None
        sites = self.model.attr_sites(class_name, attr)
        if not sites:
            self._attr_cache[key] = None
            return None
        self._attr_stack.add(key)
        self.reporter.mute()
        try:
            result: Optional[AV] = None
            for value_expr, method in sites:
                if method is not None:
                    env = self.seed_env(method, AV(cls=class_name))
                    ctx = method
                else:
                    cls = self.model.class_named(class_name)
                    env = {}
                    ctx = ModuleCtx(path=cls.path if cls else "")
                av = self.eval(value_expr, env, ctx)
                result = av if result is None else self.join_av(result, av)
        finally:
            self.reporter.unmute()
            self._attr_stack.discard(key)
        self._attr_cache[key] = result
        return result

    def eval_class_assign(self, cls, attr: str) -> AV:
        self.reporter.mute()
        try:
            return self.eval(cls.class_assigns[attr], {}, ModuleCtx(path=cls.path))
        finally:
            self.reporter.unmute()

    def _eval_tuple(self, node, env, ctx) -> AV:
        elems = tuple(self.eval(el, env, ctx) for el in node.elts)
        return AV(payload=self.joined_payload(list(elems)), elems=elems)

    _eval_list = _eval_tuple

    def _eval_set(self, node, env, ctx) -> AV:
        avs = [self.eval(el, env, ctx) for el in node.elts]
        return AV(payload=self.joined_payload(avs))

    def _eval_dict(self, node, env, ctx) -> AV:
        avs = []
        for key, value in zip(node.keys, node.values):
            if key is not None:
                self.eval(key, env, ctx)
            avs.append(self.eval(value, env, ctx))
        return AV(payload=self.joined_payload(avs))

    def _eval_binop(self, node, env, ctx) -> AV:
        left = self.eval(node.left, env, ctx)
        right = self.eval(node.right, env, ctx)
        return AV(payload=self.binop_payload(node, left, right, ctx))

    def _eval_unaryop(self, node, env, ctx) -> AV:
        operand = self.eval(node.operand, env, ctx)
        return AV(payload=self.unary_payload(node, operand, ctx))

    def _eval_boolop(self, node, env, ctx) -> AV:
        avs = [self.eval(v, env, ctx) for v in node.values]
        out = avs[0]
        for av in avs[1:]:
            out = self.join_av(out, av)
        return out

    def _eval_compare(self, node, env, ctx) -> AV:
        operands = [self.eval(node.left, env, ctx)]
        operands.extend(self.eval(comp, env, ctx) for comp in node.comparators)
        return AV(payload=self.compare_payload(node, operands, ctx))

    def _eval_ifexp(self, node, env, ctx) -> AV:
        self.eval(node.test, env, ctx)
        body = self.eval(node.body, env, ctx)
        orelse = self.eval(node.orelse, env, ctx)
        return self.join_av(body, orelse)

    def _eval_subscript(self, node, env, ctx) -> AV:
        obj = self.eval(node.value, env, ctx)
        self.eval(node.slice, env, ctx)
        index = node.slice
        if (
            obj.elems is not None
            and isinstance(index, ast.Constant)
            and isinstance(index.value, int)
            and not isinstance(index.value, bool)
            and -len(obj.elems) <= index.value < len(obj.elems)
        ):
            return obj.elems[index.value]
        return AV(payload=self.subscript_payload(obj, node, ctx))

    def _eval_slice(self, node, env, ctx) -> AV:
        for part in (node.lower, node.upper, node.step):
            if part is not None:
                self.eval(part, env, ctx)
        return AV()

    def _eval_starred(self, node, env, ctx) -> AV:
        return self.eval(node.value, env, ctx)

    def _eval_joinedstr(self, node, env, ctx) -> AV:
        avs = [
            self.eval(value.value, env, ctx)
            for value in node.values
            if isinstance(value, ast.FormattedValue)
        ]
        return AV(payload=self.string_payload(avs))

    def _eval_lambda(self, node, env, ctx) -> AV:
        return AV()

    def _eval_await(self, node, env, ctx) -> AV:
        return self.eval(node.value, env, ctx)

    def _eval_namedexpr(self, node, env, ctx) -> AV:
        value = self.eval(node.value, env, ctx)
        self._bind_target(node.target, value, node, env, ctx)
        return value

    def _eval_listcomp(self, node, env, ctx) -> AV:
        return self._eval_comprehension(node, env, ctx, node.elt)

    _eval_setcomp = _eval_listcomp
    _eval_generatorexp = _eval_listcomp

    def _eval_dictcomp(self, node, env, ctx) -> AV:
        comp_env = dict(env)
        self._bind_generators(node.generators, comp_env, ctx)
        self.eval(node.key, comp_env, ctx)
        value = self.eval(node.value, comp_env, ctx)
        return AV(payload=value.payload)

    def _eval_comprehension(self, node, env, ctx, elt) -> AV:
        comp_env = dict(env)
        self._bind_generators(node.generators, comp_env, ctx)
        value = self.eval(elt, comp_env, ctx)
        return AV(payload=value.payload)

    def _bind_generators(self, generators, env, ctx) -> None:
        for gen in generators:
            iterable = self.eval(gen.iter, env, ctx)
            self._bind_target(gen.target, self._element_av(iterable), gen.iter, env, ctx)
            for cond in gen.ifs:
                self.eval(cond, env, ctx)

    def _element_av(self, iterable: AV) -> AV:
        """The value a loop over ``iterable`` binds: its elements joined."""
        if iterable.elems:
            element = iterable.elems[0]
            for extra in iterable.elems[1:]:
                element = self.join_av(element, extra)
            return element
        return AV(payload=iterable.payload)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _eval_call(self, node: ast.Call, env, ctx) -> AV:
        callee = node.func

        # super() — bind to the first project-visible base class.
        if isinstance(callee, ast.Name) and callee.id == "super" and not node.args:
            base = None
            class_name = getattr(ctx, "class_name", None)
            if class_name:
                cls = self.model.class_named(class_name)
                if cls is not None and cls.bases:
                    base = cls.bases[0]
            return AV(cls=base)

        target = self.eval(callee, env, ctx)
        callee_name = ""
        if isinstance(callee, ast.Name):
            callee_name = callee.id
        elif isinstance(callee, ast.Attribute):
            callee_name = callee.attr

        if target.func is not None:
            return self._project_call(node, target.func, target.bound, env, ctx)
        if target.ctor is not None:
            return self._constructor_call(node, target.ctor, env, ctx)
        receiver = None
        if isinstance(callee, ast.Attribute):
            receiver = self.eval(callee.value, env, ctx)
        dotted = target.ext or callee_name
        arg_avs = self._eval_args(node, env, ctx)
        return self.call_external(node, dotted, receiver, arg_avs, env, ctx)

    def _eval_args(self, node: ast.Call, env, ctx) -> List[AV]:
        avs: List[AV] = []
        for arg in node.args:
            expr = arg.value if isinstance(arg, ast.Starred) else arg
            avs.append(self.eval(expr, env, ctx))
        for kw in node.keywords:
            avs.append(self.eval(kw.value, env, ctx))
        return avs

    def match_args(self, params: Tuple[str, ...], node: ast.Call, env, ctx, has_kwarg=False):
        """Evaluate call arguments and map them onto parameter names.

        Returns ``(mapping, arg_avs, complete)`` where ``mapping`` maps a
        parameter name to ``(arg_node, AV)`` and ``complete`` is False when
        ``*args``/``**kwargs`` forwarding defeats positional matching.
        """
        mapping: Dict[str, Tuple[ast.AST, AV]] = {}
        arg_avs: List[AV] = []
        complete = True
        position = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                arg_avs.append(self.eval(arg.value, env, ctx))
                complete = False
                continue
            av = self.eval(arg, env, ctx)
            arg_avs.append(av)
            if position < len(params):
                mapping[params[position]] = (arg, av)
            position += 1
        for kw in node.keywords:
            av = self.eval(kw.value, env, ctx)
            arg_avs.append(av)
            if kw.arg is None:
                complete = False
            elif kw.arg in params:
                mapping[kw.arg] = (kw.value, av)
            elif not has_kwarg:
                complete = False
        return mapping, arg_avs, complete

    def _project_call(self, node, finfo: FunctionInfo, bound, env, ctx) -> AV:
        mapping, arg_avs, complete = self.match_args(
            finfo.params, node, env, ctx, has_kwarg=finfo.kwarg is not None
        )
        return self.call_project(node, finfo, bound, mapping, arg_avs, complete, ctx)

    def _constructor_call(self, node, class_name: str, env, ctx) -> AV:
        init = self.model.constructor(class_name)
        if init is not None:
            params = init.params
            has_kwarg = init.kwarg is not None
        else:
            params = self.model.dataclass_fields(class_name)
            has_kwarg = False
        mapping, arg_avs, complete = self.match_args(params, node, env, ctx, has_kwarg)
        return self.call_constructor(node, class_name, mapping, arg_avs, complete, ctx)


def _annotation_candidates(node) -> Tuple[str, ...]:
    from .model import _annotation_names

    return _annotation_names(node)
