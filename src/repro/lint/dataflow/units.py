"""Physical-unit inference and checking (MAYA010, MAYA011, MAYA013).

Units are inferred from the repo-wide naming conventions (``_w``, ``_ghz``,
``_mhz``, ``volt``, ``idle_frac``, ``_ms``/``_s``, ``_c``, ...) and
propagated interprocedurally through assignments, attribute stores, and
call summaries.  A :class:`Unit` is a product of base dimensions with a
scale factor, so GHz and MHz share the dimension ``s^-1`` but differ in
scale — adding them is flagged just like adding watts to gigahertz.

False-positive policy: *dimensionless* values (literals, fractions,
normalized levels) are unit-polymorphic and never reported; *unknown*
values propagate silently.  A finding requires concrete, conflicting
units on both sides.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from .interp import AV, Evaluator, Finding, Reporter
from .model import FunctionInfo, ProjectModel, name_tokens

__all__ = [
    "Unit",
    "DIMENSIONLESS",
    "unit_of_name",
    "UnitsEvaluator",
    "analyze_units",
    "UNIT_RULES",
]

UNIT_RULES = {
    "MAYA010": "mixed-unit arithmetic",
    "MAYA011": "wrong-unit call argument",
    "MAYA013": "wrong-unit binding or comparison",
}


@dataclass(frozen=True)
class Unit:
    """A physical unit: sorted (dimension, exponent) pairs and a scale."""

    dims: Tuple[Tuple[str, int], ...] = ()
    scale: float = 1.0

    @property
    def is_dimensionless(self) -> bool:
        return not self.dims

    def mul(self, other: "Unit") -> "Unit":
        exps: Dict[str, int] = dict(self.dims)
        for sym, exp in other.dims:
            exps[sym] = exps.get(sym, 0) + exp
        dims = tuple(sorted((s, e) for s, e in exps.items() if e != 0))
        return Unit(dims=dims, scale=self.scale * other.scale)

    def inv(self) -> "Unit":
        return Unit(
            dims=tuple(sorted((s, -e) for s, e in self.dims)),
            scale=1.0 / self.scale,
        )

    def div(self, other: "Unit") -> "Unit":
        return self.mul(other.inv())

    def pow(self, k: int) -> "Unit":
        out = DIMENSIONLESS
        base = self if k >= 0 else self.inv()
        for _ in range(abs(k)):
            out = out.mul(base)
        return out

    def sqrt(self) -> Optional["Unit"]:
        if any(exp % 2 for _, exp in self.dims) or self.scale <= 0:
            return None
        return Unit(
            dims=tuple((s, e // 2) for s, e in self.dims),
            scale=math.sqrt(self.scale),
        )

    def same_dims(self, other: "Unit") -> bool:
        return self.dims == other.dims

    def compatible(self, other: "Unit") -> bool:
        return self.same_dims(other) and math.isclose(
            self.scale, other.scale, rel_tol=1e-9
        )

    def label(self) -> str:
        for unit, name in _NAMED_UNITS:
            if self.same_dims(unit) and math.isclose(self.scale, unit.scale, rel_tol=1e-9):
                return name
        if self.is_dimensionless:
            return "1"
        parts = []
        for sym, exp in self.dims:
            base = _DIM_LABELS.get(sym, sym)
            parts.append(base if exp == 1 else f"{base}^{exp}")
        rendered = "*".join(parts)
        if not math.isclose(self.scale, 1.0, rel_tol=1e-9):
            rendered = f"{self.scale:g}*{rendered}"
        return rendered


DIMENSIONLESS = Unit()
SECOND = Unit(dims=(("s", 1),))
MILLISECOND = Unit(dims=(("s", 1),), scale=1e-3)
HERTZ = Unit(dims=(("s", -1),))
MEGAHERTZ = Unit(dims=(("s", -1),), scale=1e6)
GIGAHERTZ = Unit(dims=(("s", -1),), scale=1e9)
JOULE = Unit(dims=(("j", 1),))
WATT = JOULE.div(SECOND)
VOLT = Unit(dims=(("v", 1),))
CELSIUS = Unit(dims=(("c", 1),))
BYTE = Unit(dims=(("byte", 1),))

_DIM_LABELS = {"s": "s", "j": "J", "v": "V", "c": "degC", "byte": "B"}

_NAMED_UNITS: Tuple[Tuple[Unit, str], ...] = (
    (WATT, "W"),
    (GIGAHERTZ, "GHz"),
    (MEGAHERTZ, "MHz"),
    (HERTZ, "Hz"),
    (SECOND, "s"),
    (MILLISECOND, "ms"),
    (JOULE, "J"),
    (VOLT, "V"),
    (CELSIUS, "degC"),
    (CELSIUS.div(WATT), "degC/W"),
    (DIMENSIONLESS, "1"),
)

#: Last-token -> unit.  Single-character tokens only fire when the name has
#: at least two tokens (``tdp_w`` yes, a matrix called ``w`` no).
_TOKEN_UNITS: Dict[str, Unit] = {
    "w": WATT,
    "watt": WATT,
    "watts": WATT,
    "power": WATT,
    "powers": WATT,
    "ghz": GIGAHERTZ,
    "mhz": MEGAHERTZ,
    "hz": HERTZ,
    "s": SECOND,
    "sec": SECOND,
    "secs": SECOND,
    "second": SECOND,
    "seconds": SECOND,
    "ms": MILLISECOND,
    "j": JOULE,
    "joule": JOULE,
    "joules": JOULE,
    "v": VOLT,
    "volt": VOLT,
    "volts": VOLT,
    "voltage": VOLT,
    "voltages": VOLT,
    "c": CELSIUS,
    "celsius": CELSIUS,
}

#: Tokens declaring a value explicitly unit-free (kept polymorphic).
_DIMENSIONLESS_TOKENS = frozenset(
    {
        "frac", "fraction", "fractions", "level", "levels", "norm",
        "normalized", "share", "efficiency", "rho", "activity",
        "activities", "ratio", "index", "idx", "count", "seed", "gain",
    }
)

#: Trailing qualifiers stripped before the unit lookup (``volt_min`` -> V).
_QUALIFIERS = frozenset(
    {
        "min", "max", "lo", "hi", "low", "high", "avg", "mean", "std",
        "tot", "total", "init", "prev", "next", "last", "first", "cur",
        "current", "ref", "cap", "limit", "floor", "ceil", "base", "step",
        "range", "span", "budget",
    }
)


def _unit_of_tokens(
    tokens: Tuple[str, ...], allow_bare_single: bool = False
) -> Optional[Unit]:
    toks = list(tokens)
    while len(toks) > 1 and toks[-1] in _QUALIFIERS:
        toks.pop()
    if not toks:
        return None
    last = toks[-1]
    if last in _DIMENSIONLESS_TOKENS:
        return DIMENSIONLESS
    unit = _TOKEN_UNITS.get(last)
    if unit is None:
        return None
    # A lone single-letter token ('w', 'c', ...) is too ambiguous to be a
    # unit by itself — except inside a ``_per_`` compound, where the
    # surrounding tokens disambiguate it.
    if len(last) == 1 and len(toks) < 2 and not allow_bare_single:
        return None
    return unit


def unit_of_name(name: str) -> Optional[Unit]:
    """Unit implied by an identifier, or None when the name is silent."""
    tokens = name_tokens(name)
    if not tokens:
        return None
    if "per" in tokens:
        split = tokens.index("per")
        num = _unit_of_tokens(tokens[:split], allow_bare_single=True)
        den = _unit_of_tokens(tokens[split + 1:], allow_bare_single=True)
        if num is not None and den is not None and den.dims:
            return num.div(den)
        return None
    return _unit_of_tokens(tokens)


def _concrete(payload: object) -> Optional[Unit]:
    """The payload as a reportable unit (concrete, non-dimensionless)."""
    if isinstance(payload, Unit) and payload.dims:
        return payload
    return None


def _join_lenient(payloads: Iterable[object]) -> Optional[Unit]:
    """Join where dimensionless values defer to a unique concrete unit."""
    concrete: List[Unit] = []
    saw_dimensionless = False
    for payload in payloads:
        if not isinstance(payload, Unit):
            return None
        if payload.dims:
            concrete.append(payload)
        else:
            saw_dimensionless = True
    if not concrete:
        return DIMENSIONLESS if saw_dimensionless else None
    first = concrete[0]
    if all(first.compatible(other) for other in concrete[1:]):
        return first
    return None


_PASSTHROUGH_CALLS = frozenset(
    {
        "float", "abs", "sum", "int", "round", "sorted", "reversed", "next",
        "numpy.asarray", "numpy.array", "numpy.abs", "numpy.round",
        "numpy.floor", "numpy.ceil", "numpy.atleast_1d", "numpy.ravel",
        "numpy.sum", "numpy.mean", "numpy.median", "numpy.std", "numpy.cumsum",
        "numpy.copy", "numpy.sort", "numpy.repeat", "numpy.tile",
        "numpy.concatenate", "numpy.stack", "numpy.diff", "numpy.float64",
        "math.floor", "math.ceil", "math.fabs", "copy.deepcopy", "copy.copy",
    }
)

_LENIENT_JOIN_CALLS = frozenset(
    {
        "min", "max", "numpy.clip", "numpy.minimum", "numpy.maximum",
        "numpy.linspace", "numpy.full", "numpy.where", "numpy.interp",
        "math.fmod", "numpy.hypot", "math.hypot",
    }
)

_DIMENSIONLESS_CALLS = frozenset(
    {
        "len", "bool", "numpy.exp", "numpy.log", "numpy.log2", "numpy.log10",
        "numpy.sin", "numpy.cos", "numpy.tan", "numpy.tanh", "numpy.sign",
        "numpy.isclose", "numpy.allclose", "numpy.isfinite", "numpy.isnan",
        "numpy.zeros", "numpy.ones", "numpy.arange", "numpy.argmin",
        "numpy.argmax", "numpy.searchsorted", "numpy.count_nonzero",
        "math.exp", "math.log", "math.log2", "math.sin", "math.cos",
        "math.tanh", "math.isclose", "math.isfinite", "math.isnan", "range",
        "enumerate", "isinstance", "hasattr", "any", "all",
    }
)

_SQRT_CALLS = frozenset({"numpy.sqrt", "math.sqrt"})

#: Methods on unknown receivers that preserve the receiver's unit.
_PASSTHROUGH_METHODS = frozenset(
    {
        "sum", "mean", "std", "min", "max", "copy", "astype", "round",
        "reshape", "flatten", "ravel", "cumsum", "item", "squeeze", "clip",
        "tolist", "pop",
    }
)

#: Methods whose result adopts the unique concrete unit among the args
#: (random draws parameterized by location/scale).
_ARG_JOIN_METHODS = frozenset({"normal", "uniform", "choice", "triangular"})

_DIMENSIONLESS_ATTRS = frozenset({"size", "shape", "ndim", "dtype", "nbytes"})

_OP_SYMBOLS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
    ast.Pow: "**",
}


class UnitsEvaluator(Evaluator):
    """Abstract interpreter whose payloads are :class:`Unit` values."""

    def __init__(self, model: ProjectModel, reporter: Reporter) -> None:
        super().__init__(model, reporter)
        self._summaries: Dict[tuple, AV] = {}
        self._in_progress = set()

    # -- lattice -------------------------------------------------------

    def join_payload(self, a: object, b: object) -> object:
        if a is None or b is None:
            return None
        if isinstance(a, Unit) and isinstance(b, Unit) and a.compatible(b):
            return a
        return None

    def const_payload(self, value: object) -> object:
        if isinstance(value, bool) or isinstance(value, (int, float)):
            return DIMENSIONLESS
        return None

    def string_payload(self, avs: List[AV]) -> object:
        return None

    # -- arithmetic ----------------------------------------------------

    def binop_payload(self, node: ast.BinOp, left: AV, right: AV, ctx) -> object:
        lu = left.payload if isinstance(left.payload, Unit) else None
        ru = right.payload if isinstance(right.payload, Unit) else None
        op = type(node.op)
        if op in (ast.Add, ast.Sub):
            cl, cr = _concrete(lu), _concrete(ru)
            if cl is not None and cr is not None and not cl.compatible(cr):
                self.reporter.report(
                    ctx.path,
                    node,
                    "MAYA010",
                    f"mixed-unit arithmetic: {cl.label()} "
                    f"{_OP_SYMBOLS.get(op, '?')} {cr.label()}",
                )
                return None
            if cl is not None:
                return cl
            if cr is not None:
                return cr
            if lu is not None and ru is not None:
                return DIMENSIONLESS
            return None
        if op is ast.Mult:
            if lu is not None and ru is not None:
                return lu.mul(ru)
            return None
        if op in (ast.Div, ast.FloorDiv):
            if lu is not None and ru is not None:
                return lu.div(ru)
            return None
        if op is ast.Mod:
            cl, cr = _concrete(lu), _concrete(ru)
            if cl is not None and cr is not None and not cl.compatible(cr):
                self.reporter.report(
                    ctx.path,
                    node,
                    "MAYA010",
                    f"mixed-unit arithmetic: {cl.label()} % {cr.label()}",
                )
                return None
            return lu
        if op is ast.Pow:
            if lu is None:
                return None
            exponent = node.right
            if isinstance(exponent, ast.Constant):
                value = exponent.value
                if isinstance(value, int) and not isinstance(value, bool):
                    return lu.pow(value)
                if isinstance(value, float) and math.isclose(value, 0.5):
                    return lu.sqrt()
            if lu.is_dimensionless:
                return DIMENSIONLESS
            return None
        return None

    def unary_payload(self, node: ast.UnaryOp, operand: AV, ctx) -> object:
        if isinstance(node.op, ast.Not):
            return DIMENSIONLESS
        return operand.payload

    def compare_payload(self, node: ast.Compare, operands: List[AV], ctx) -> object:
        ordered = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, ordered):
                continue
            cl = _concrete(left.payload if isinstance(left.payload, Unit) else None)
            cr = _concrete(right.payload if isinstance(right.payload, Unit) else None)
            if cl is not None and cr is not None and not cl.compatible(cr):
                self.reporter.report(
                    ctx.path,
                    node,
                    "MAYA013",
                    f"comparison between {cl.label()} and {cr.label()}",
                )
        return DIMENSIONLESS

    # -- names, params, attributes ------------------------------------

    def param_av(self, func: FunctionInfo, name: str) -> AV:
        base = super().param_av(func, name)
        return replace(base, payload=unit_of_name(name))

    def global_av(self, name: str, node: ast.AST, ctx) -> AV:
        return AV(payload=unit_of_name(name))

    def bind_name(self, name, value, node, env, ctx) -> None:
        declared = unit_of_name(name)
        actual = _concrete(value.payload if isinstance(value.payload, Unit) else None)
        if declared is not None and declared.dims:
            if actual is not None and not declared.compatible(actual):
                self.reporter.report(
                    ctx.path,
                    node,
                    "MAYA013",
                    f"binding {actual.label()} value to '{name}' "
                    f"(name implies {declared.label()})",
                )
            if actual is None:
                # Trust the declaration for unknown/polymorphic values.
                value = replace(value, payload=declared)
        env[name] = value

    def bind_attr(self, obj, attr, value, node, ctx) -> None:
        declared = unit_of_name(attr)
        actual = _concrete(value.payload if isinstance(value.payload, Unit) else None)
        if declared is not None and declared.dims and actual is not None:
            if not declared.compatible(actual):
                self.reporter.report(
                    ctx.path,
                    node,
                    "MAYA013",
                    f"binding {actual.label()} value to attribute '{attr}' "
                    f"(name implies {declared.label()})",
                )

    def attr_av(self, obj: AV, attr: str, node: ast.AST, ctx) -> AV:
        if attr in _DIMENSIONLESS_ATTRS:
            return AV(payload=DIMENSIONLESS)
        if attr in ("real", "T"):
            return AV(payload=obj.payload)
        cls = None
        if obj.cls is not None:
            cls = self._annotation_cls(self.model.field_annotation(obj.cls, attr))
        unit = unit_of_name(attr)
        if unit is not None and unit.dims:
            return AV(payload=unit, cls=cls)
        if obj.cls is not None:
            table = self.eval_attr_sites(obj.cls, attr)
            if table is not None:
                if cls is not None and table.cls is None:
                    table = replace(table, cls=cls)
                return table
        return AV(payload=unit, cls=cls)

    # -- calls ---------------------------------------------------------

    def _check_args(self, node, owner: str, params, args_map, ctx) -> None:
        for param, (arg_node, av) in sorted(args_map.items()):
            declared = unit_of_name(param)
            if declared is None or not declared.dims:
                continue
            actual = _concrete(av.payload if isinstance(av.payload, Unit) else None)
            if actual is not None and not declared.compatible(actual):
                self.reporter.report(
                    ctx.path,
                    arg_node,
                    "MAYA011",
                    f"argument '{param}' of {owner} expects "
                    f"{declared.label()}, got {actual.label()}",
                )

    def call_project(self, node, finfo, bound, args_map, arg_avs, complete, ctx) -> AV:
        self._check_args(node, finfo.name, finfo.params, args_map, ctx)
        env = self.seed_env(finfo, bound)
        for param, (_arg_node, av) in args_map.items():
            declared = env.get(param, AV())
            payload = av.payload
            if _concrete(payload if isinstance(payload, Unit) else None) is None:
                payload = declared.payload
            env[param] = replace(av, payload=payload, cls=av.cls or declared.cls)
        key = (
            finfo.qualname,
            bound.cls if bound is not None else None,
            tuple((p, env[p].payload, env[p].cls) for p in sorted(env) if p != "self"),
        )
        if key in self._summaries:
            return self._summaries[key]
        if key in self._in_progress:
            return AV(cls=self._annotation_cls(finfo.return_annotation))
        self._in_progress.add(key)
        self.reporter.mute()
        try:
            result = self.exec_function(finfo, env)
        finally:
            self.reporter.unmute()
            self._in_progress.discard(key)
        if result.cls is None:
            result = replace(
                result, cls=self._annotation_cls(finfo.return_annotation)
            )
        if _concrete(result.payload if isinstance(result.payload, Unit) else None) is None:
            declared_ret = unit_of_name(finfo.name)
            if declared_ret is not None and declared_ret.dims:
                result = replace(result, payload=declared_ret)
        self._summaries[key] = result
        return result

    def call_constructor(self, node, class_name, args_map, arg_avs, complete, ctx) -> AV:
        self._check_args(node, class_name, tuple(args_map), args_map, ctx)
        return AV(cls=class_name)

    def call_external(self, node, dotted, receiver, arg_avs, env, ctx) -> AV:
        bare = dotted.rsplit(".", 1)[-1]
        first = arg_avs[0].payload if arg_avs else None
        # Unit-preserving methods win over same-named free functions:
        # ``powers.sum(axis=0)`` keeps the receiver's unit (the axis
        # argument is dimensionless and must not leak into the result).
        if receiver is not None and bare in _PASSTHROUGH_METHODS:
            return AV(payload=receiver.payload)
        if dotted in _PASSTHROUGH_CALLS or bare in _PASSTHROUGH_CALLS:
            return AV(payload=first)
        if dotted in _LENIENT_JOIN_CALLS or bare in _LENIENT_JOIN_CALLS:
            return AV(payload=_join_lenient(av.payload for av in arg_avs))
        if dotted in _DIMENSIONLESS_CALLS or bare in _DIMENSIONLESS_CALLS:
            return AV(payload=DIMENSIONLESS)
        if dotted in _SQRT_CALLS:
            if isinstance(first, Unit):
                return AV(payload=first.sqrt())
            return AV()
        if receiver is not None:
            if bare in _PASSTHROUGH_METHODS:
                return AV(payload=receiver.payload)
            if bare in _ARG_JOIN_METHODS:
                return AV(payload=_join_lenient(av.payload for av in arg_avs))
            if bare in ("argmin", "argmax", "nonzero"):
                return AV(payload=DIMENSIONLESS)
        return AV()

    # -- driver --------------------------------------------------------

    def analyze(self) -> None:
        for finfo in self.model.functions:
            env = self.seed_env(finfo)
            self.exec_function(finfo, env)


def analyze_units(model: ProjectModel) -> List[Finding]:
    """Run the unit checker over a project model; sorted findings."""
    reporter = Reporter()
    UnitsEvaluator(model, reporter).analyze()
    return sorted(reporter.findings)
