"""The MAYA rule set: repo-specific AST hazards.

Each rule is a small, pluggable visitor with a stable id (``MAYA001``...),
a severity, and a one-line rationale tied to the reproduction's invariants.
Rules inspect one parsed module at a time through :meth:`Rule.check` and
yield ``(line, col, message)`` triples; the engine owns file discovery,
suppression (``# maya: ignore[RULE]``) and reporting.

Registering a new rule is one decorator::

    @register
    class MyRule(Rule):
        rule_id = "MAYA099"
        severity = "error"
        summary = "what invariant this protects"

        def check(self, tree, ctx):
            ...
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple, Type

__all__ = [
    "LintContext",
    "RawFinding",
    "Rule",
    "register",
    "default_rules",
    "all_rule_ids",
]

#: ``(line, col, message)`` as produced by a rule; the engine attaches the
#: rule id, severity, and path.
RawFinding = Tuple[int, int, str]


@dataclass(frozen=True)
class LintContext:
    """Per-module facts shared by every rule."""

    #: Forward-slash-normalized path of the module being linted.
    path: str
    #: Physical source lines (used by rules that need raw text).
    source_lines: tuple

    def path_endswith(self, suffixes: tuple) -> bool:
        return any(self.path.endswith(suffix) for suffix in suffixes)


class Rule:
    """Base class: subclass, set the class attributes, implement check()."""

    rule_id: str = "MAYA000"
    severity: str = "error"
    summary: str = ""

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.rule_id}>"


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default set."""
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def default_rules() -> tuple:
    """Fresh instances of every registered rule, ordered by id."""
    return tuple(_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY))


def all_rule_ids() -> tuple:
    return tuple(sorted(_REGISTRY))


# --------------------------------------------------------------------------
# Shared AST helpers
# --------------------------------------------------------------------------


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted module path they are bound to.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy import random``
    maps ``random -> numpy.random``; ``from time import time as now`` maps
    ``now -> time.time``.  Relative imports are skipped (they cannot reach
    numpy/time/datetime).
    """
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
            if node.level or node.module is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def _dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of an attribute chain ('' if not one)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _resolve(dotted: str, aliases: Dict[str, str]) -> str:
    """Substitute the root of ``dotted`` through the import alias map."""
    if not dotted:
        return ""
    root, _, rest = dotted.partition(".")
    base = aliases.get(root, root)
    return f"{base}.{rest}" if rest else base


def _resolved_calls(tree: ast.Module) -> Iterator[Tuple[ast.Call, str]]:
    """Every Call node paired with its alias-resolved dotted callee name."""
    aliases = _import_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            resolved = _resolve(_dotted_name(node.func), aliases)
            if resolved:
                yield node, resolved


# --------------------------------------------------------------------------
# MAYA001 — randomness must flow through repro.machine.rng.spawn
# --------------------------------------------------------------------------


@register
class DirectRandomnessRule(Rule):
    """Direct ``np.random.*`` / ``random.*`` use breaks hierarchical seeding.

    Every stochastic component must draw from a generator obtained through
    ``repro.machine.rng.spawn(seed, *keys)`` so that streams are independent
    and experiments stay byte-reproducible end to end.  A raw
    ``np.random.default_rng`` (or worse, the legacy global ``np.random.seed``)
    creates an unkeyed stream that collides with or silently reorders the
    draws of other components.
    """

    rule_id = "MAYA001"
    severity = "error"
    summary = "randomness outside repro.machine.rng.spawn"

    #: The one module allowed to touch numpy's RNG constructors.
    allowed_path_suffixes = ("repro/machine/rng.py",)

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        if ctx.path_endswith(self.allowed_path_suffixes):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield (
                            node.lineno,
                            node.col_offset,
                            "import of the stdlib 'random' module; draw from "
                            "repro.machine.rng.spawn instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    yield (
                        node.lineno,
                        node.col_offset,
                        "import from the stdlib 'random' module; draw from "
                        "repro.machine.rng.spawn instead",
                    )
        for call, resolved in _resolved_calls(tree):
            if resolved.startswith("numpy.random.") or resolved.startswith("random."):
                yield (
                    call.lineno,
                    call.col_offset,
                    f"direct call to {resolved}(); obtain generators via "
                    "repro.machine.rng.spawn(seed, *keys)",
                )


# --------------------------------------------------------------------------
# MAYA002 — no wall-clock reads outside the sanctioned timing sites
# --------------------------------------------------------------------------


@register
class WallClockRule(Rule):
    """Wall-clock reads make simulated experiments time-dependent.

    The simulation is a deterministic function of (platform, workload,
    seed); reading the host clock anywhere inside it destroys that.  The
    only sanctioned sites are the CLI stopwatch (``repro/__main__.py``) and
    the Section VII-E latency micro-benchmark, which measure *our* runtime
    rather than feed the simulation.
    """

    rule_id = "MAYA002"
    severity = "error"
    summary = "wall-clock call outside the sanctioned timing sites"

    sanctioned_path_suffixes = (
        "repro/__main__.py",
        "repro/experiments/sec7e_controller_cost.py",
        "repro/bench/__init__.py",
        "repro/bench/__main__.py",
        "repro/telemetry/profile.py",
    )

    banned_calls = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        if ctx.path_endswith(self.sanctioned_path_suffixes):
            return
        for call, resolved in _resolved_calls(tree):
            if resolved in self.banned_calls:
                yield (
                    call.lineno,
                    call.col_offset,
                    f"wall-clock call {resolved}(); simulated time must come "
                    "from the machine model, host time only from the "
                    "sanctioned timing sites",
                )


# --------------------------------------------------------------------------
# MAYA003 — no float literal == / !=
# --------------------------------------------------------------------------


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register
class FloatEqualityRule(Rule):
    """``x == 0.3`` style comparisons are representation-dependent.

    Exact equality against a float literal silently depends on rounding
    behaviour (and breaks under the fixed-point refactors this repo keeps
    making).  Compare with a tolerance (``abs(x - y) < eps`` /
    ``math.isclose``) or suppress with a justified ``# maya: ignore``.
    """

    rule_id = "MAYA003"
    severity = "error"
    summary = "float literal compared with == / !="

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_literal(operands[i]) or _is_float_literal(operands[i + 1]):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "float literal compared with ==/!=; use a tolerance "
                        "(abs(a - b) < eps or math.isclose)",
                    )
                    break


# --------------------------------------------------------------------------
# MAYA031 — execution-layer filesystem enumeration must be sorted
# --------------------------------------------------------------------------


@register
class UnsortedEnumerationRule(Rule):
    """Directory listing order is a filesystem accident; sort it.

    ``os.listdir``/``os.scandir``/``glob`` and the ``Path.glob``/
    ``rglob``/``iterdir`` methods return entries in whatever order the
    filesystem happens to hold them — it differs between ext4, tmpfs and
    CI containers.  Inside ``src/repro/exec/`` that order feeds cache
    eviction and the code-salt digest, and inside ``src/repro/telemetry/``
    it feeds run-manifest collation, so an unsorted enumeration makes
    behaviour host-dependent.  Wrap the call in ``sorted(...)`` (or
    suppress with ``# maya: ignore[MAYA031]`` where order provably cannot
    matter).
    """

    rule_id = "MAYA031"
    severity = "error"
    summary = "unsorted filesystem enumeration in the execution layer"

    scoped_path_fragments = ("repro/exec/", "repro/telemetry/")

    _module_functions = frozenset(
        {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
    )
    _method_suffixes = (".glob", ".rglob", ".iterdir")

    def _is_enumeration(self, resolved: str) -> bool:
        if resolved in self._module_functions:
            return True
        return resolved.endswith(self._method_suffixes)

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        if not any(fragment in ctx.path for fragment in self.scoped_path_fragments):
            return
        sorted_wrapped = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
                and node.args
            ):
                sorted_wrapped.add(id(node.args[0]))
        for call, resolved in _resolved_calls(tree):
            if self._is_enumeration(resolved) and id(call) not in sorted_wrapped:
                yield (
                    call.lineno,
                    call.col_offset,
                    f"{resolved}() enumerates the filesystem in arbitrary "
                    "order; wrap the call in sorted()",
                )


# --------------------------------------------------------------------------
# MAYA032 — telemetry must stay out-of-band in simulation code
# --------------------------------------------------------------------------


@register
class TelemetryIsolationRule(Rule):
    """Simulation code may only *call* telemetry, never read it back.

    ``repro.telemetry`` is strictly out-of-band: the simulation is a pure
    function of (platform, workload, seed), and a trace must be
    bit-identical whether recording is on or off.  Inside the simulation
    packages (``machine``, ``control``, ``defenses``, ``masks``,
    ``core``), a name imported from ``repro.telemetry`` may therefore
    appear only as the root of a fire-and-forget call *statement* — never
    assigned, returned, passed as an argument, compared, or otherwise
    allowed to flow into machine/controller state.  The engine layer
    (``repro/exec/``) owns recorder objects and is exempt.
    """

    rule_id = "MAYA032"
    severity = "error"
    summary = "telemetry symbol flows into simulation state"

    scoped_path_fragments = (
        "repro/machine/",
        "repro/control/",
        "repro/defenses/",
        "repro/masks/",
        "repro/core/",
    )

    @staticmethod
    def _telemetry_bindings(tree: ast.Module) -> Dict[str, ast.AST]:
        """Local names bound to ``repro.telemetry`` or symbols inside it."""
        bound: Dict[str, ast.AST] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.telemetry" or alias.name.endswith(
                        ".telemetry"
                    ):
                        local = alias.asname or alias.name.split(".", 1)[0]
                        bound[local] = node
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "telemetry" or module.endswith(".telemetry"):
                    for alias in node.names:
                        bound[alias.asname or alias.name] = node
                else:
                    for alias in node.names:
                        if alias.name == "telemetry":
                            bound[alias.asname or alias.name] = node
        return bound

    @staticmethod
    def _call_root(node: ast.AST) -> "ast.Name | None":
        """The Name at the base of a (possibly dotted) call target."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        while isinstance(func, ast.Attribute):
            func = func.value
        return func if isinstance(func, ast.Name) else None

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        if not any(fragment in ctx.path for fragment in self.scoped_path_fragments):
            return
        bound = self._telemetry_bindings(tree)
        if not bound:
            return
        # Sanctioned usages: the root Name of a call that is itself a bare
        # expression statement — the fire-and-forget emission pattern.
        sanctioned = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr):
                root = self._call_root(node.value)
                if root is not None:
                    sanctioned.add(id(root))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Name)
                and node.id in bound
                and id(node) not in sanctioned
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"telemetry symbol {node.id!r} used outside a "
                    "fire-and-forget call statement; simulation state must "
                    "never hold or read back telemetry (out-of-band "
                    "invariant)",
                )


# --------------------------------------------------------------------------
# MAYA033 — the span profiler may not appear in simulation code at all
# --------------------------------------------------------------------------


@register
class ProfilerIsolationRule(Rule):
    """Simulation code may not touch the span profiler — not even to call it.

    MAYA032 lets simulation packages *call* ``repro.telemetry`` functions
    fire-and-forget, because the recorder is keyed on deterministic sim
    time.  The profiler (``repro.telemetry.profile``) is different: it
    reads the wall clock, so any span opened inside the simulation would
    interleave host-timing state with the hot loop and invite exactly the
    feedback MAYA032 exists to prevent.  Spans belong to the engine layer
    (``repro/exec/``) and the bench harness only; inside the simulation
    packages every reference to the profiler module or its symbols — an
    import, an attribute access, a call — is an error.
    """

    rule_id = "MAYA033"
    severity = "error"
    summary = "profiler symbol in simulation code"

    scoped_path_fragments = TelemetryIsolationRule.scoped_path_fragments

    #: Names exported by ``repro.telemetry.profile`` whose import into a
    #: simulation module is banned outright.
    profiler_symbols = frozenset(
        {
            "profile",
            "SpanProfiler",
            "NullProfiler",
            "get_profiler",
            "set_profiler",
            "span",
        }
    )

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        if not any(fragment in ctx.path for fragment in self.scoped_path_fragments):
            return
        telemetry_names = set(TelemetryIsolationRule._telemetry_bindings(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.endswith(".telemetry.profile") or (
                        alias.name == "telemetry.profile"
                    ):
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"profiler module {alias.name!r} imported in "
                            "simulation code; spans belong to the engine "
                            "layer (MAYA033)",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                from_telemetry = module == "telemetry" or module.endswith(".telemetry")
                from_profile = module == "telemetry.profile" or module.endswith(
                    ".telemetry.profile"
                )
                if from_profile:
                    yield (
                        node.lineno,
                        node.col_offset,
                        "import from the profiler module in simulation "
                        "code; spans belong to the engine layer (MAYA033)",
                    )
                elif from_telemetry:
                    for alias in node.names:
                        if alias.name in self.profiler_symbols:
                            yield (
                                node.lineno,
                                node.col_offset,
                                f"profiler symbol {alias.name!r} imported in "
                                "simulation code; spans belong to the engine "
                                "layer (MAYA033)",
                            )
            elif isinstance(node, ast.Attribute) and node.attr == "profile":
                value = node.value
                while isinstance(value, ast.Attribute):
                    value = value.value
                if isinstance(value, ast.Name) and value.id in telemetry_names:
                    yield (
                        node.lineno,
                        node.col_offset,
                        "profiler accessed through a telemetry binding in "
                        "simulation code; spans belong to the engine layer "
                        "(MAYA033)",
                    )


# --------------------------------------------------------------------------
# MAYA050 — simulation code reads nothing of the host
# --------------------------------------------------------------------------


@register
class HostStateRule(Rule):
    """Simulation code may not import host-state modules or open files.

    A trace is a function of the :class:`~repro.exec.jobs.SessionJob` it
    is cached under: the job key digests the job's fields and the salted
    sources, nothing else.  An environment variable, a file, the working
    directory or the interpreter's platform read anywhere in the
    simulation would make two hosts cache different traces under one key.
    Inside the simulation packages and the lock-step kernel every import
    of a module that exposes host state, and every ``open()``/``input()``
    call, is therefore an error; host configuration belongs to the engine
    layer, which passes it in as job fields or arguments.
    """

    rule_id = "MAYA050"
    severity = "error"
    summary = "host-state import or file read in simulation code"

    scoped_path_fragments = (
        "/machine/",
        "/control/",
        "/masks/",
        "/workloads/",
        "/defenses/",
        "/core/",
        "/exec/batch.py",
    )

    host_modules = frozenset(
        {
            "os", "sys", "platform", "locale", "pathlib", "io", "glob",
            "shutil", "subprocess", "socket", "tempfile",
        }
    )

    banned_calls = frozenset({"open", "input"})

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        if not any(fragment in ctx.path for fragment in self.scoped_path_fragments):
            return
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self.banned_calls
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{node.func.id}() in simulation code; a trace may depend "
                    "only on its job's fields",
                )
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if module.split(".", 1)[0] in self.host_modules:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"import of host-state module {module!r} in simulation "
                        "code; a trace may depend only on its job's fields",
                    )
