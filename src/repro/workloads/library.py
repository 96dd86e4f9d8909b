"""Registry of every workload the reproduction knows about."""

from __future__ import annotations

from .browser import PAGE_NAMES, browser_program
from .microbench import INSTRUCTION_LOOPS, instruction_loop
from .parsec import PARSEC_APPS, parsec_program
from .phases import PhaseProgram
from .video import VIDEO_NAMES, video_program

__all__ = ["WORKLOAD_FAMILIES", "all_workload_names", "get_workload", "is_workload_name"]

WORKLOAD_FAMILIES = {
    "parsec": PARSEC_APPS,
    "video": tuple(f"video_{name}" for name in VIDEO_NAMES),
    "browser": tuple(f"page_{name}" for name in PAGE_NAMES),
    "microbench": tuple(f"loop_{name}" for name in INSTRUCTION_LOOPS),
}


def all_workload_names() -> tuple[str, ...]:
    names: list[str] = []
    for family_names in WORKLOAD_FAMILIES.values():
        names.extend(family_names)
    return tuple(names)


#: Every name :func:`get_workload` resolves.
_WORKLOAD_NAMES = frozenset(all_workload_names())


def is_workload_name(name: str) -> bool:
    """Whether :func:`get_workload` knows ``name`` (a lookup: builds nothing)."""
    return name in _WORKLOAD_NAMES


def get_workload(name: str, **kwargs: object) -> PhaseProgram:
    """Look up any workload by its registry name.

    Extra keyword arguments are forwarded to the family constructor (e.g.
    ``get_workload("loop_imul", duration_s=16.0)``), which lets callers —
    notably declarative :class:`~repro.exec.jobs.SessionJob` specs — name
    parameterized workloads without holding the built program.
    """
    if name in PARSEC_APPS:
        return parsec_program(name, **kwargs)
    if name.startswith("video_"):
        return video_program(name[len("video_"):], **kwargs)
    if name.startswith("page_"):
        return browser_program(name[len("page_"):], **kwargs)
    if name.startswith("loop_"):
        return instruction_loop(name[len("loop_"):], **kwargs)
    raise KeyError(f"unknown workload {name!r}; known: {all_workload_names()}")
