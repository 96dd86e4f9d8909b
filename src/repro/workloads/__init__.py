"""Workload substrate: phase programs for every victim the paper attacks."""

from .browser import PAGE_NAMES, browser_labels, browser_program
from .library import WORKLOAD_FAMILIES, all_workload_names, get_workload, is_workload_name
from .microbench import INSTRUCTION_LOOPS, instruction_labels, instruction_loop
from .parsec import PARSEC_APPS, parsec_labels, parsec_program
from .phases import Phase, PhaseProgram
from .video import VIDEO_NAMES, video_labels, video_program

__all__ = [
    "PAGE_NAMES",
    "browser_labels",
    "browser_program",
    "WORKLOAD_FAMILIES",
    "all_workload_names",
    "get_workload",
    "is_workload_name",
    "INSTRUCTION_LOOPS",
    "instruction_labels",
    "instruction_loop",
    "PARSEC_APPS",
    "parsec_labels",
    "parsec_program",
    "Phase",
    "PhaseProgram",
    "VIDEO_NAMES",
    "video_labels",
    "video_program",
]
