"""The ENCOMPASS application layer.

Terminal Control Processes interpreting screen programs with the
BEGIN/END/ABORT/RESTART-TRANSACTION verb set, context-free application
server classes with Pathway-style dynamic control, and the declarative
:class:`SystemBuilder` that assembles complete configurations (Figure 2).
"""

from .config import EncompassSystem, SystemBuilder
from .enform import EnformError, Query, QueryResult, compile_query
from .scobol import ScobolError, ScobolProgram, compile_program
from .server import GrowRefused, PathwayMonitor, ServerClass, ServerContext
from .tcp import ScreenField, TerminalControlProcess, TerminalInput
from .verbs import (
    AbortTransaction,
    RestartTransaction,
    ScreenContext,
    TooManyRestarts,
)

__all__ = [
    "AbortTransaction",
    "EncompassSystem",
    "EnformError",
    "GrowRefused",
    "Query",
    "QueryResult",
    "compile_query",
    "PathwayMonitor",
    "RestartTransaction",
    "ScobolError",
    "ScobolProgram",
    "ScreenContext",
    "ScreenField",
    "compile_program",
    "ServerClass",
    "ServerContext",
    "SystemBuilder",
    "TerminalControlProcess",
    "TerminalInput",
    "TooManyRestarts",
]
