from .ast import WorksheetError, WorksheetProgram, pretty_print
from .evaluate import EvaluationReport, WorksheetRuntimeError, evaluate
from .parse import WorksheetSyntaxError, parse

__all__ = [
    "WorksheetError",
    "WorksheetProgram",
    "EvaluationReport",
    "WorksheetRuntimeError",
    "WorksheetSyntaxError",
    "parse",
    "pretty_print",
    "evaluate",
]
