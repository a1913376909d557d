from .evaluate import EvaluationReport, WorksheetRuntimeError, evaluate
from .parse import WorksheetError, WorksheetProgram, WorksheetSyntaxError, parse, pretty_print

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
