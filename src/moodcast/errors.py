"""Exception types shared across the package, and how a JSON read failed."""


class InputFormatError(ValueError):
    """An input file does not satisfy its documented format.

    Raised by the loaders (lexicon CSV, message JSONL, attitude CSV, and
    intermediate artifacts). Kept distinct from plain ``ValueError`` so the
    CLI can map file problems and analysis-precondition problems to
    different exit codes.
    """


def json_problem(exc: Exception) -> str:
    """``invalid JSON (...)`` for what ``json.loads`` raised, without a position."""
    if isinstance(exc, RecursionError):
        return "invalid JSON (nested too deeply)"
    return f"invalid JSON ({getattr(exc, 'msg', exc)})"  # the digit limit's error has no msg
