"""Exception types shared across the engine.

Every domain error raised by the library derives from EngineError so
callers (CLI, HTTP layer) can map any of them to a clean error response.
"""


class EngineError(Exception):
    """Base class for all availkit domain errors."""

    code = "engine_error"


# --- core model / alignment ---

class EmptyInput(EngineError):
    code = "empty_input"


# --- ingestion ---

class MalformedRecord(EngineError):
    code = "malformed_record"


class NonFiniteValue(EngineError):
    code = "non_finite_value"


class MissingField(EngineError):
    code = "missing_field"


class FileUnreadable(EngineError):
    code = "file_unreadable"


class BindFailure(EngineError):
    code = "bind_failure"


# --- entropy engine ---

class SeriesTooShort(EngineError):
    code = "series_too_short"


class NonPositiveTolerance(EngineError):
    code = "non_positive_tolerance"


class NoUsableMetric(EngineError):
    code = "no_usable_metric"


# --- causal engine ---

class InsufficientRows(EngineError):
    code = "insufficient_rows"


class AllColumnsDegenerate(EngineError):
    code = "all_columns_degenerate"


class SingularSubmatrix(EngineError):
    code = "singular_submatrix"


class TooFewSamples(EngineError):
    code = "too_few_samples"


# --- root cause engine ---

class EmptyWindow(EngineError):
    code = "empty_window"


class EntryNotInTopology(EngineError):
    code = "entry_not_in_topology"


# --- availability stats ---

class NoCompletedInterval(EngineError):
    code = "no_completed_interval"


class NonAlternatingLog(EngineError):
    code = "non_alternating_log"


class TooFewPoints(EngineError):
    code = "too_few_points"


# --- maintenance engine ---

class MalformedXml(EngineError):
    code = "malformed_xml"


class UnknownAction(EngineError):
    code = "unknown_action"


class MissingElement(EngineError):
    code = "missing_element"


# --- method bus ---

class DuplicateName(EngineError):
    code = "duplicate_name"


class UnknownMethod(EngineError):
    code = "unknown_method"


class ParamOutOfBounds(EngineError):
    code = "param_out_of_bounds"


class InputKindMismatch(EngineError):
    code = "input_kind_mismatch"


class TooManySubscriptions(EngineError):
    code = "too_many_subscriptions"


# --- simulator ---

class InvalidSpec(EngineError):
    code = "invalid_spec"


class DegenerateSpec(EngineError):
    code = "degenerate_spec"
