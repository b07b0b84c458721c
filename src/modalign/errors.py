"""Exception hierarchy shared by every engine module.

Two branches matter to callers: :class:`ValidationError` for caller misuse
(bad parameters, malformed queries) and :class:`DataError` for defective
input (broken files, data that violates a contract).  The command line
front end maps the branches to exit codes 2 and 3.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EngineError):
    """The caller supplied invalid parameters or an unusable configuration."""


class DataError(EngineError):
    """Input data violates a contract the engine relies on."""


# --- timeline --------------------------------------------------------------

class EmptyStream(DataError):
    """A stream was built from zero elements."""


class OverlappingWords(DataError):
    """Word intervals in a text stream overlap; transcripts must tile time."""


class NegativeInterval(DataError):
    """Interval with end < start, or a negative start time."""


class DuplicateIds(DataError, ValueError):
    """Two elements of one stream share an id."""


class SessionMismatch(ValidationError):
    """An operation combined data from different sessions."""


class ModalityAbsent(ValidationError):
    """A query referenced a modality the corpus does not contain."""


# --- pitch -----------------------------------------------------------------

class AudioTooShort(DataError):
    """Fewer samples than one analysis frame."""


class InvalidRange(ValidationError):
    """Pitch search range is empty, non-positive, or incompatible with framing."""


class DegenerateSpeaker(DataError):
    """A speaker has too few pitch observations, or zero variance, to standardize."""


# --- gaze ------------------------------------------------------------------

class UnsortedSamples(DataError):
    """Gaze samples must be strictly increasing in time."""


# --- latent ----------------------------------------------------------------

class DimensionMismatch(ValidationError):
    """Feature sequences disagree on vector dimension."""


class RankDeficient(DataError):
    """A covariance block is singular and no ridge was requested."""


class IncompleteQuery(ValidationError):
    """A strategy query is missing required fields, or carries inapplicable ones."""


# --- stats -----------------------------------------------------------------

class RankDeficientDesign(DataError):
    """Design matrix loses full column rank after the within-group transform."""


class EmptyPanel(DataError):
    """No rows to regress on."""


class UnknownRegressor(ValidationError):
    """A margin cell references a regressor the model does not contain."""


class EmptyVocabulary(DataError):
    """No word occurs in either group."""


class NonPositivePrior(ValidationError):
    """The prior scale must be strictly positive."""


class MissingPartyMetadata(DataError):
    """A speaker in the corpus has no party affiliation on record."""


# --- ingest ----------------------------------------------------------------

class ParseError(DataError):
    """A file could not be parsed; carries the path and 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class AngleOutOfRange(ParseError):
    """A gaze angle falls outside the physically meaningful range."""


class MissingFile(DataError):
    """A referenced file does not exist; the message names the path."""


class VersionMismatch(DataError):
    """An on-disk index was written with an unsupported format version."""


class InvalidSpec(ValidationError):
    """A synthetic-corpus specification contains out-of-range settings."""
