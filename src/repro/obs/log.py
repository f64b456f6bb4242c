"""Structured logging on top of the standard library.

``get_logger("session")`` returns a :class:`StructLogger` whose methods
take an *event name* plus keyword fields::

    log = get_logger("miro.runtime")
    log.info("tunnel_torn_down", tunnel_id=7, cause="route_change")

Fields are rendered as ``key=value`` pairs by :class:`StructuredFormatter`
(or as JSON lines with ``configure_logging(json_lines=True)``), so output
is both greppable and machine-parseable.  Every logger lives under the
``repro`` namespace; nothing is emitted until :func:`configure_logging`
installs a handler (library rule: the application owns the sinks), and a
disabled level costs one ``isEnabledFor`` check per call.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import IO, Optional

from .tracing import _jsonable

ROOT_LOGGER_NAME = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}


class StructLogger:
    """Thin event-plus-fields façade over one stdlib logger."""

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    @property
    def stdlib(self) -> logging.Logger:
        return self._logger

    def _log(self, level: int, event: str, fields: dict) -> None:
        if self._logger.isEnabledFor(level):
            self._logger.log(level, event, extra={"repro_fields": fields})

    def debug(self, event: str, **fields: object) -> None:
        self._log(logging.DEBUG, event, fields)

    def info(self, event: str, **fields: object) -> None:
        self._log(logging.INFO, event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._log(logging.WARNING, event, fields)

    def error(self, event: str, **fields: object) -> None:
        self._log(logging.ERROR, event, fields)


def get_logger(name: str) -> StructLogger:
    """A structured logger under the ``repro`` namespace."""
    qualified = (
        name if name == ROOT_LOGGER_NAME or name.startswith("repro.")
        else f"{ROOT_LOGGER_NAME}.{name}"
    )
    return StructLogger(logging.getLogger(qualified))


class StructuredFormatter(logging.Formatter):
    """``ts level logger event key=value ...`` — or JSON lines."""

    def __init__(self, json_lines: bool = False) -> None:
        super().__init__()
        self.json_lines = json_lines

    def format(self, record: logging.LogRecord) -> str:
        fields = getattr(record, "repro_fields", {})
        timestamp = self.formatTime(record, "%Y-%m-%dT%H:%M:%S")
        if self.json_lines:
            return json.dumps({
                "ts": timestamp,
                "level": record.levelname.lower(),
                "logger": record.name,
                "event": record.getMessage(),
                **{str(k): _jsonable(v) for k, v in fields.items()},
            })
        parts = [
            timestamp,
            f"level={record.levelname.lower()}",
            f"logger={record.name}",
            f"event={record.getMessage()}",
        ]
        parts.extend(f"{k}={_format_value(v)}" for k, v in fields.items())
        return " ".join(parts)


def _format_value(value: object) -> str:
    text = str(value)
    return f'"{text}"' if " " in text else text


def configure_logging(
    level: str = "warning",
    stream: Optional[IO[str]] = None,
    json_lines: bool = False,
) -> logging.Logger:
    """Install one structured handler on the ``repro`` root logger.

    Idempotent: reconfiguring replaces the previously installed handler
    instead of stacking a second one.  Returns the root logger.
    """
    if level not in _LEVELS:
        from ..errors import ObservabilityError

        raise ObservabilityError(
            f"unknown log level {level!r}; choose from {sorted(_LEVELS)}"
        )
    root = logging.getLogger(ROOT_LOGGER_NAME)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(StructuredFormatter(json_lines=json_lines))
    for old in [h for h in root.handlers if getattr(h, "_repro_obs", False)]:
        root.removeHandler(old)
    handler._repro_obs = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(_LEVELS[level])
    root.propagate = False
    return root
