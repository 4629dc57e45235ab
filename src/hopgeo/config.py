"""Flat key-value config files.

Format: one `key = value` pair per line; `#` starts a comment; blank
lines ignored. List values are whitespace-separated. Errors carry the
line number and field name so the CLI can report them precisely.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from .errors import FieldError


class ConfigError(ValueError):
    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


def read_kv_file(path) -> dict:
    """Parse a flat key-value file into {key: (raw_value, line_number)}."""
    out: dict[str, tuple[str, int]] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(path, lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(path, lineno, f"duplicate key {key!r}")
        out[key] = (value.strip(), lineno)
    return out


class KVView:
    """Typed accessors over a parsed key-value file, with line-precise errors."""

    def __init__(self, path, entries: dict):
        self.path = path
        self.entries = entries
        self.used: set[str] = set()

    def _raw(self, key, default):
        self.used.add(key)
        if key not in self.entries:
            if default is _REQUIRED:
                raise ConfigError(self.path, 0, f"missing required field {key!r}")
            return None
        return self.entries[key]

    def get_float(self, key, default=None):
        item = self._raw(key, default)
        if item is None:
            return default
        value, line = item
        try:
            return float(value)
        except ValueError:
            raise ConfigError(self.path, line, f"field {key!r}: not a number: {value!r}")

    def get_int(self, key, default=None):
        item = self._raw(key, default)
        if item is None:
            return default
        value, line = item
        try:
            return int(value)
        except ValueError:
            raise ConfigError(self.path, line, f"field {key!r}: not an integer: {value!r}")

    def get_float_list(self, key, default=None):
        item = self._raw(key, default)
        if item is None:
            return default
        value, line = item
        try:
            vals = [float(v) for v in value.split()]
        except ValueError:
            raise ConfigError(self.path, line, f"field {key!r}: not a list of numbers: {value!r}")
        if not vals:
            raise ConfigError(self.path, line, f"field {key!r}: empty list")
        return vals

    def get_str_list(self, key, default=None):
        item = self._raw(key, default)
        if item is None:
            return default
        return item[0].split()

    def require(self, key, kind="float"):
        getter = {"float": self.get_float, "int": self.get_int,
                  "float_list": self.get_float_list}[kind]
        return getter(key, _REQUIRED)

    def reject_unknown(self):
        unknown = set(self.entries) - self.used
        if unknown:
            key = sorted(unknown)[0]
            _, line = self.entries[key]
            raise ConfigError(self.path, line, f"unknown field {key!r}")

    def line_of(self, key) -> int:
        return self.entries[key][1] if key in self.entries else 0

    def error(self, key, message) -> ConfigError:
        return ConfigError(self.path, self.line_of(key), f"field {key!r}: {message}")

    @contextmanager
    def fields(self):
        """Report a FieldError raised in the block as an error at that field's line."""
        try:
            yield
        except FieldError as e:
            raise self.error(e.field, e.message) from None


class _Required:
    pass


_REQUIRED = _Required()
