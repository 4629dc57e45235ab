"""Flat key-value config files.

Format: one `key = value` pair per line; `#` starts a comment; blank
lines ignored. List values are whitespace-separated. Errors carry the
line number and field name so the CLI can report them precisely.

A config dataclass is the schema of its file. Each field is one key,
named by the field or by its `metadata["key"]`, and parsed by its type
hint; a dataclass-typed field reads its own fields from the same file.
KVView.read fills a dataclass from a file, and `resolved` writes it back
as the {key: value} a manifest records.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from typing import get_type_hints

from .errors import ConfigError, FieldError
from .kernel_core import read_text


def read_kv_file(path) -> dict:
    """Parse a flat key-value file into {key: (raw_value, line_number)}."""
    out: dict[str, tuple[str, int]] = {}
    text = read_text(path)
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


def _key(f) -> str:
    return f.metadata.get("key", f.name)


def resolved(cfg) -> dict:
    """cfg's {key: value} in field order, a dataclass-typed field's keys in its place."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out.update(resolved(value) if is_dataclass(value) else {_key(f): value})
    return out


class KVView:
    """A parsed key-value file, read into config dataclasses with line-precise errors."""

    def __init__(self, path):
        self.path = path
        self.entries = read_kv_file(path)
        self.used: set[str] = set()

    def get(self, key, hint):
        """The value of `key` parsed as `hint`, or None if the file leaves it out.

        `hint` is float, int, list[float] (nonempty) or tuple[str, ...].
        """
        self.used.add(key)
        if key not in self.entries:
            return None
        value, line = self.entries[key]
        parse, what = {  # the parser, and what a value that fails it is not
            float: (float, "a number"),
            int: (int, "an integer"),
            list[float]: (lambda text: [float(v) for v in text.split()], "a list of numbers"),
            tuple[str, ...]: (lambda text: tuple(text.split()), "a list of names"),
        }[hint]
        try:
            parsed = parse(value)
        except ValueError:
            raise ConfigError(self.path, line, f"field {key!r}: not {what}: {value!r}") from None
        if parsed in ([], ()):
            raise ConfigError(self.path, line, f"field {key!r}: empty list")
        return parsed

    def read(self, cls):
        """A `cls` filled from the file.

        A key the file leaves out keeps its field's default; a field with no
        default is required. Errors come in this order: a value that does not
        parse or a missing required field, then an unknown key, then a range
        error (a FieldError while building) at its key's line.
        """
        build = self._builder(cls)
        unknown = sorted(set(self.entries) - self.used)
        if unknown:
            line = self.entries[unknown[0]][1]
            raise ConfigError(self.path, line, f"unknown field {unknown[0]!r}")
        try:
            return build()
        except FieldError as e:
            line = self.entries[e.field][1] if e.field in self.entries else 0
            raise ConfigError(self.path, line, f"field {e.field!r}: {e.message}") from None

    def _builder(self, cls):
        # reads cls's keys now and returns the function that builds it, nested dataclasses first
        hints = get_type_hints(cls)
        parts = {}
        for f in fields(cls):
            hint = hints[f.name]
            if is_dataclass(hint):
                parts[f.name] = self._builder(hint)
            elif (value := self.get(_key(f), hint)) is not None:
                parts[f.name] = value
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(self.path, 0, f"missing required field {_key(f)!r}")
        return lambda: cls(**{name: v() if callable(v) else v for name, v in parts.items()})
