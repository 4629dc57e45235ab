"""Flat key-value config files.

Format: one `key = value` pair per line; `#` starts a comment; blank
lines ignored. List values are whitespace-separated. Errors carry the
line number and field name so the CLI can report them precisely; an
error about a key the file leaves out carries the file name alone.

A config dataclass is the schema of its file. Each field is one key,
named by the field or by its `metadata["key"]`, and parsed by its type
hint; a dataclass-typed field reads its own fields from the same file.
read_config fills a dataclass from a file, and `resolved` writes it back
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


_PARSERS = {  # a type hint's parser, and what a value that fails it is not
    float: (float, "a number"),
    int: (int, "an integer"),
    list[float]: (lambda text: [float(v) for v in text.split()], "a list of numbers"),
    tuple[str, ...]: (lambda text: tuple(text.split()), "a list of names"),
}


def read_config(path, cls):
    """A `cls` filled from the key-value file at `path`.

    A key the file leaves out keeps its field's default; a field with no
    default is required. Errors come in this order: a value that does not
    parse or a missing required field, then an unknown key, then a range
    error (a FieldError while building) at its key's line. An error about a
    key the file leaves out names the file alone.
    """
    entries = read_kv_file(path)
    used: set[str] = set()

    def builder(schema):
        # reads schema's keys now and returns the function that builds it, nested dataclasses first
        hints = get_type_hints(schema)
        parts = {}
        for f in fields(schema):
            hint, key = hints[f.name], _key(f)
            if is_dataclass(hint):
                parts[f.name] = builder(hint)
                continue
            used.add(key)
            if key in entries:
                value, line = entries[key]
                parse, what = _PARSERS[hint]
                try:
                    parsed = parse(value)
                except ValueError:
                    raise ConfigError(path, line, f"field {key!r}: not {what}: {value!r}") from None
                if parsed in ([], ()):
                    raise ConfigError(path, line, f"field {key!r}: empty list")
                parts[f.name] = parsed
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(path, None, f"missing required field {key!r}")
        return lambda: schema(**{name: v() if callable(v) else v for name, v in parts.items()})

    build = builder(cls)
    unknown = sorted(set(entries) - used)
    if unknown:
        raise ConfigError(path, entries[unknown[0]][1], f"unknown field {unknown[0]!r}")
    try:
        return build()
    except FieldError as e:
        line = entries[e.field][1] if e.field in entries else None
        raise ConfigError(path, line, f"field {e.field!r}: {e.message}") from None
