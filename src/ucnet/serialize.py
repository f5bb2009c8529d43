"""Versioned file format for named float64 tensors.

Version 2, the one :func:`save_tensors` writes, is a short UTF-8 text
header followed by a binary payload, after NumPy's NEP 1 ("A Simple File
Format for NumPy Arrays")::

    tensors 2
    meta <key> <value>
    tensor <name> <ndim> <dim0> <dim1> ...
    data <n_bytes>
    <payload>

Each header line ends in ``\\n``, so ``head`` shows the header. The payload
holds every tensor's values as raw row-major little-endian float64 (``<f8``)
in header order, ``n_bytes`` in all, and nothing follows it. The file stores
the IEEE bits themselves, so save followed by load reproduces every array
bit for bit by construction, and the same tensors always give the same bytes.

:func:`load_tensors` reads version 2 only; any other version, including
the all-text version 1 that preceded it, raises ``unsupported version``.

Tensor names and meta keys are non-empty and contain no whitespace. A meta
value is the rest of its line and may hold anything but ``\\n``. The loader
checks the payload's length against the file's size before it reads any of
it, then reads the whole payload with one read into one new float64 vector,
:attr:`Tensors.payload`, so no part of it is held twice. The loaded arrays
are consecutive views of that vector, in header order: writable,
C-contiguous and always finite. A model loader may adopt the vector as its
parameter vector without a copy, as ``UCNetModel.load`` does. A
malformed file raises ``ValueError`` naming the file and, where there is
one, the line. Indexing a loaded mapping with a name it lacks also
raises ``ValueError`` naming the file, so model loaders report a missing
tensor or meta key without checks of their own. Model loaders read tensors
through :meth:`Tensors.shaped` and numeric meta values through
:meth:`Meta.integer` and :meth:`Meta.real`, which name the file and the
entry when a shape or a value is not what the model needs.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Mapping

import numpy as np

from .neural import segment_views

FORMAT_NAME = "tensors"
FORMAT_VERSION = 2
PAYLOAD_DTYPE = np.dtype("<f8")


class _Entries(dict):
    """Loaded tensors or meta; a missing key raises ``ValueError`` naming the file."""

    kind: str  # what a key names, for messages

    def __init__(self, path: Path):
        super().__init__()
        self.path = path

    def __missing__(self, key):
        raise ValueError(f"{self.path}: no {self.kind} {key!r}")


class Tensors(_Entries):
    """Loaded ``name -> array`` mapping of one file; every array is a view
    of ``payload``, the file's whole payload as one float64 vector."""

    kind = "tensor"

    def __init__(self, path: Path, payload: np.ndarray):
        super().__init__(path)
        self.payload = payload

    def shaped(self, name: str, *shape: int | None) -> np.ndarray:
        """The tensor ``name``, which must have ``shape``; ``None`` matches
        any length along its axis."""
        array = self[name]
        if array.ndim != len(shape) or any(
                want is not None and got != want
                for got, want in zip(array.shape, shape)):
            wanted = ", ".join("any" if d is None else str(d) for d in shape)
            raise ValueError(f"{self.path}: tensor {name!r} has shape "
                             f"{array.shape}, the model needs ({wanted})")
        return array


class Meta(_Entries):
    """Loaded ``key -> text`` meta of one file."""

    kind = "meta key"

    def integer(self, key: str) -> int:
        """Meta ``key`` as an integer."""
        return self._number(key, int, "an integer")

    def real(self, key: str) -> float:
        """Meta ``key`` as a finite float."""
        return self._number(key, float, "a finite number")

    def _number(self, key, parse, what):
        text = self[key]
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or (parse is float and not math.isfinite(value)):
            raise ValueError(f"{self.path}: meta {key!r} is not {what}: "
                             f"{text[:40]!r}")
        return value


def valid_name(name: str) -> bool:
    """True for a non-empty name with no whitespace, which a reader that
    splits lines into whitespace-separated fields reads back unchanged."""
    return bool(name) and not any(c.isspace() for c in name)


def save_tensors(path, tensors: Mapping[str, np.ndarray],
                 meta: Mapping[str, str] | None = None) -> None:
    header = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    for key, value in (meta or {}).items():
        if not valid_name(key):
            raise ValueError(
                f"meta key {key!r} must be non-empty and contain no whitespace")
        value = str(value)
        if "\n" in value:
            raise ValueError(f"meta value for {key!r} must be a single line")
        header.append(f"meta {key} {value}")
    arrays = []
    for name, array in tensors.items():
        if not valid_name(name):
            raise ValueError(
                f"tensor name {name!r} must be non-empty and contain no whitespace")
        array = np.asarray(array, dtype=PAYLOAD_DTYPE, order="C")
        if not np.isfinite(array).all():
            raise ValueError(f"tensor {name!r} contains non-finite values")
        header.append(" ".join(["tensor", name, str(array.ndim),
                                *map(str, array.shape)]))
        arrays.append(array)
    header.append(f"data {sum(array.nbytes for array in arrays)}")
    with Path(path).open("wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        for array in arrays:
            fh.write(array)


def load_tensors(path) -> tuple[Tensors, Meta]:
    path = Path(path)
    with path.open("rb") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty tensor file")
        fields = _decode(path, 1, first).split()
        if len(fields) != 2 or fields[0] != FORMAT_NAME:
            raise ValueError(f"{path}: not a tensor file")
        version = _parse_count(path, 1, fields[1], "format version")
        if version == FORMAT_VERSION:
            return _load_binary(path, fh)
    raise ValueError(f"{path}: unsupported version {fields[1]}")


def _decode(path: Path, lineno: int, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: line {lineno}: not UTF-8 text") from None


def _parse_count(path: Path, lineno: int, text: str, what: str) -> int:
    """A non-negative decimal integer field of a header line."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # longer than int() accepts
            pass
    raise ValueError(f"{path}: line {lineno}: {what} {text[:40]!r} is not "
                     "a non-negative integer")


def _parse_tensor_line(path: Path, lineno: int, fields: list[str],
                       tensors: dict) -> tuple[str, tuple[int, ...]]:
    """Name and shape from the fields after ``tensor``."""
    if len(fields) < 2:
        raise ValueError(f"{path}: line {lineno}: expected "
                         "'tensor <name> <ndim> <dims...>'")
    name = fields[0]
    if not valid_name(name):
        raise ValueError(f"{path}: line {lineno}: bad tensor name {name!r}")
    if name in tensors:
        raise ValueError(f"{path}: line {lineno}: duplicate tensor {name!r}")
    ndim = _parse_count(path, lineno, fields[1], "ndim")
    if len(fields) != 2 + ndim:
        raise ValueError(f"{path}: line {lineno}: tensor {name!r} declares "
                         f"{ndim} dims but lists {len(fields) - 2}")
    return name, tuple(_parse_count(path, lineno, d, "dim") for d in fields[2:])


def _load_binary(path: Path, fh) -> tuple[Tensors, Meta]:
    meta = Meta(path)
    shapes: dict[str, tuple[int, ...]] = {}
    lineno = 1
    while True:
        lineno += 1
        raw = fh.readline()
        if not raw.endswith(b"\n"):
            raise ValueError(f"{path}: line {lineno}: header ends without "
                             "a 'data <n_bytes>' line")
        kind, _, rest = _decode(path, lineno, raw[:-1]).partition(" ")
        if kind == "meta":
            key, sep, value = rest.partition(" ")
            if not sep or not valid_name(key):
                raise ValueError(f"{path}: line {lineno}: expected "
                                 "'meta <key> <value>'")
            if key in meta:
                raise ValueError(f"{path}: line {lineno}: duplicate meta "
                                 f"key {key!r}")
            meta[key] = value
        elif kind == "tensor":
            name, shape = _parse_tensor_line(path, lineno, rest.split(" "),
                                             shapes)
            shapes[name] = shape
        elif kind == "data":
            n_bytes = _parse_count(path, lineno, rest, "data size")
            break
        else:
            raise ValueError(f"{path}: line {lineno}: unknown header line "
                             f"kind {kind[:40]!r}")

    needed = PAYLOAD_DTYPE.itemsize * sum(map(math.prod, shapes.values()))
    if n_bytes != needed:
        raise ValueError(f"{path}: line {lineno}: data line declares "
                         f"{n_bytes} bytes, the tensors need {needed}")
    held = os.fstat(fh.fileno()).st_size - fh.tell()
    if held != n_bytes:
        raise ValueError(f"{path}: payload holds {held} bytes, "
                         f"the header declares {n_bytes}")
    payload = np.empty(n_bytes // PAYLOAD_DTYPE.itemsize, PAYLOAD_DTYPE)
    if fh.readinto(payload) != n_bytes:  # the file shrank meanwhile
        raise ValueError(f"{path}: payload ends before its {n_bytes} bytes")
    # No copy where <f8 is native: the vector owns the bytes it read.
    tensors = Tensors(path, payload.astype(np.float64, copy=False))
    tensors.update(segment_views(tensors.payload, shapes))
    if not np.isfinite(tensors.payload).all():
        bad = next(name for name, array in tensors.items()
                   if not np.isfinite(array).all())
        raise ValueError(f"{path}: tensor {bad!r} contains non-finite values")
    return tensors, meta
