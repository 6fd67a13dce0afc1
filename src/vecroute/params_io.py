"""Deterministic parameter initialization and a portable on-disk format.

Initialization is a pure function of (dims, seed) that follows the
layout tables in :mod:`vecroute.optimized`: weight tensors draw from a
zero-mean normal with standard deviation 1/sqrt(fan_in), biases start at
zero, and the use/ignore coefficients start at the neutral point (use 1,
ignore 0) where routing behaves like plain associative recall. Draws
happen in canonical field order from one seeded generator, so the same
arguments always give bit-identical tensors.

The file format is a human-readable ASCII header followed by a raw
little-endian IEEE-754 float32 payload, row-major per tensor, in
canonical field order. The header pins format version, mode, dims, a
CRC-32 of the payload, and every tensor's name, shape, and byte offset,
so a loader can verify the file completely before touching any values.
``docs/param-format.md`` specifies the bytes exactly; files written
there by independent code must load identically.

Each payload byte is copied once either way: the writer streams every
tensor's own buffer to the file under a running CRC-32, and the loader
reads the header in small chunks, checks it and the file's size, and
then reads every tensor straight into a fresh array of its own.
"""

from __future__ import annotations

import os
import zlib
from typing import Mapping

import numpy as np

from .optimized import FanIn, RoutingParams, _layout, field_shapes
from .reference import RoutingDims
from .tensor import DenseTensor

__all__ = [
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "ParamFormatError",
    "init_params",
    "load_params",
    "save_params",
]

FORMAT_MAGIC = "vecroute-params"
FORMAT_VERSION = 1


# Bytes read per step while looking for the blank line that ends the header.
_HEADER_CHUNK = 4096


class ParamFormatError(ValueError):
    """A parameter file that cannot be trusted: malformed, truncated, or stale."""


def init_params(
    dims: RoutingDims,
    seed: int,
    overrides: Mapping[str, object] | None = None,
) -> RoutingParams:
    """Draw a fresh float32 parameter set, deterministic in (dims, seed).

    ``overrides`` replaces named tensors after the draw (values are
    shape-checked), without disturbing the random stream of the others.
    Variable-length mode starts the use/ignore generators at constant
    neutral output: zero weights with biases 1 and 0, matching the
    fixed-mode start for every input.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, object] = {}
    for name, shape, init in _layout(dims):
        if isinstance(init, FanIn):
            std = np.float32(1.0 / np.sqrt(init.extent))
            values = rng.standard_normal(shape, dtype=np.float32)
            values *= std
        else:
            values = np.full(shape, init, dtype=np.float32)
        tensors[name] = DenseTensor(values, copy=False, context=name)
    if overrides:
        unknown = sorted(set(overrides) - set(tensors))
        if unknown:
            raise ValueError(f"overrides name unknown parameters {unknown}")
        tensors.update(overrides)
    return RoutingParams(dims, **tensors)


def _dims_header(dims: RoutingDims) -> str:
    n_inp = "variable" if dims.variable_length else str(dims.n_inp)
    return (
        f"dims n_inp={n_inp} n_out={dims.n_out} "
        f"d_inp={dims.d_inp} d_out={dims.d_out} n_iters={dims.n_iters}"
    )


def save_params(params: RoutingParams, path) -> None:
    """Write one parameter set; see docs/param-format.md for the bytes.

    Only float32 parameters serialize; the high-precision variant used by
    the equivalence oracles is a derived view, never a stored artifact.
    """
    if params.dtype != np.float32:
        raise ParamFormatError(
            f"only float32 parameters are serialized, got {params.dtype}"
        )
    arrays: list[np.ndarray] = []
    tensor_lines: list[str] = []
    offset = crc = 0
    for name, t in params.field_items():
        values = np.ascontiguousarray(t.array, dtype="<f4")  # a view on little-endian hosts
        shape_text = "x".join(str(e) for e in t.shape)
        tensor_lines.append(f"tensor {name} f32 {shape_text} {offset}")
        arrays.append(values)
        crc = zlib.crc32(values, crc)
        offset += values.nbytes
    header_lines = [
        f"{FORMAT_MAGIC} {FORMAT_VERSION}",
        f"mode {params.mode}",
        _dims_header(params.dims),
        f"checksum {crc:08x}",
        *tensor_lines,
        f"payload {offset}",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header_lines) + "\n\n").encode("ascii"))
        for values in arrays:
            fh.write(values)


def _is_decimal(text: str) -> bool:
    """Whether ``text`` has docs/param-format.md's integer syntax: ASCII digits only."""
    return text.isascii() and text.isdigit()


def _parse_int(text: str, what: str) -> int:
    if not _is_decimal(text):
        raise ParamFormatError(f"malformed header: {what} {text!r} is not an integer")
    return int(text)


def _parse_dims(line: str) -> RoutingDims:
    parts = line.split(" ")
    if len(parts) != 6 or parts[0] != "dims":
        raise ParamFormatError(f"malformed header: expected dims line, got {line!r}")
    values: dict[str, str] = {}
    for part in parts[1:]:
        key, eq, val = part.partition("=")
        if not eq:
            raise ParamFormatError(f"malformed header: dims entry {part!r} lacks '='")
        values[key] = val
    expected = ("n_inp", "n_out", "d_inp", "d_out", "n_iters")
    if tuple(values) != expected:
        raise ParamFormatError(f"malformed header: dims keys {tuple(values)} != {expected}")
    n_inp = None if values["n_inp"] == "variable" else _parse_int(values["n_inp"], "n_inp")
    # Parsed outside the try, whose ValueError would prefix the message twice.
    n_out, d_inp, d_out, n_iters = (_parse_int(values[key], key) for key in expected[1:])
    try:
        return RoutingDims(n_inp, n_out, d_inp, d_out, n_iters)
    except ValueError as exc:
        raise ParamFormatError(f"malformed header: {exc}") from None


def _read_header(fh) -> bytes:
    """The bytes before the file's first blank line, read in small chunks,
    leaving ``fh`` at the first payload byte."""
    head = bytearray()
    while chunk := fh.read(_HEADER_CHUNK):
        start = max(len(head) - 1, 0)  # a "\n\n" may straddle two chunks
        head += chunk
        end = head.find(b"\n\n", start)
        if end >= 0:
            fh.seek(end + 2)
            return bytes(head[:end])
    raise ParamFormatError("malformed header: missing blank-line terminator")


def _parse_header(head: bytes) -> tuple[RoutingDims, list, str, int]:
    """Check every header line and return the dims, a (name, shape, offset)
    entry per tensor, the declared checksum and the declared payload length."""
    try:
        lines = head.decode("ascii").split("\n")
    except UnicodeDecodeError:
        raise ParamFormatError("malformed header: not ASCII") from None
    if len(lines) < 5:
        raise ParamFormatError("malformed header: too few lines")

    magic = lines[0].split(" ")
    if len(magic) != 2 or magic[0] != FORMAT_MAGIC:
        raise ParamFormatError(f"not a parameter file: first line {lines[0]!r}")
    if _parse_int(magic[1], "version") != FORMAT_VERSION:
        raise ParamFormatError(f"unknown format version {magic[1]}")

    mode_parts = lines[1].split(" ")
    if len(mode_parts) != 2 or mode_parts[0] != "mode" or mode_parts[1] not in ("fixed", "variable"):
        raise ParamFormatError(f"malformed header: expected mode line, got {lines[1]!r}")
    mode = mode_parts[1]

    dims = _parse_dims(lines[2])
    if (dims.n_inp is None) != (mode == "variable"):
        raise ParamFormatError(f"mode {mode} conflicts with dims n_inp={dims.n_inp}")

    checksum_parts = lines[3].split(" ")
    if len(checksum_parts) != 2 or checksum_parts[0] != "checksum":
        raise ParamFormatError(f"malformed header: expected checksum line, got {lines[3]!r}")
    declared_crc = checksum_parts[1]

    payload_parts = lines[-1].split(" ")
    if len(payload_parts) != 2 or payload_parts[0] != "payload":
        raise ParamFormatError(f"malformed header: expected payload line, got {lines[-1]!r}")
    declared_len = _parse_int(payload_parts[1], "payload length")

    expected_shapes = field_shapes(dims)
    entries: list[tuple[str, tuple[int, ...], int]] = []
    for line in lines[4:-1]:
        parts = line.split(" ")
        if len(parts) != 5 or parts[0] != "tensor" or parts[2] != "f32":
            raise ParamFormatError(f"malformed header: expected tensor line, got {line!r}")
        name = parts[1]
        extents = parts[3].split("x")
        if not all(_is_decimal(e) for e in extents):
            raise ParamFormatError(f"malformed header: bad shape {parts[3]!r} for {name}")
        entries.append((name, tuple(map(int, extents)), _parse_int(parts[4], f"{name} offset")))

    names = [name for name, _, _ in entries]
    if names != list(expected_shapes):
        raise ParamFormatError(
            f"tensor names {names} do not match the {mode}-mode set "
            f"{list(expected_shapes)} in canonical order"
        )
    offset = 0
    for name, shape, declared_offset in entries:
        if shape != expected_shapes[name]:
            raise ParamFormatError(
                f"tensor {name} shape {shape} != required {expected_shapes[name]}"
            )
        if declared_offset != offset:
            raise ParamFormatError(
                f"tensor {name} offset {declared_offset} != contiguous offset {offset}"
            )
        offset += int(np.prod(shape)) * 4
    if declared_len != offset:
        raise ParamFormatError(f"declared payload length {declared_len} != tensor total {offset}")
    return dims, entries, declared_crc, declared_len


def load_params(path) -> RoutingParams:
    """Read a parameter file back, verifying it completely first.

    Any defect (bad magic or version, malformed lines, wrong tensor set,
    non-contiguous offsets, truncated or oversized payload, checksum
    mismatch, non-finite values) raises ParamFormatError; nothing is
    partially loaded. The header and the file's size are checked before
    any payload byte is read, and each tensor is read straight into an
    array of its own, so a kept tensor pins nothing else of the file.
    """
    with open(path, "rb") as fh:
        dims, entries, declared_crc, declared_len = _parse_header(_read_header(fh))
        payload_len = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload_len < declared_len:
            raise ParamFormatError(f"truncated payload: {payload_len} bytes, need {declared_len}")
        if payload_len > declared_len:
            raise ParamFormatError(f"trailing bytes after payload: {payload_len - declared_len}")
        arrays: dict[str, np.ndarray] = {}
        crc = 0
        for name, shape, offset in entries:
            arr = np.empty(shape, "<f4")
            got = fh.readinto(arr)
            if got != arr.nbytes:  # the file shrank after its size was read
                raise ParamFormatError(
                    f"truncated payload: {offset + got} bytes, need {declared_len}"
                )
            crc = zlib.crc32(arr, crc)
            arrays[name] = arr

    actual_crc = f"{crc:08x}"
    if actual_crc != declared_crc:
        raise ParamFormatError(f"checksum mismatch: header {declared_crc}, payload {actual_crc}")

    tensors: dict[str, DenseTensor] = {}
    for name, arr in arrays.items():
        try:
            # The arrays are the loader's own, so the tensors adopt them.
            tensors[name] = DenseTensor(arr, np.float32, copy=False, context=name)
        except ArithmeticError as exc:
            raise ParamFormatError(f"tensor {name} holds non-finite values: {exc}") from None
    return RoutingParams(dims, **tensors)
