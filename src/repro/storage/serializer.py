"""Binary codec for the terms stored beside the page files.

The index persists extracted paths on disk (the paper assumes the data
graph "cannot fit in memory and ... can only be stored on disk", §6.1).
This module provides the primitives of that format: a varint-based,
tagged binary encoding that round-trips every term kind exactly.  The
path record itself is a run of varint label ids
(:meth:`repro.index.labels.LabelInterner.encode_path`); the terms live
once each in the ``labels.dict`` dictionary written with
:func:`write_term`.

Format
------
- varint: unsigned LEB128.
- string: varint length + UTF-8 bytes.
- term: 1 tag byte (``U``/``P``/``B``/``V`` = URI, plain literal, blank
  node, variable; ``L`` = language literal; ``D`` = datatyped literal)
  followed by the string(s).
"""

from __future__ import annotations

from typing import BinaryIO

from ..rdf.terms import BlankNode, Literal, Term, URI, Variable

_TAG_URI = b"U"
_TAG_PLAIN = b"P"
_TAG_LANG = b"L"
_TAG_DATATYPE = b"D"
_TAG_BLANK = b"B"
_TAG_VARIABLE = b"V"


class CodecError(ValueError):
    """Raised when a byte stream does not decode to a valid record."""


def write_varint(stream: BinaryIO, value: int) -> None:
    """Write an unsigned LEB128 varint."""
    if value < 0:
        raise CodecError(f"varints are unsigned, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            stream.write(bytes((byte | 0x80,)))
        else:
            stream.write(bytes((byte,)))
            return


def read_varint(stream: BinaryIO) -> int:
    """Read an unsigned LEB128 varint."""
    result = 0
    shift = 0
    while True:
        raw = stream.read(1)
        if not raw:
            raise CodecError("truncated varint")
        byte = raw[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


def write_string(stream: BinaryIO, value: str) -> None:
    data = value.encode("utf-8")
    write_varint(stream, len(data))
    stream.write(data)


def read_string(stream: BinaryIO) -> str:
    length = read_varint(stream)
    data = stream.read(length)
    if len(data) != length:
        raise CodecError("truncated string")
    return data.decode("utf-8")


def write_term(stream: BinaryIO, term: Term) -> None:
    """Encode one term with its tag byte."""
    if isinstance(term, URI):
        stream.write(_TAG_URI)
        write_string(stream, term.value)
    elif isinstance(term, Literal):
        if term.language:
            stream.write(_TAG_LANG)
            write_string(stream, term.value)
            write_string(stream, term.language)
        elif term.datatype:
            stream.write(_TAG_DATATYPE)
            write_string(stream, term.value)
            write_string(stream, term.datatype.value)
        else:
            stream.write(_TAG_PLAIN)
            write_string(stream, term.value)
    elif isinstance(term, BlankNode):
        stream.write(_TAG_BLANK)
        write_string(stream, term.value)
    elif isinstance(term, Variable):
        stream.write(_TAG_VARIABLE)
        write_string(stream, term.value)
    else:
        raise CodecError(f"cannot encode {type(term).__name__}")


def read_term(stream: BinaryIO) -> Term:
    """Decode one term."""
    tag = stream.read(1)
    if not tag:
        raise CodecError("truncated term tag")
    if tag == _TAG_URI:
        return URI(read_string(stream))
    if tag == _TAG_PLAIN:
        return Literal(read_string(stream))
    if tag == _TAG_LANG:
        value = read_string(stream)
        return Literal(value, language=read_string(stream))
    if tag == _TAG_DATATYPE:
        value = read_string(stream)
        return Literal(value, datatype=URI(read_string(stream)))
    if tag == _TAG_BLANK:
        return BlankNode(read_string(stream))
    if tag == _TAG_VARIABLE:
        return Variable(read_string(stream))
    raise CodecError(f"unknown term tag {tag!r}")
