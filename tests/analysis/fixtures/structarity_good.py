"""Idiomatic Struct constants: widths match, a splat hides the count,
and a non-literal format or a foreign name is left alone."""

import struct

HEADER = struct.Struct(">4sIII")
PADDED = struct.Struct(">I4x2d")        # pad bytes are not fields
DYNAMIC = struct.Struct(">" + "I" * 3)  # not a literal: not checked


def encode(msg_type, payload, crc):
    return HEADER.pack(b"NINF", msg_type, len(payload), crc)


def encode_fields(fields):
    return HEADER.pack(*fields)


def decode(raw):
    magic, msg_type, length, crc = HEADER.unpack(raw)
    count, low, high = PADDED.unpack_from(raw, 16)
    whole = HEADER.unpack(raw)          # not destructured: not checked
    a, b = DYNAMIC.unpack(raw)
    return magic, msg_type, length, crc, count, low, high, whole, a, b


def other(layout, raw):
    x, y = layout.unpack(raw)           # not a module constant
    return x, y
