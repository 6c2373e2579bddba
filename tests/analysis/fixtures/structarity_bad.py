"""Seeded struct-arity violations: one short pack, two wrong unpacks."""

import struct

HEADER = struct.Struct(">4sIII")
WORDS = struct.Struct("<3Q")


def encode(msg_type, payload):
    return HEADER.pack(b"NINF", msg_type, len(payload))  # crc forgotten


def decode(raw):
    magic, msg_type, length, crc, extra = HEADER.unpack(raw)
    return msg_type, length, crc, extra


def control(buffer):
    write_pos, read_pos = WORDS.unpack_from(buffer, 0)  # closed forgotten
    return write_pos - read_pos
