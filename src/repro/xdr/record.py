"""Declared XDR records: one field list, both codecs.

Ninf's design point is that nobody hand-writes a stub (the IDL is
compiled once and both sides marshal from it); this module does the
same for the protocol's own control messages.  A message is declared
once, in RFC 4506's data-description vocabulary:

=================  ====================================================
``struct {...}``   :class:`Struct` of named fields
``T name<max>``    :class:`Array`: a counted list; a count above
                   ``max`` is refused before any element is decoded
``T *name``        :class:`Option`: a bool, then the value if true
``opaque name<>``  :data:`opaque` (``bytes``), or :data:`body`
                   (marshalled in place, decoded as a view)
``[T name]``       a trailing field (declared with a default): always
                   written, decoded only while bytes remain, so an
                   older peer may end its payload before it
=================  ====================================================

From that one list come the encoder, the decoder (compiled when the
declaration is made: every run of fixed-width fields moves through one
precompiled ``struct.Struct``), the count caps, the line PROTOCOL.md
prints, and the strategies of the property tests -- an encoder and its
decoder cannot disagree, and there is no copy to police.

>>> point = Struct(uint("x"), string("label"), Option(double)("w"))
>>> point.layout()
'uint x, string label, double *w'
>>> enc = XdrEncoder()
>>> point.pack(enc, (7, "hi", None))
>>> point.unpack(XdrDecoder(enc.getvalue()))
(7, 'hi', None)
"""

from __future__ import annotations

import math
import struct
from itertools import groupby
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.xdr.decoder import XdrDecoder
from repro.xdr.encoder import XdrEncoder
from repro.xdr.errors import XdrError

__all__ = ["Array", "Field", "Option", "Struct", "Type", "body", "bool_",
           "double", "double_above", "float_", "hyper", "int_", "opaque",
           "string", "uhyper", "uint"]

_REQUIRED: Any = object()


class Field(NamedTuple):
    """One named member of a :class:`Struct`; with a ``default``, a
    trailing one."""

    name: str
    type: "Type"
    default: Any = _REQUIRED


class Type:
    """An XDR type: how a value is packed, unpacked and spelled.
    Calling a type with a name declares a field of it."""

    #: ``struct`` format code of a fixed-width type ("" for the rest),
    #: and the check each value decoded through it passes (it returns
    #: the value to hand on, or raises :exc:`XdrError`).
    code = ""
    check: Optional[Callable[[Any], Any]] = None
    pack: Callable[[XdrEncoder, Any], None]
    unpack: Callable[[XdrDecoder], Any]

    def __init__(self, word: str, suffix: str = "") -> None:
        self.word = word
        self.suffix = suffix

    def __call__(self, name: str, default: Any = _REQUIRED) -> Field:
        return Field(name, self, default)

    def declare(self, name: str) -> str:
        """The RFC 4506 declaration of ``name`` as this type."""
        return f"{self.word} {name}{self.suffix}"


class Struct(Type):
    """Named fields in wire order.

    With ``make`` (a class whose constructor takes the field names) a
    value is an instance of it, read by attribute and rebuilt by
    keyword; without, a tuple.  ``strict`` is the trailing-byte policy
    of a struct used as a whole payload: whether bytes after the last
    field are an error (read by whoever drives the decoder).
    :attr:`tail` is the ``struct.Struct`` of the trailing run of
    fixed-width fields (of no field when the last one is not fixed): the
    bytes a caller may rewrite in place in an encoded record.

    :attr:`pack` and :attr:`unpack` are compiled here, once, from
    generated source (as ``dataclasses`` does for ``__init__``): one
    statement per variable-width field, one ``struct.Struct`` call per
    run of fixed-width ones, no loop and no per-field dispatch left for
    the per-message path.
    """

    def __init__(self, *fields: Field,
                 make: Optional[Callable[..., Any]] = None,
                 strict: bool = False) -> None:
        self.fields = fields
        self.make = make
        self.strict = strict
        super().__init__(make.__name__ if make is not None
                         else "{" + self.layout() + "}")
        self.tail = struct.Struct("")
        scope: dict[str, Any] = {"make": make, "XdrError": XdrError,
                                 "word": self.word}
        every = [f"v{i}" for i in range(len(fields))]
        source = "value" if make is None else "".join(
            f"value.{field.name}, " for field in fields)
        packs = [f"({''.join(v + ', ' for v in every)}) = ({source})"]
        unpacks = []
        at = 0
        for fixed, group in groupby(
                fields, lambda f: bool(f.type.code and f.default is _REQUIRED)):
            members = list(zip(every[at:], group))
            at += len(members)
            if fixed:
                run = f"run_{members[0][0]}"
                self.tail = scope[run] = struct.Struct(
                    ">" + "".join(field.type.code for _, field in members))
                names = "".join(v + ", " for v, _ in members)
                packs.append(f"enc.pack_fixed({run}, {names})")
                unpacks.append(f"{names}= dec.unpack_fixed({run})")
            else:
                self.tail = struct.Struct("")
            for v, field in members:
                if fixed and field.type.check is not None:
                    scope[f"check_{v}"] = field.type.check
                    unpacks.append(f"{v} = check_{v}({v})")
                elif not fixed:
                    scope.update({f"put_{v}": field.type.pack,
                                  f"take_{v}": field.type.unpack,
                                  f"default_{v}": field.default})
                    packs.append(f"put_{v}(enc, {v})")
                    unpacks.append(f"{v} = take_{v}(dec)" + (
                        "" if field.default is _REQUIRED
                        else f" if dec.remaining else default_{v}"))
        if make is None:
            unpacks.append(f"return ({''.join(v + ', ' for v in every)})")
        else:
            built = ", ".join(f"{f.name}={v}" for f, v in zip(fields, every))
            unpacks += ["try:", f"    return make({built})",
                        "except ValueError as exc:  # make refuses the values",
                        "    raise XdrError(f'malformed {word}: {exc}') "
                        "from exc"]
        exec("def pack(enc, value):\n    " + "\n    ".join(packs)
             + "\ndef unpack(dec):\n    " + "\n    ".join(unpacks), scope)
        self.pack = scope["pack"]
        self.unpack = scope["unpack"]

    def layout(self) -> str:
        """The fields on one line, as PROTOCOL.md prints them."""
        return ", ".join(
            field.type.declare(field.name) if field.default is _REQUIRED
            else f"[{field.type.declare(field.name)}]"
            for field in self.fields)


def _scalar(word: str, code: str,
            check: Optional[Callable[[Any], Any]] = None,
            suffix: str = "") -> Type:
    """A fixed-width type.  Inside a :class:`Struct` it joins its
    neighbours' run; on its own (a list item, an optional) it is a
    struct of one."""
    scalar = Type(word, suffix)
    scalar.code = code
    scalar.check = check
    alone = Struct(Field("value", scalar))
    scalar.pack = lambda enc, value: alone.pack(enc, (value,))
    scalar.unpack = lambda dec: alone.unpack(dec)[0]
    return scalar


def _strict_bool(value: int) -> bool:
    if value not in (0, 1):
        raise XdrError(f"invalid XDR bool {value}")
    return value == 1


def double_above(bound: float) -> Type:
    """A double that must decode to a finite value above ``bound``."""
    def check(value: float) -> float:
        if not bound < value < math.inf:      # false for NaN as well
            raise XdrError(f"double {value!r} is not finite and > {bound:g}")
        return value
    return _scalar("double", "d", check, f" (finite, > {bound:g})")


int_ = _scalar("int", "i")
uint = _scalar("uint", "I")
hyper = _scalar("hyper", "q")
uhyper = _scalar("uhyper", "Q")
float_ = _scalar("float", "f")
double = _scalar("double", "d")
bool_ = _scalar("bool", "I", _strict_bool)


def _leaf(word: str, suffix: str, pack: Callable[[XdrEncoder, Any], None],
          unpack: Callable[[XdrDecoder], Any]) -> Type:
    """A variable-width primitive the encoder and decoder already have."""
    leaf = Type(word, suffix)
    leaf.pack = pack
    leaf.unpack = unpack
    return leaf


def _pack_body(enc: XdrEncoder, value: Any) -> None:
    """An opaque given as bytes, or as a ``fill(enc)`` that marshals it
    in place: the length word is reserved once and patched after."""
    if callable(value):
        token = enc.begin_opaque()
        value(enc)
        enc.end_opaque(token)
    else:
        enc.pack_opaque(value)


string = _leaf("string", "", XdrEncoder.pack_string, XdrDecoder.unpack_string)
opaque = _leaf("opaque", "<>", XdrEncoder.pack_opaque,
               XdrDecoder.unpack_opaque)
#: The bulk tail of CALL / RESULT: packed from bytes or by a callable
#: that marshals straight into the encoder; decoded as a zero-copy view.
body = _leaf("opaque", "<>", _pack_body, XdrDecoder.unpack_opaque_view)


class Array(Type):
    """``T name<limit>``: a counted list, decoded to a tuple.  A count
    above ``limit`` is refused on both sides, on the decoding one before
    any element is looked at."""

    def __init__(self, item: Type, limit: int) -> None:
        self.item = item
        self.limit = limit

    def declare(self, name: str) -> str:
        """The item's declaration, then ``<limit>``."""
        return f"{self.item.declare(name)}<{self.limit}>"

    def _count(self, count: int) -> int:
        if count > self.limit:
            raise XdrError(f"list of {count} items, at most "
                           f"{self.limit} allowed")
        return count

    def pack(self, enc: XdrEncoder, value: Sequence[Any]) -> None:
        """The count word, then each item."""
        enc.pack_uint(self._count(len(value)))
        for item in value:
            self.item.pack(enc, item)

    def unpack(self, dec: XdrDecoder) -> tuple[Any, ...]:
        """The count word, checked, then that many items."""
        take = self.item.unpack
        return tuple([take(dec)
                      for _ in range(self._count(dec.unpack_uint()))])


class Option(Type):
    """``T *name``: a bool, then the value when it is true; ``None``
    stands for absent."""

    def __init__(self, item: Type) -> None:
        self.item = item

    def declare(self, name: str) -> str:
        """The item's declaration of ``*name``."""
        return self.item.declare("*" + name)

    def pack(self, enc: XdrEncoder, value: Any) -> None:
        """Whether there is a value, then it."""
        enc.pack_bool(value is not None)
        if value is not None:
            self.item.pack(enc, value)

    def unpack(self, dec: XdrDecoder) -> Any:
        """The value if the bool says there is one, else ``None``."""
        return self.item.unpack(dec) if dec.unpack_bool() else None
