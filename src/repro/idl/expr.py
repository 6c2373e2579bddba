"""Arithmetic expressions over scalar IDL arguments.

Array dimensions ("``double A[n][n]``"), computational-order clauses
("``CalcOrder "2*n*n*n/3"``"), and communication-order clauses are all
expressions over the routine's scalar ``mode_in`` arguments.  The server
evaluates them to size buffers; the metaserver evaluates them to predict
compute and transfer times (paper §5.1: "IDL and server execution trace
will give us effective information for predicting the communication
transfer time versus computing time").

Grammar (standard precedence, ``^`` is exponentiation, right
associative)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/' | '%') factor)*
    factor := power
    power  := unary ('^' power)?
    unary  := '-' unary | atom
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Supported functions: ``min``, ``max``, ``sqrt``, ``log2``, ``ceil``,
``floor``.  Division of two ints is float division (orders are real
valued); dimension contexts round-check the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

from repro.idl.errors import IdlError
from repro.idl.lexer import Lexer

__all__ = ["Expr", "BinOp", "Call", "Const", "Neg", "Var", "parse_expr"]

Number = Union[int, float]

_FUNCTIONS = {
    "min": min,
    "max": max,
    "sqrt": math.sqrt,
    "log2": math.log2,
    "ceil": math.ceil,
    "floor": math.floor,
}


class Expr:
    """Base expression node."""

    def evaluate(self, env: Mapping[str, Number]) -> Number:
        """Value of the expression under ``env`` (name -> number).

        Every failure is an :class:`IdlError`: an unbound name, a zero
        divisor, a result past the float range (``2^x`` at x = 1e4), a
        math domain error (``sqrt(-1)``) or a complex power
        (``(-4)^0.5``) -- so a peer's scalars cannot raise anything a
        caller does not expect from a bad IDL argument.
        """
        try:
            value = self._value(env)
        except IdlError:
            raise
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise IdlError(f"IDL expression {self} failed: {exc}") from None
        if isinstance(value, complex):
            raise IdlError(f"IDL expression {self} is not real: {value}")
        return value

    def _value(self, env: Mapping[str, Number]) -> Number:
        """The node's value; children are evaluated with ``_value``."""
        raise NotImplementedError

    def free_variables(self) -> frozenset[str]:
        """Names of all variables the expression references."""
        raise NotImplementedError

    def __str__(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: Number

    def _value(self, env: Mapping[str, Number]) -> Number:
        """A literal evaluates to itself."""
        return self.value

    def free_variables(self) -> frozenset[str]:
        """Literals reference no variables."""
        return frozenset()

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def _value(self, env: Mapping[str, Number]) -> Number:
        """Look the variable up in ``env``; IdlError if unbound."""
        try:
            return env[self.name]
        except KeyError:
            raise IdlError(f"unbound variable {self.name!r} in IDL expression") from None

    def free_variables(self) -> frozenset[str]:
        """The variable references exactly itself."""
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr

    def _value(self, env: Mapping[str, Number]) -> Number:
        """Arithmetic negation of the operand's value."""
        return -self.operand._value(env)

    def free_variables(self) -> frozenset[str]:
        """Variables of the negated operand."""
        return self.operand.free_variables()

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def _value(self, env: Mapping[str, Number]) -> Number:
        """Apply the operator to the evaluated operands."""
        a = self.left._value(env)
        b = self.right._value(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if b == 0:
                raise IdlError("division by zero in IDL expression")
            return a / b
        if self.op == "%":
            if b == 0:
                raise IdlError("modulo by zero in IDL expression")
            return a % b
        if self.op == "^":
            return a**b
        raise IdlError(f"unknown operator {self.op!r}")  # pragma: no cover

    def free_variables(self) -> frozenset[str]:
        """Union of both operands' variables."""
        return self.left.free_variables() | self.right.free_variables()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple[Expr, ...]

    def _value(self, env: Mapping[str, Number]) -> Number:
        """Apply the named builtin to the evaluated arguments."""
        fn = _FUNCTIONS.get(self.func)
        if fn is None:
            raise IdlError(f"unknown function {self.func!r} in IDL expression")
        return fn(*(a._value(env) for a in self.args))

    def free_variables(self) -> frozenset[str]:
        """Union of all argument expressions' variables."""
        out: frozenset[str] = frozenset()
        for arg in self.args:
            out |= arg.free_variables()
        return out

    def __str__(self) -> str:
        return f"{self.func}({', '.join(map(str, self.args))})"


def parse_expr(source: Union[str, Lexer], stop_kinds: frozenset[str] = frozenset()) -> Expr:
    """Parse an expression from a string or an in-progress :class:`Lexer`.

    When given a string the whole input must be consumed.  When given a
    lexer, parsing stops at any token kind in ``stop_kinds`` (or at a
    token the grammar cannot extend), leaving it unconsumed.
    """
    own_lexer = isinstance(source, str)
    lexer = Lexer(source) if own_lexer else source
    expr = _parse_sum(lexer)
    if own_lexer and not lexer.at_end():
        token = lexer.peek()
        raise IdlError(f"trailing input after expression: {token.value!r}",
                       token.line, token.column)
    return expr


def _parse_sum(lexer: Lexer) -> Expr:
    left = _parse_term(lexer)
    while True:
        if lexer.accept("+"):
            left = BinOp("+", left, _parse_term(lexer))
        elif lexer.accept("-"):
            left = BinOp("-", left, _parse_term(lexer))
        else:
            return left


def _parse_term(lexer: Lexer) -> Expr:
    left = _parse_power(lexer)
    while True:
        if lexer.accept("*"):
            left = BinOp("*", left, _parse_power(lexer))
        elif lexer.accept("/"):
            left = BinOp("/", left, _parse_power(lexer))
        elif lexer.accept("%"):
            left = BinOp("%", left, _parse_power(lexer))
        else:
            return left


def _parse_power(lexer: Lexer) -> Expr:
    base = _parse_unary(lexer)
    if lexer.accept("^"):
        return BinOp("^", base, _parse_power(lexer))  # right associative
    return base


def _parse_unary(lexer: Lexer) -> Expr:
    if lexer.accept("-"):
        return Neg(_parse_unary(lexer))
    return _parse_atom(lexer)


def _parse_atom(lexer: Lexer) -> Expr:
    token = lexer.next()
    if token.kind == "number":
        text = token.value
        if "." in text or "e" in text or "E" in text:
            return Const(float(text))
        return Const(int(text))
    if token.kind == "ident":
        if lexer.accept("("):
            args = [_parse_sum(lexer)]
            while lexer.accept(","):
                args.append(_parse_sum(lexer))
            lexer.expect(")")
            if token.value not in _FUNCTIONS:
                raise IdlError(f"unknown function {token.value!r}",
                               token.line, token.column)
            return Call(token.value, tuple(args))
        return Var(token.value)
    if token.kind == "(":
        inner = _parse_sum(lexer)
        lexer.expect(")")
        return inner
    raise IdlError(f"unexpected token {token.value!r} in expression",
                   token.line, token.column)
