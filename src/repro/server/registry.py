"""Ninf executables and the server-side registry.

A *Ninf executable* pairs a compiled IDL signature with the Python
callable that implements it -- the analogue of the stub generator
producing a registered binary from IDL plus a library object file.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, Sequence

from repro.idl import IdlError, Signature

__all__ = ["ExecutionError", "NinfExecutable", "Registry"]


class ExecutionError(RuntimeError):
    """An executable raised during invocation; carries the cause."""

    def __init__(self, name: str, cause: BaseException):
        super().__init__(f"executable {name!r} failed: {cause!r}")
        self.name = name
        self.cause = cause

    def __reduce__(self):
        # Pickled by a PE worker process (repro.server.peworkers).
        return ExecutionError, (self.name, self.cause)


class NinfExecutable:
    """A registered routine: signature + implementation.

    The implementation is called with the full positional argument list
    (``mode_out`` arrays arrive as preallocated zero buffers).  Output
    collection supports both C-style and Python-style implementations:

    - return ``None`` and fill the output buffers in place, or
    - return a tuple (or single value) matching the output slots in
      declaration order; returned values overwrite the buffers.
    """

    def __init__(self, signature: Signature, func: Callable,
                 pes_required: int = 1):
        if pes_required < 1:
            raise ValueError(f"pes_required must be >= 1, got {pes_required}")
        self.signature = signature
        self.func = func
        self.pes_required = pes_required
        # Implementations may declare a `ninf_callback` keyword to
        # stream progress to the client (IDL "client callback functions").
        import inspect

        try:
            parameters = inspect.signature(func).parameters
        except (TypeError, ValueError):  # builtins, C callables
            parameters = {}
        self.wants_callback = "ninf_callback" in parameters

    @property
    def name(self) -> str:
        return self.signature.name

    def invoke(self, values: Sequence[Any],
               callback: Optional[Callable[[float, str], None]] = None
               ) -> list[Any]:
        """Run the implementation; return outputs in declaration order.

        ``callback(progress, message)`` is injected as the
        ``ninf_callback`` keyword when the implementation declares it.
        """
        try:
            if self.wants_callback:
                returned = self.func(*values, ninf_callback=callback or (
                    lambda _p, _m: None))
            else:
                returned = self.func(*values)
        except Exception as exc:
            raise ExecutionError(self.name, exc) from exc
        out_indices = self.signature.output_indices()
        if returned is None:
            outputs = [values[i] for i in out_indices]
        else:
            if not isinstance(returned, tuple):
                returned = (returned,)
            if len(returned) != len(out_indices):
                raise ExecutionError(
                    self.name,
                    IdlError(
                        f"implementation returned {len(returned)} values but "
                        f"the IDL declares {len(out_indices)} outputs"
                    ),
                )
            outputs = list(returned)
        for spec_index, value in zip(out_indices, outputs):
            spec = self.signature.args[spec_index]
            if value is None:
                raise ExecutionError(
                    self.name,
                    IdlError(f"output {spec.name!r} was never produced"),
                )
        return outputs

    def __repr__(self) -> str:
        return f"<NinfExecutable {self.name} pes={self.pes_required}>"


class Registry:
    """Thread-safe name -> executable mapping (the server's catalog)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executables: dict[str, NinfExecutable] = {}

    def register(self, idl: str, func: Callable, pes_required: int = 1,
                 aliases_too: bool = True) -> NinfExecutable:
        """Register a routine from its IDL text (the stub-generator path)."""
        signature = Signature.from_idl(idl)
        executable = NinfExecutable(signature, func, pes_required=pes_required)
        names = [signature.name]
        if aliases_too:
            from repro.idl.parser import parse_definitions

            (defn,) = parse_definitions(idl)
            names.extend(defn.aliases)
        with self._lock:
            for name in names:
                if name in self._executables:
                    raise IdlError(f"duplicate registration of {name!r}")
            for name in names:
                self._executables[name] = executable
        return executable

    def register_executable(self, executable: NinfExecutable) -> None:
        """Register a pre-built executable under its signature name."""
        with self._lock:
            if executable.name in self._executables:
                raise IdlError(f"duplicate registration of {executable.name!r}")
            self._executables[executable.name] = executable

    def get(self, name: str) -> Optional[NinfExecutable]:
        """The executable registered under ``name`` (or None)."""
        with self._lock:
            return self._executables.get(name)

    def names(self) -> list[str]:
        """Sorted names of every registered executable."""
        with self._lock:
            return sorted(self._executables)

    def __len__(self) -> int:
        with self._lock:
            return len(self._executables)

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None
