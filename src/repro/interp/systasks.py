"""System task/function host: the software side of unsynthesizable Verilog.

In Cascade/Synergy, unsynthesizable constructs are serviced by the
runtime.  :class:`TaskHost` is that service surface for the software
interpreter: it owns the virtual filesystem, the display log, the
finish/yield/save/restart flags, and the random generator.  Hardware
engines reach the *same* host through ABI traps, which is what makes
hardware file IO and ``$save``/``$restart`` work (§3 of the paper).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..verilog import ast_nodes as ast
from .vfs import VirtualFS

#: output tasks that print a line (``$write`` appends to the line buffer)
DISPLAY_TASKS = ("$display", "$strobe", "$monitor")


class FinishSignal(Exception):
    """Raised when the program executes ``$finish``."""

    def __init__(self, code: int = 0):
        super().__init__(f"$finish({code})")
        self.code = code


def verilog_format(fmt: str, values: Sequence[object]) -> str:
    """Render a ``$display``-style format string.

    Supports ``%d``/``%0d``, ``%h``/``%x``, ``%b``, ``%o``, ``%c``,
    ``%s``, ``%t``, ``%m`` (best-effort) and ``%%``.  Width prefixes are
    honoured for numeric conversions.
    """
    out: List[str] = []
    args = list(values)
    i, n = 0, len(fmt)
    while i < n:
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        i += 1
        if i >= n:
            out.append("%")
            break
        # Optional width (a leading 0 means "minimum width").
        width_digits = ""
        while i < n and fmt[i].isdigit():
            width_digits += fmt[i]
            i += 1
        if i >= n:
            break
        conv = fmt[i].lower()
        i += 1
        if conv == "%":
            out.append("%")
            continue
        arg = args.pop(0) if args else 0
        if conv in ("d", "t"):
            text = str(arg)
            pad = int(width_digits) if width_digits else 0
            out.append(text.rjust(pad))
        elif conv in ("h", "x"):
            out.append(format(int(arg), "x"))
        elif conv == "b":
            out.append(format(int(arg), "b"))
        elif conv == "o":
            out.append(format(int(arg), "o"))
        elif conv == "c":
            out.append(chr(int(arg) & 0xFF))
        elif conv == "s":
            if isinstance(arg, str):
                out.append(arg)
            else:  # packed string in an integer
                value = int(arg)
                chars = []
                while value:
                    chars.append(chr(value & 0xFF))
                    value >>= 8
                out.append("".join(reversed(chars)))
        elif conv == "m":
            out.append(str(arg))
        else:
            out.append(f"%{conv}")
    return "".join(out)


def output_format(args: Sequence[ast.Expr]
                  ) -> Tuple[Optional[str], Sequence[ast.Expr]]:
    """Split an output task's arguments into (format string, values).

    A leading string literal containing ``%`` is the format; otherwise
    the format is None and every argument is a value.
    """
    if args and isinstance(args[0], ast.String) and "%" in args[0].value:
        return args[0].value, args[1:]
    return None, args


def render_output(fmt: Optional[str], values: Sequence[object]) -> str:
    """The text of one ``$display``/``$write`` from evaluated arguments.

    *fmt* and the order of *values* come from :func:`output_format`;
    *values* holds ``str`` for string literals and ``int`` for
    evaluated expressions.  Every engine (interpreter, compiled,
    batched) and the hardware trap servicer render through here.
    """
    if fmt is not None:
        return verilog_format(fmt, values)
    return " ".join(v if isinstance(v, str) else str(v) for v in values)


class TaskHost:
    """Services unsynthesizable tasks for one program instance."""

    def __init__(self, vfs: Optional[VirtualFS] = None, echo: bool = False,
                 seed: int = 1):
        self.vfs = vfs if vfs is not None else VirtualFS()
        self.echo = echo
        self.display_log: List[str] = []
        self.finished = False
        self.finish_code = 0
        self.yield_asserted = False
        self.save_requested = False
        self.restart_requested = False
        self._rand_state = seed & 0xFFFFFFFF or 1
        # Optional runtime hooks, installed by the Cascade runtime so that
        # $save/$restart trap into the virtualization layer.
        self.on_save: Optional[Callable[[], None]] = None
        self.on_restart: Optional[Callable[[], None]] = None
        self.on_yield: Optional[Callable[[], None]] = None

    # -- output tasks -------------------------------------------------------

    def display(self, text: str) -> None:
        self.display_log.append(text)
        if self.echo:
            print(text)

    # -- control tasks --------------------------------------------------------

    def finish(self, code: int = 0) -> None:
        self.finished = True
        self.finish_code = code
        raise FinishSignal(code)

    def request_save(self) -> None:
        self.save_requested = True
        if self.on_save is not None:
            self.on_save()

    def request_restart(self) -> None:
        self.restart_requested = True
        if self.on_restart is not None:
            self.on_restart()

    def assert_yield(self) -> None:
        self.yield_asserted = True
        if self.on_yield is not None:
            self.on_yield()

    def clear_tick_flags(self) -> None:
        """Reset per-logical-tick flags (yield is per-tick, §5.3)."""
        self.yield_asserted = False
        self.save_requested = False
        self.restart_requested = False

    # -- value-returning functions ----------------------------------------------

    def random(self) -> int:
        """xorshift32 — deterministic across runs and platforms."""
        x = self._rand_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._rand_state = x
        return x
