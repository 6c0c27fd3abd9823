"""Trap servicing: the runtime side of sub-clock-tick yields (§3.4-3.5).

When a hardware engine's state machine raises ``__task``, the runtime
takes control, fetches the trap's arguments through ``get`` requests,
performs the side effect against OS-managed resources (the VFS, the
display log, the scheduler), places results (if any) in the appropriate
hardware location through ``set`` requests, and yields back by asserting
``__cont``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.machinify import TaskSite
from ..interp.systasks import TaskHost, output_format, render_output
from ..verilog import ast_nodes as ast
from ..verilog.width import WidthEnv, WidthError
from .abi import AbiChannel, ReadExpr, Set, WriteLval


class TrapError(Exception):
    """Raised when a trap cannot be serviced."""


class TrapServicer:
    """Services task/query traps for one engine."""

    def __init__(self, host: TaskHost, env: WidthEnv,
                 time_fn: Optional[Callable[[], int]] = None):
        self.host = host
        self.env = env
        self.time_fn = time_fn or (lambda: 0)
        self.serviced = 0

    # -- argument helpers ---------------------------------------------------

    def _value(self, channel: AbiChannel, expr: ast.Expr):
        if isinstance(expr, ast.String):
            return expr.value
        return channel.send(ReadExpr(expr))

    def _format(self, channel: AbiChannel, args) -> str:
        fmt, value_args = output_format(args)
        return render_output(fmt, [self._value(channel, a) for a in value_args])

    # -- servicing -----------------------------------------------------------

    def service(self, channel: AbiChannel, site: TaskSite) -> None:
        """Perform *site*'s side effect; results are written back via set."""
        self.serviced += 1
        channel.stats.traps_serviced += 1
        if site.kind == "query":
            self._service_query(channel, site)
        else:
            self._service_task(channel, site)

    def _service_query(self, channel: AbiChannel, site: TaskSite) -> None:
        name = site.name
        if name == "$feof":
            fd = self._value(channel, site.args[0])
            value = self.host.vfs.feof(int(fd))
        elif name == "$fopen":
            path = site.args[0].value if isinstance(site.args[0], ast.String) else ""
            mode = (site.args[1].value
                    if len(site.args) > 1 and isinstance(site.args[1], ast.String)
                    else "r")
            value = self.host.vfs.fopen(path, mode)
        elif name == "$fgetc":
            fd = self._value(channel, site.args[0])
            value = self.host.vfs.fgetc(int(fd))
        elif name in ("$random", "$urandom"):
            value = self.host.random()
        elif name in ("$time", "$stime"):
            value = self.time_fn()
        else:
            raise TrapError(f"unsupported query {name}")
        assert site.dest is not None
        channel.send(WriteLval(site.dest, int(value)))

    def _service_task(self, channel: AbiChannel, site: TaskSite) -> None:
        name = site.name
        if name in ("$display", "$strobe", "$monitor"):
            self.host.display(self._format(channel, site.args))
            return
        if name == "$write":
            self.host.display(self._format(channel, site.args))
            return
        if name in ("$fdisplay", "$fwrite"):
            fd = int(self._value(channel, site.args[0]))
            text = self._format(channel, site.args[1:])
            if name == "$fdisplay":
                text += "\n"
            self.host.vfs.fwrite(fd, text)
            return
        if name == "$fread":
            fd = int(self._value(channel, site.args[0]))
            assert site.dest is not None
            try:
                width = self.env.width_of(site.dest)
            except WidthError:
                width = 32
            word = self.host.vfs.fread_word(fd, width)
            if word is not None:
                channel.send(WriteLval(site.dest, word))
            return
        if name == "$fclose":
            self.host.vfs.fclose(int(self._value(channel, site.args[0])))
            return
        if name in ("$finish", "$stop"):
            code = int(self._value(channel, site.args[0])) if site.args else 0
            self.host.finished = True
            self.host.finish_code = code
            return
        if name == "$save":
            self.host.request_save()
            return
        if name == "$restart":
            self.host.request_restart()
            return
        if name == "$yield":
            self.host.assert_yield()
            return
        if name == "$srandom":
            seed = int(self._value(channel, site.args[0])) if site.args else 1
            self.host._rand_state = seed or 1
            return
        # Unknown tasks degrade to a log entry, mirroring the interpreter.
        self.host.display(f"[unsupported system task {name}]")
