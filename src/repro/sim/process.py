"""Coroutine processes driven by the simulator.

A process wraps a generator.  Every value the generator yields is an
*effect* (see :mod:`repro.sim.events`); the kernel arranges for the process
to be resumed when the effect completes, delivering the effect's result as
the value of the ``yield`` expression.

Effects only ever call ``resume(value)`` on whatever they were bound to,
so a hot, fixed-shape thread can skip the generator machinery: a
:class:`Continuation` binds an effect straight to a callback
(``effect._bind(sim, continuation)``) and keeps the process's failure
reporting.
"""

from __future__ import annotations

from typing import Any, Generator


class ProcessFailure(RuntimeError):
    """Wraps an exception that escaped a simulation process."""

    def __init__(self, process_name: str, original: BaseException):
        super().__init__(f"process {process_name!r} failed: {original!r}")
        self.original = original


class Process:
    """A running simulation process; it ends when its generator returns
    (the return value is discarded)."""

    __slots__ = ("sim", "generator", "name", "finished")

    def __init__(self, sim, generator: Generator, name: str = ""):
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False

    def resume(self, value: Any) -> None:
        """Advance the generator one step; dispatch the next effect."""
        if self.finished:
            return
        try:
            effect = self.generator.send(value)
        except StopIteration:
            self._finish()
            return
        except Exception as exc:
            self._finish_error(exc)
            return
        self._dispatch(effect)

    def _dispatch(self, effect: Any) -> None:
        if type(effect) is int:
            self.sim.schedule(effect, self.resume, None)
            return
        bind = getattr(effect, "_bind", None)
        if bind is None:
            self._finish_error(
                TypeError(f"process {self.name!r} yielded non-effect {effect!r}")
            )
            return
        bind(self.sim, self)

    def _finish(self) -> None:
        self.finished = True
        self.generator.close()

    def _finish_error(self, exc: BaseException) -> None:
        self.finished = True
        self.generator.close()
        raise ProcessFailure(self.name, exc) from exc


class Continuation:
    """One resumption point of a callback-driven thread.

    Bound to an effect in place of a :class:`Process`, it runs ``step`` with
    the effect's result.  An exception escaping ``step`` surfaces as a
    :class:`ProcessFailure` naming the thread, as it would from a process.
    """

    __slots__ = ("name", "step")

    def __init__(self, name: str, step):
        self.name = name
        self.step = step

    def resume(self, value: Any) -> None:
        try:
            self.step(value)
        except Exception as exc:
            raise ProcessFailure(self.name, exc) from exc
