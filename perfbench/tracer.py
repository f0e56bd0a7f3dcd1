"""In-memory span tracer that wraps hankelx's public functions from outside.

The program is not modified.  ``Tracer.install`` replaces every public
function of the package's modules (each module's ``__all__``, plus the CLI's
public functions) at every ``hankelx.*`` module attribute that refers to it,
which is where callers look the name up at call time: ``hankelx.recovery``
calls ``hankel_matmat`` through its own global, the CLI calls
``hankelx.cli.run_hsnld``, and so on.  The ``numpy.fft`` transforms are
wrapped in the ``numpy.fft`` namespace, which is how the package reaches
them, so every FFT the package runs is counted with its transform size.

Span stacks are per thread, because the ``phase`` command runs its trials in a
thread pool.  A span opened on a thread with an empty stack takes as parent
the innermost open span of the thread that installed the tracer, so pool
trials hang under the CLI call that started them.  Spans stay in memory until
the benchmark reads them at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time

import numpy as np

FFT_TRANSFORMS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn",
)
# real-to-complex transforms return a half spectrum, so their size is read
# from the real side
_R2C = {"rfft": 1, "ihfft": 1, "rfft2": 2, "rfftn": 2}

LAYER_MODULES = ("transforms", "hankel", "linalg", "sampling", "signals", "recovery")


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "error", "info")

    def __init__(self, name, thread, start, parent):
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.parent = parent
        self.error = None
        self.info = None


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def fft_points(name: str, args, kwargs, out) -> int:
    """Points transformed by one numpy.fft call: transform length x batch.

    Complex-to-complex and complex-to-real transforms are counted by the size
    of their full-length result.  Real-to-complex ones return a half
    spectrum, so the count uses the (padded or cropped) real input length on
    the last transformed axis instead.
    """
    out = np.asarray(out)
    kind = _R2C.get(name)
    if kind is None:
        return int(out.size)
    a = np.asarray(args[0] if args else kwargs["a"])
    if kind == 1:
        axis = _arg(args, kwargs, 2, "axis", -1)
        n = _arg(args, kwargs, 1, "n") or a.shape[axis]
    else:
        shape = _arg(args, kwargs, 1, "s")
        axes = _arg(args, kwargs, 2, "axes")
        if axes is None:
            axes = (-2, -1) if name == "rfft2" else tuple(
                range(-len(shape), 0) if shape is not None else range(-a.ndim, 0)
            )
        axis = axes[-1]
        n = shape[-1] if shape is not None else a.shape[axis]
    half = out.shape[axis]
    return int(out.size // half * n) if half else 0


class Tracer:
    """Collects spans; create one, ``install`` it, run, then ``uninstall``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._stacks: dict[int, list[Span]] = {}
        self._origin = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        tid = threading.get_ident()
        parent = stack[-1] if stack else None
        if parent is None and tid != self._origin:
            origin = self._stacks.get(self._origin)
            parent = origin[-1] if origin else None
        span = Span(name, tid, self.clock(), parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self.close(span)

    # -- wrapping ---------------------------------------------------------
    def wrap(self, fn, name: str, on_result=None):
        """Wrapper recording one span per call; ``on_result(span, args, kwargs, result)``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                span.info = getattr(exc, "iteration", None)
                raise
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, summarize=None):
        """Wrap numpy.fft and the package's public functions in place.

        ``summarize`` maps a span name to an ``on_result`` hook, used to keep
        a compact summary of what a call returned (e.g. a solver report).
        """
        summarize = summarize or {}
        targets = {}
        for short in FFT_TRANSFORMS:
            fn = getattr(np.fft, short)
            targets[id(fn)] = (fn, self.wrap(fn, f"numpy.fft.{short}", _record_fft(short)))
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "hankelx" or name.startswith("hankelx."))
        }
        for layer in LAYER_MODULES:
            mod = modules.get(f"hankelx.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and id(fn) not in targets:
                    name = f"{layer}.{attr}"
                    targets[id(fn)] = (fn, self.wrap(fn, name, summarize.get(name)))
        cli = modules.get("hankelx.cli")
        if cli is not None:
            for attr, fn in vars(cli).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == cli.__name__ and id(fn) not in targets):
                    name = f"cli.{attr}"
                    targets[id(fn)] = (fn, self.wrap(fn, name, summarize.get(name)))
        for short in FFT_TRANSFORMS:
            fn = getattr(np.fft, short)
            self._patch(np.fft, short, targets[id(fn)][1])
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()


def _record_fft(short):
    def on_result(span, args, kwargs, result):
        a = args[0] if args else kwargs.get("a")
        span.info = (
            fft_points(short, args, kwargs, result),
            int(np.asarray(a).nbytes) + int(np.asarray(result).nbytes),
        )

    return on_result
