"""Span tracer for one ``distillforge`` CLI process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py --spans OUT.npz -- reproduce --seed 0 --out runs

It times ``import distillforge``, then wraps the public functions of each
layer module (``tensor``, ``nets``, ``losses``, ``data``, ``pipeline``,
``metrics``, ``config``, ``cli``) at every module attribute that refers to
them, so callers that look a function up by module attribute or by a
``from .x import f`` name both reach the wrapper. Nothing under ``src`` is
modified. Three call sites get special names:

* ``Network.forward`` is ``nets.forward_taped`` under an active tape and
  ``nets.forward_const`` otherwise (teacher targets and evaluation);
* ``Tape.record`` wraps each recorded backward rule in a span named after
  the op that recorded it, ``tensor.<op>.bwd``;
* ``cli.cmd_<command>`` spans are ``cli.<command>``.

Spans live in per-thread in-memory arrays (name, start, end, parent) and
are written to ``OUT.npz`` when the command returns, together with byte
counters for the checkpoint and dataset files written. The process exits
with the command's own exit code.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from array import array

LAYERS = ("tensor", "nets", "losses", "data", "pipeline", "metrics", "config", "cli")
# trivial accessors called several times per op; wrapping them would
# mostly measure the tracer itself
UNWRAPPED = {"as_tensor", "active_tape", "detach"}

_now = time.perf_counter


class _ThreadSpans:
    __slots__ = ("name", "start", "end", "parent", "stack", "thread")

    def __init__(self, thread: int):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = []
        self.thread = thread


class Tracer:
    """In-memory span store: one buffer per thread, one name table."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._buffers: list[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def buffer(self) -> _ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadSpans(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
        return buf

    def add_span(self, nid: int, start: float, end: float) -> None:
        buf = self.buffer()
        buf.name.append(nid)
        buf.start.append(start)
        buf.end.append(end)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, nid: int):
        def traced(*args, **kwargs):
            buf = self.buffer()
            i = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0.0)
            buf.stack.append(i)
            buf.start.append(_now())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[i] = _now()
                buf.stack.pop()
        return functools.wraps(fn)(traced)

    def current(self) -> int:
        """Name id of this thread's innermost open span, or -1."""
        buf = self.buffer()
        return buf.name[buf.stack[-1]] if buf.stack else -1

    def dump(self, path: str) -> None:
        import numpy as np

        names, starts, ends, parents, threads = [], [], [], [], []
        offset = 0
        for buf in self._buffers:
            n = len(buf.name)
            parent = np.frombuffer(buf.parent, dtype=np.int64, count=n)
            names.append(np.frombuffer(buf.name, dtype=np.int32, count=n))
            starts.append(np.frombuffer(buf.start, dtype=np.float64, count=n))
            ends.append(np.frombuffer(buf.end, dtype=np.float64, count=n))
            parents.append(np.where(parent >= 0, parent + offset, -1))
            threads.append(np.full(n, buf.thread % (1 << 31), dtype=np.int64))
            offset += n
        cat = lambda parts, dt: np.concatenate(parts) if parts else np.zeros(0, dt)
        with open(path, "wb") as fh:
            np.savez(fh, name=cat(names, np.int32), start=cat(starts, np.float64),
                     end=cat(ends, np.float64), parent=cat(parents, np.int64),
                     thread=cat(threads, np.int64), names=np.array(self.names, dtype=str),
                     counters=np.array(json.dumps(self.counters)))


def _replace_everywhere(orig, wrapped) -> None:
    """Point every distillforge module attribute that holds ``orig`` at ``wrapped``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "distillforge" or mod_name.startswith("distillforge.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def _public_functions(module, layer: str):
    names = list(getattr(module, "__all__", ()))
    if layer == "cli":
        names += [n for n in vars(module) if n.startswith("cmd_")]
    for name in names:
        obj = getattr(module, name, None)
        if (name not in UNWRAPPED and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions, plus the three special sites."""
    import importlib

    mods = {layer: importlib.import_module(f"distillforge.{layer}") for layer in LAYERS}
    for layer, module in mods.items():
        for name, fn in _public_functions(module, layer):
            span = f"cli.{name[4:]}" if name.startswith("cmd_") else f"{layer}.{name}"
            _replace_everywhere(fn, tracer.wrap(fn, tracer.name_id(span)))

    for module, name, counter in ((mods["nets"], "save_network", "nets.ckpt_bytes"),
                                  (mods["data"], "save_dataset", "data.dataset_bytes")):
        inner = getattr(module, name)

        def counting(obj, path, _inner=inner, _counter=counter):
            _inner(obj, path)
            tracer.count(_counter, os.path.getsize(path))

        _replace_everywhere(inner, functools.wraps(inner)(counting))

    network = mods["nets"].Network
    forward = network.forward
    active_tape = mods["tensor"].active_tape
    taped = tracer.wrap(forward, tracer.name_id("nets.forward_taped"))
    const = tracer.wrap(forward, tracer.name_id("nets.forward_const"))

    def traced_forward(self, batch):
        return (taped if active_tape() is not None else const)(self, batch)

    network.forward = functools.wraps(forward)(traced_forward)

    tape = mods["tensor"].Tape
    record = tape.record
    bwd_ids: dict[int, int] = {}

    def traced_record(self, out, backward_fn):
        op = tracer.current()
        if op not in bwd_ids:
            bwd_ids[op] = tracer.name_id(
                (tracer.names[op] if op >= 0 else "tensor.unknown") + ".bwd")
        return record(self, out, tracer.wrap(backward_fn, bwd_ids[op]))

    tape.record = functools.wraps(record)(traced_record)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.npz -- <distillforge arguments>", file=sys.stderr)
        return 1
    out_path, cli_args = argv[1], argv[3:]
    tracer = Tracer()
    t0 = _now()
    import distillforge.cli as cli
    tracer.add_span(tracer.name_id("cli.import"), t0, _now())
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
