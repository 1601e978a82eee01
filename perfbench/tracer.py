"""Outside-in tracer for the cyclewall layers.

Wraps the public functions of each layer module in every ``cyclewall``
namespace that holds them (modules import names such as ``mul`` directly, so
``walls.mul`` and ``davis.coset_rep`` need their own wrapper), keeps a stack of
active calls to split inclusive time into self time, counts calls, raised
exceptions and distinct arguments, and records spans for suite- and
audit-level calls.  Everything stays in memory until ``export``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from pathlib import Path

LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"
PACKAGE = "cyclewall"


def load_layers() -> dict:
    with open(LAYERS_FILE) as fh:
        return json.load(fh)


def _namespaces() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def replace_everywhere(original, replacement) -> list:
    """Point every cyclewall module attribute bound to ``original`` at
    ``replacement``; returns the patches for ``restore``."""
    patches = []
    for module in _namespaces():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patches.append((module, attr, original))
    return patches


def restore(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def _arg_key(arg):
    if type(arg).__name__ == "ComplexBall":
        return ("ball", arg.presentation, arg.radius, arg.form)
    try:
        hash(arg)
    except TypeError:
        return ("id", id(arg))
    return arg


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "raised", "keys")

    def __init__(self, keyed: bool):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.raised = 0
        self.keys = set() if keyed else None


class Tracer:
    def __init__(self, run_id: str, clock):
        self.run_id = run_id
        self.clock = clock
        self.spec = load_layers()
        self.stats: dict[str, _Stat] = {}
        self.spans: list[list] = []
        self._stack: list[list] = []   # [callee time, span index or None]
        self._patches: list = []

    def _targets(self):
        """(metric prefix, owner, attribute, function) for everything wrapped."""
        for layer, entry in self.spec["layers"].items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    yield f"{layer}.{attr}", None, attr, fn
            for dotted in entry["functions"]:
                if "." in dotted:
                    cls_name, meth = dotted.split(".")
                    cls = getattr(module, cls_name)
                    yield f"{layer}.{meth}", cls, meth, getattr(cls, meth)

    def install(self) -> None:
        keyed = {f"{layer}.{fn}" for layer, entry in self.spec["layers"].items()
                 for fn, stats in entry["functions"].items()
                 if "distinct_ratio" in stats}
        for name, owner, attr, fn in self._targets():
            wrapper = self._wrap(name, fn, name in keyed, self._spanned(attr))
            if owner is None:
                self._patches += replace_everywhere(fn, wrapper)
            else:
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, fn))

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches = []

    def _spanned(self, attr: str) -> bool:
        return attr in self.spec["spans"] or attr.endswith(
            tuple(self.spec["span_suffixes"]))

    def _wrap(self, name, fn, keyed, spanned):
        stat = self.stats.setdefault(name, _Stat(keyed))
        stack, spans, clock = self._stack, self.spans, self.clock

        def wrapper(*args, **kwargs):
            if keyed:
                stat.keys.add(tuple(map(_arg_key, args)) + tuple(
                    (k, _arg_key(v)) for k, v in sorted(kwargs.items())))
            span = None
            if spanned:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None),
                              None)
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.run_id])
            frame = [0.0, span]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span is not None:
                    spans[span][1:3] = [t0, t1]

        wrapper.__wrapped__ = fn
        return wrapper

    def export(self) -> dict:
        return {name: {"calls": s.calls, "self_s": s.self_s,
                       "total_s": s.total_s, "raised": s.raised,
                       "distinct": None if s.keys is None else len(s.keys)}
                for name, s in self.stats.items()}


def metric_names(spec: dict) -> list[tuple[str, str]]:
    """(name, stat) of every per-layer metric, in report order."""
    out = []
    for layer, entry in spec["layers"].items():
        for dotted, stats in entry["functions"].items():
            fn = dotted.split(".")[-1]
            out += [(f"{layer}.{fn}.{stat}", stat) for stat in stats]
        if entry["self_s"]:
            out.append((f"{layer}.self_s", "self_s"))
    return out


def unit_of(stat: str) -> str:
    if stat.endswith("_s"):
        return "s"
    return "ratio" if stat == "distinct_ratio" else "count"


def layer_metrics(spec: dict, exports: list[dict]) -> dict:
    """Sum per-process exports and turn them into named per-layer metrics."""
    total: dict[str, dict] = {}
    for export in exports:
        for name, s in export.items():
            acc = total.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "total_s": 0.0, "raised": 0,
                                          "distinct": 0})
            for key in ("calls", "self_s", "total_s", "raised"):
                acc[key] += s[key]
            acc["distinct"] += s["distinct"] or 0
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "raised": 0, "distinct": 0}
    out = {}
    for name, stat in metric_names(spec):
        if name.count(".") == 1:
            layer = name.split(".")[0]
            value = sum(s["self_s"] for fn, s in total.items()
                        if fn.split(".")[0] == layer)
        else:
            s = total.get(name.rsplit(".", 1)[0], zero)
            if stat == "distinct_ratio":
                value = s["distinct"] / s["calls"] if s["calls"] else 0.0
            elif stat in ("calls", "self_s", "total_s"):
                value = s[stat]
            else:
                value = s["raised"]
        out[name] = {"value": value, "unit": unit_of(stat)}
    return out
