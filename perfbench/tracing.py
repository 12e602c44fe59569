"""Spans around ryserlab's public functions, installed by rebinding at run time.

Each traced function is replaced, in every ryserlab module that holds it, by a
wrapper that records a span (name, parent span, start, end).  Spans stay in
memory until the pass ends; self time is a span's duration minus the spans
opened directly inside it.  ryserlab itself is not edited.
"""

from __future__ import annotations

import builtins
import json
import sys
import time
from array import array

# metric prefix -> (module, attribute); "Class.method" names a classmethod
LAYERS = {
    "core.build": ("ryserlab.core", "ColoredMultigraph.from_edges"),
    "core.components": ("ryserlab.core", "components"),
    "core.closure": ("ryserlab.core", "closure"),
    "core.diameter": ("ryserlab.core", "diameter"),
    "core.alpha": ("ryserlab.core", "alpha"),
    "core.verify": ("ryserlab.core", "verify"),
    "exact.hunt": ("ryserlab.exact", "hunt"),
    "exact.tc_exact": ("ryserlab.exact", "tc_exact"),
    "exact.tp_exact": ("ryserlab.exact", "tp_exact"),
    "signatures.enumerate_signatures": ("ryserlab.signatures", "enumerate_signatures"),
    "signatures.is_valid": ("ryserlab.signatures", "is_valid"),
    "signatures.residual_cases": ("ryserlab.signatures", "residual_cases"),
    "goodpart.z_exact": ("ryserlab.goodpart", "z_exact"),
    "goodpart.covers_all": ("ryserlab.goodpart", "covers_all"),
    "goodpart.gamma_t_check": ("ryserlab.goodpart", "gamma_t_check"),
    "highs.milp": ("scipy.optimize", "milp"),
    "constructive.cover_complete": ("ryserlab.constructive", "cover_complete"),
    "constructive.cover_bipartite3": ("ryserlab.constructive", "cover_bipartite3"),
    "constructive.restricted_cover": ("ryserlab.constructive", "restricted_cover"),
}


class Tracer:
    """Spans in flat arrays (name index, parent span or -1, start, end).

    Arrays hold no Python objects, so a long trace adds nothing for the
    garbage collector to traverse while the traced code allocates.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_of.append(self._name_index(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        traced.__wrapped__ = fn
        return traced

    # -- installation

    def install(self):
        """Rebind every LAYERS function wherever a ryserlab module imported it."""
        for name, (modname, attr) in LAYERS.items():
            if modname == "scipy.optimize":
                self._install_milp(name)
                continue
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self.wrap(name, fn)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "ryserlab":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _install_milp(self, name):
        """Wrap scipy.optimize.milp once scipy.optimize is imported.

        ryserlab imports scipy lazily inside the MILP path, and that import is
        part of what a user pays; importing it here would move it out of the
        traced pass.  The hook rebinds milp the first time it exists.
        """
        real_import = builtins.__import__
        done = False

        def patch():
            nonlocal done
            opt = sys.modules.get("scipy.optimize")
            if done or opt is None or not hasattr(opt, "milp"):
                return done
            opt.milp = self.wrap(name, opt.milp)
            builtins.__import__ = real_import
            done = True
            return True

        def hooked(*args, **kwargs):
            mod = real_import(*args, **kwargs)
            patch()  # outer imports still on the stack return here too
            return mod

        if not patch():
            builtins.__import__ = hooked

    # -- results

    def summary(self) -> dict[str, list]:
        """name -> [calls, self seconds] over every closed span."""
        child = [0.0] * len(self.start)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out: dict[str, list] = {}
        for sid, idx in enumerate(self.name_of):
            agg = out.setdefault(self.names[idx], [0, 0.0])
            agg[0] += 1
            agg[1] += (self.end[sid] - self.start[sid]) - child[sid]
        return out

    def dump(self, path: str):
        """Write the spans as JSON: names plus parallel arrays, one entry a span."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name_of.tolist(),
                       "parent": self.parent.tolist(), "start": self.start.tolist(),
                       "end": self.end.tolist()}, fh)
