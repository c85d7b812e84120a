"""List every defaulted parameter of the package's public callables.

    PYTHONPATH=src python tools/settable_values.py

For each module of riggedframes and each callable named in its ``__all__``
(functions, and classes through their constructor, so a dataclass counts
each defaulted field), prints one ``module.name.param=default`` line per
parameter with a default, sorted, and then ``total: K``.  The package's own
``__init__`` only re-exports and is skipped.  Each line is a value a caller
can set without being made to; the total is the count to hold down.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys

import riggedframes


def settable_values():
    """Sorted ``module.name.param=default`` lines over every module's __all__."""
    lines = []
    for info in pkgutil.iter_modules(riggedframes.__path__):
        module = importlib.import_module(f"riggedframes.{info.name}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if not callable(value):
                continue
            lines.extend(
                f"{info.name}.{name}.{p.name}={p.default!r}"
                for p in inspect.signature(value).parameters.values()
                if p.default is not inspect.Parameter.empty
            )
    return sorted(lines)


def main():
    lines = settable_values()
    for line in lines:
        print(line)
    print(f"total: {len(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
