"""Where set-up goes in a fresh interpreter: compiling, executing, load_problem.

    python tests/setup_profile.py FIXTURE.json P PREC

Imports affine_chabauty and affine_chabauty.cli and loads FIXTURE at P and
PREC, as one CLI run does before its first integral.  Prints, per package
module, the milliseconds spent compiling its source (none if a bytecode cache
was read) and executing its body (class and function creation, module
constants; the imports it triggers are counted with their own modules), then
the totals and the load_problem time.  Run it with PYTHONDONTWRITEBYTECODE=1 to
see what an uncached run pays.

Exits 1 if the import pulled in dataclasses or inspect, or left a dataclass or
namedtuple class in a package module: each is a class factory that runs on
every import.
"""

import importlib.machinery
import sys
import time

PACKAGE = "affine_chabauty"

compile_ms, exec_ms = {}, {}  # module -> ms, over every module imported from source
_stack = []                   # [module name, ms of its nested imports and compile]


def _timed_compile(self, data, path, *args, **kw):
    t = time.perf_counter()
    try:
        return _source_to_code(self, data, path, *args, **kw)
    finally:
        ms = (time.perf_counter() - t) * 1e3
        compile_ms[self.name] = compile_ms.get(self.name, 0.0) + ms
        if _stack:
            _stack[-1][1] += ms


def _timed_exec(self, module):
    _stack.append([module.__name__, 0.0])
    t = time.perf_counter()
    try:
        return _exec_module(self, module)
    finally:
        total = (time.perf_counter() - t) * 1e3
        name, inner = _stack.pop()
        exec_ms[name] = total - inner
        if _stack:
            _stack[-1][1] += total


loader = importlib.machinery.SourceFileLoader
_source_to_code, _exec_module = loader.source_to_code, loader.exec_module
loader.source_to_code, loader.exec_module = _timed_compile, _timed_exec


def factories() -> list:
    """The class factories that the import left behind."""
    found = [name for name in ("dataclasses", "inspect") if name in sys.modules]
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == name and (
                    hasattr(obj, "__dataclass_fields__")
                    or issubclass(obj, tuple) and hasattr(obj, "_fields")):
                found.append(f"{name}.{obj.__name__}")
    return found


def main(argv) -> int:
    path, p, prec = argv[0], int(argv[1]), int(argv[2])
    t = time.perf_counter()
    import affine_chabauty
    import affine_chabauty.cli  # noqa: F401
    import_ms = (time.perf_counter() - t) * 1e3
    loader.source_to_code, loader.exec_module = _source_to_code, _exec_module
    t = time.perf_counter()
    affine_chabauty.load_problem(path, p_override=p, prec_override=prec)
    load_ms = (time.perf_counter() - t) * 1e3

    ours = sorted(m for m in exec_ms if m == PACKAGE or m.startswith(PACKAGE + "."))
    print(f"{path} p = {p} prec {prec}, Python {sys.version.split()[0]}")
    print(f"  {'module':32s} {'compile ms':>10s} {'exec ms':>8s}")
    for m in ours:
        print(f"  {m:32s} {compile_ms.get(m, 0.0):10.2f} {exec_ms[m]:8.2f}")
    others = [m for m in exec_ms if m not in ours]
    print(f"  {'package total':32s} {sum(compile_ms.get(m, 0.0) for m in ours):10.2f} "
          f"{sum(exec_ms[m] for m in ours):8.2f}")
    print(f"  {f'other modules ({len(others)})':32s} "
          f"{sum(compile_ms.get(m, 0.0) for m in others):10.2f} "
          f"{sum(exec_ms[m] for m in others):8.2f}")
    print(f"  import {import_ms:.2f} ms, load_problem {load_ms:.2f} ms")
    found = factories()
    if found:
        print("  class factories at import: " + ", ".join(found))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
