"""Tests for the package as a whole: what a fresh import leaves behind."""

import os
import subprocess
import sys

import latile

# Imports latile and latile.cli three times from scratch, as a benchmark set-up
# does, keeping a weak reference to one function of every latile module of the
# first copy; prints the modules whose function outlives gc.collect().
_REIMPORT = """
import gc, importlib, inspect, sys, weakref

def fresh_import():
    for name in [m for m in sys.modules if m == "latile" or m.startswith("latile.")]:
        del sys.modules[name]
    importlib.import_module("latile")
    importlib.import_module("latile.cli")

fresh_import()
refs = {}
for name, module in list(sys.modules.items()):
    if name.startswith("latile."):
        functions = [
            f for _, f in inspect.getmembers(module, inspect.isfunction)
            if f.__module__ == name
        ]
        refs[name] = weakref.ref(functions[0])
# the loop's names would keep the first copy alive
del name, module, functions
fresh_import()
fresh_import()
gc.collect()
print(" ".join(sorted(refs)))
print(" ".join(sorted(name for name, ref in refs.items() if ref() is not None)))
"""


def test_a_fresh_import_frees_every_module_of_the_one_before():
    # A typing subscription that names a latile class (Optional[SomeClass],
    # Union[SomeClass, ...], Iterable[SomeClass]) stays in typing's cache, and
    # through the class keeps its whole module copy alive after a re-import.
    src = os.path.dirname(os.path.dirname(latile.__file__))
    result = subprocess.run(
        [sys.executable, "-c", _REIMPORT], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    modules, alive = (result.stdout.split("\n") + [""])[:2]
    every = sorted(
        f"latile.{file[:-3]}"
        for file in os.listdir(os.path.dirname(latile.__file__))
        if file.endswith(".py") and file not in ("__init__.py", "__main__.py")
    )
    assert modules.split() == every
    assert alive.split() == []
