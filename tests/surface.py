"""Public surface of the package: line counts and public parameters.

    PYTHONPATH=src python tests/surface.py

Prints `wc -l` of each module under src/orbitflow and the total, then the
public parameter count and the callables it is spread over, per module and
in total.  The rule, read with `inspect` over the nine modules (every one but
`__init__`):

* a public callable is a function or class whose name does not start with an
  underscore and that is defined in the module itself (an imported name is
  counted where it is defined);
* a public function counts its parameters;
* a public class counts as one callable with its dataclass fields, if it is
  a dataclass, and each public method in its body (a plain, static or class
  method, or an `__init__` the class writes itself rather than one that
  `dataclass` generates) counts as one more callable with its parameters
  other than `self` and `cls`;
* properties, other dunder methods and module-level constants are not
  counted.

By this rule the tree before `LieBasis` was removed read 3188 lines and 321
parameters in 144 callables.
"""

import dataclasses
import importlib
import inspect
from pathlib import Path

import orbitflow

MODULES = ("matcore", "geom", "sde", "processes", "ensembles", "control",
           "reporting", "verify", "cli")
SRC = Path(orbitflow.__file__).resolve().parent


def _params(fn) -> int:
    return sum(1 for name in inspect.signature(fn).parameters if name not in ("self", "cls"))


def surface(module) -> tuple[int, int]:
    """(parameters, callables) of the module's public names, by the rule above."""
    params = callables = 0
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            params, callables = params + _params(obj), callables + 1
        elif inspect.isclass(obj):
            callables += 1
            written_init = not dataclasses.is_dataclass(obj)
            if not written_init:
                params += len(dataclasses.fields(obj))
            for attr, member in vars(obj).items():
                if attr.startswith("_") and not (written_init and attr == "__init__"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    params, callables = params + _params(member), callables + 1
    return params, callables


def main() -> None:
    files = sorted(SRC.glob("*.py"))
    lines = {f.name: len(f.read_text().splitlines()) for f in files}
    for name, count in lines.items():
        print(f"{count:>6} src/orbitflow/{name}")
    print(f"{sum(lines.values()):>6} total")
    total_p = total_c = 0
    for mod in MODULES:
        p, c = surface(importlib.import_module(f"orbitflow.{mod}"))
        total_p, total_c = total_p + p, total_c + c
        print(f"{p:>6} parameters in {c:>3} callables  orbitflow.{mod}")
    print(f"{total_p:>6} parameters in {total_c:>3} callables  total")


if __name__ == "__main__":
    main()
