"""Every public name of the library has a caller outside the tests.

A name in ``lastiter.__all__`` counts as used when it occurs as a word in a
Python file under ``src/lastiter`` (but ``__init__.py``, which only
re-exports), ``scripts/`` or ``perfbench/``, other than where it is defined.
A public method or property of a class defined in ``src/lastiter`` counts
as used when it is read as an attribute, ``.name``, in the code of those
files; strings and comments do not count.  For a public name a docstring
mention counts: perfbench says that it runs ``simulate_chain_sgd`` and
``path_via_engine`` inline, to hand the engine a timing proxy of the oracle."""

import inspect
import re
import tokenize
from pathlib import Path

import lastiter
from lastiter import cli, constructions, engine, nearly_linear, walk

ROOT = Path(__file__).resolve().parents[1]


def _caller_files() -> list[Path]:
    files = [*(ROOT / "src" / "lastiter").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    return [p for p in sorted(files) if p.name != "__init__.py"]


def _attributes_read(path: Path) -> set[str]:
    """Names that follow a ``.`` operator in the code of a file; a string or
    a comment is one token, so the text inside it never counts."""
    with tokenize.open(path) as fh:
        tokens = list(tokenize.generate_tokens(fh.readline))
    return {b.string for a, b in zip(tokens, tokens[1:])
            if a.type == tokenize.OP and a.string == "." and b.type == tokenize.NAME}


def test_every_public_name_has_a_caller_outside_the_tests():
    text = "\n".join(p.read_text() for p in _caller_files())
    attributes = set().union(*map(_attributes_read, _caller_files()))
    unused = []
    for name in lastiter.__all__:
        uses = len(re.findall(rf"\b{name}\b", text))
        definitions = len(re.findall(rf"(?m)^(?:def |class ){name}\b|^{name} =", text))
        if uses <= definitions:
            unused.append(name)
    for module in (engine, constructions, walk, nearly_linear, cli):
        for cname, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue
            for attr, member in vars(cls).items():
                public = not attr.startswith("_")
                if (public and (inspect.isfunction(member) or isinstance(member, property))
                        and attr not in attributes):
                    unused.append(f"{cname}.{attr}")
    assert not unused, f"public names with no caller outside tests/: {unused}"
