"""Every name ``perfbench/tracer.py`` wraps resolves after ``import
hopfdual.cli`` alone, as the benchmark's traced runs find them: a module
that is renamed, moved or imported lazily, or a function or method that
leaves its module, fails here rather than in a traced benchmark run."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import hopfdual

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import json, sys
import hopfdual.cli
spans, ops = json.loads(sys.argv[1])
missing = []
for mod, attr, _ in spans:
    module = sys.modules.get("hopfdual." + mod)
    if module is None:
        missing.append(f"hopfdual.{mod} not imported")
        continue
    # a dotted attribute is a method of a class in the module
    cls, _, name = attr.rpartition(".")
    holder = getattr(module, cls, None) if cls else module
    if cls and not isinstance(holder, type) \\
            or not callable(getattr(holder, name, None)):
        missing.append(f"hopfdual.{mod}.{attr}")
polys = sys.modules.get("hopfdual.polys")
if not callable(getattr(polys, "divmod_poly", None)):
    missing.append("hopfdual.polys.divmod_poly")
field = getattr(sys.modules.get("hopfdual.exact"), "FieldSpec", None)
missing += [f"FieldSpec.{op}" for op in ops
            if not callable(getattr(field, op, None))]
print(json.dumps(missing))
"""


def tracer_constant(name):
    """The literal value of a module-level constant of the tracer, read
    without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(
        encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_scalar_ops_are_the_field_operations():
    assert tracer_constant("SCALAR_OPS") == ("add", "sub", "neg", "mul",
                                             "inv")


def test_every_traced_name_resolves_after_importing_the_cli():
    spans = tracer_constant("SPANS")
    assert spans and {mod for mod, _, _ in spans} >= {"exact", "lie", "cli"}
    env = dict(os.environ)
    src = str(Path(hopfdual.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHECK,
         json.dumps([spans, tracer_constant("SCALAR_OPS")])],
        capture_output=True, text=True, check=False, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
