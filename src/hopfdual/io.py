"""File formats (UTF-8 JSON) for bialgebras, monoids, representations, Lie
algebras and matrices, plus the byte-level canonicalizer used for
round-trip testing.

Scalar strings follow the exact serialization rules: rationals as "a/b"
with positive reduced denominator ("a" for integers), prime-field elements
as decimals in [0, p). Matrices are read by ``Matrix.parse``, which over Q
takes strings in that form straight to int rows; any other string
``Fraction`` accepts ("1.5", "+3", "1e2") is still read, through
``Fraction``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .bialgebra import FinBialgebra
from .exact import FieldSpec, Matrix
from .lie import LieAlgebra
from .monoids import FiniteAbelianGroup, FiniteMonoid
from .reps import Representation


class FileFormatError(ValueError):
    """Malformed input file; the message carries the position when known."""


def _fail(path, msg):
    raise FileFormatError(f"{path}: {msg}")


def _integer(path, value, what: str, rule="must be an integer") -> int:
    """An integer the file gives: what ``int`` reads, except a bool or a
    number with a fractional part, which fail as "{what} {rule}"."""
    if type(value) is int:
        return value
    if type(value) is bool or (type(value) is float
                               and not value.is_integer()):
        _fail(path, f"{what} {rule}")
    try:
        return int(value)
    except (TypeError, ValueError):
        _fail(path, f"{what} {rule}")


def _integers(path, values, what: str) -> tuple:
    """A list of integers the file gives, each read by :func:`_integer`."""
    if not isinstance(values, list):
        _fail(path, f"{what} must be a list of integers")
    return tuple(_integer(path, x, f"{what}[{pos}]")
                 for pos, x in enumerate(values))


def field_to_json(field: FieldSpec) -> dict:
    if field.p is None:
        return {"kind": "Rationals"}
    return {"kind": "PrimeField", "p": field.p}


def field_from_json(obj, path="<field>") -> FieldSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        _fail(path, "field must be an object with a 'kind'")
    if obj["kind"] == "Rationals":
        return FieldSpec.rationals()
    if obj["kind"] == "PrimeField":
        p = _integer(path, obj.get("p"), "field p")
        try:
            return FieldSpec.prime(p)
        except ValueError as exc:
            _fail(path, f"bad field spec: {exc}")
    _fail(path, f"unknown field kind {obj['kind']!r}")


# While ``cli.main`` runs a command, the bytes ``_load_json`` parsed from
# each of the command's input files, keyed by ``str(path)``. None
# otherwise, so a library call keeps nothing.
read_record = None


def _load_json(path):
    """The JSON document in a UTF-8 file. The file is read once, as bytes;
    the text is what text-mode reading gives (``\\r\\n`` and a lone ``\\r``
    become ``\\n``), so error positions are the same."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if read_record is not None:
        read_record[str(path)] = data
    return obj


_string = json.encoder.encode_basestring
_literal = {None: "null", False: "false", True: "true"}.__getitem__
# The leaves of a canonical document, by exact type (bool is not int here).
_LEAVES = {str: _string, int: int.__repr__, bool: _literal,
           type(None): _literal}


def _encode(obj, newline: str) -> str:
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = newline + " "
    # a leaf item is written in place, without a call of its own
    if type(obj) is dict:
        if not obj:
            return "{}"
        items = sorted(obj.items())
        if not all(type(k) is str for k, _ in items):
            raise TypeError("canonical JSON keys must be str")
        parts = [_string(k) + ": " + (_LEAVES[type(v)](v) if type(v) in _LEAVES
                                      else _encode(v, inner))
                 for k, v in items]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if type(obj) is list or type(obj) is tuple:
        if not obj:
            return "[]"
        parts = [_LEAVES[type(x)](x) if type(x) in _LEAVES
                 else _encode(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    raise TypeError(f"no canonical JSON form for {type(obj).__name__}")


def canonical_json(obj) -> str:
    """The canonical JSON text of obj, which reports and definition files
    share: exactly ``json.dumps(obj, ensure_ascii=False, sort_keys=True,
    indent=1)``, for dicts with str keys, lists and tuples of str, int,
    bool and None. Any other value (a float, a non-str key) raises
    TypeError rather than coming out differently. ``json`` drops to its
    pure-Python encoder whenever ``indent`` is set; this writes each leaf
    item in place, at about 60% of its cost."""
    return _encode(obj, "\n")


def dump_canonical(obj) -> str:
    """:func:`canonical_json` of a definition file, with its final
    newline."""
    return canonical_json(obj) + "\n"


# -- bialgebra files -------------------------------------------------------------

def bialgebra_to_json(A: FinBialgebra) -> dict:
    f = A.field
    out = {"field": field_to_json(f), "dim": A.dim, "basis": list(A.basis)}
    if A.has_algebra:
        out["mult"] = [[i, j, k, f.format(c)]
                       for (i, j, k), c in sorted(A.mult.items())]
        out["unit"] = [f.format(c) for c in A.unit]
    if A.has_coalgebra:
        out["comult"] = [[k, i, j, f.format(c)]
                         for (k, i, j), c in sorted(A.comult.items())]
        out["counit"] = [f.format(c) for c in A.counit]
    if A.has_antipode:
        out["antipode"] = [[f.format(c) for c in row]
                           for row in A.antipode.entries]
    return out


def _parse_tensor(field, rows, dim, path, label):
    out = {}
    if not isinstance(rows, list):
        _fail(path, f"{label} must be a list of [i, j, k, coeff] entries")
    for pos, entry in enumerate(rows):
        if not (isinstance(entry, list) and len(entry) == 4):
            _fail(path, f"{label}[{pos}]: expected [i, j, k, coeff]")
        i, j, k, c = entry
        key = (i, j, k)
        if not type(i) is type(j) is type(k) is int:
            key = tuple(_integer(path, t, f"{label}[{pos}]: indices",
                                 "must be integers") for t in key)
        try:
            value = field.parse(str(c))
        except ValueError as exc:
            _fail(path, f"{label}[{pos}]: {exc}")
        if not all(0 <= t < dim for t in key):
            _fail(path, f"{label}[{pos}]: index out of range for dim {dim}")
        # summed raw and reduced once per key, as bialgebra.sparse_sum does
        out[key] = out.get(key, 0) + value
    return {key: field.canonical(s) for key, s in out.items()}


def _rows(data, path, label) -> list:
    """data, which must be a list of lists, as the rows of a matrix."""
    if not (isinstance(data, list)
            and all(isinstance(row, list) for row in data)):
        _fail(path, f"{label} must be a list of rows, each a list of "
                    "scalars")
    return data


def _parse_vector(field, data, dim, path, label):
    if not (isinstance(data, list) and len(data) == dim):
        _fail(path, f"{label} must be a list of {dim} scalars")
    try:
        return tuple(field.parse(str(c)) for c in data)
    except ValueError as exc:
        _fail(path, f"{label}: {exc}")


def bialgebra_from_json(obj, path="<bialgebra>") -> FinBialgebra:
    if not isinstance(obj, dict):
        _fail(path, "top level must be an object")
    for key in ("field", "dim"):
        if key not in obj:
            _fail(path, f"missing {key!r}")
    field = field_from_json(obj["field"], path)
    dim = _integer(path, obj["dim"], "dim")
    basis = obj.get("basis") or [f"e{i}" for i in range(dim)]
    if not isinstance(basis, list):
        _fail(path, "basis must be a list of names")
    if len(basis) != dim:
        _fail(path, f"basis has {len(basis)} names for dim {dim}")
    mult = unit = comult = counit = antipode = None
    if "mult" in obj or "unit" in obj:
        if "mult" not in obj or "unit" not in obj:
            _fail(path, "mult and unit must appear together")
        mult = _parse_tensor(field, obj["mult"], dim, path, "mult")
        unit = _parse_vector(field, obj["unit"], dim, path, "unit")
    if "comult" in obj or "counit" in obj:
        if "comult" not in obj or "counit" not in obj:
            _fail(path, "comult and counit must appear together")
        comult = _parse_tensor(field, obj["comult"], dim, path, "comult")
        counit = _parse_vector(field, obj["counit"], dim, path, "counit")
    if "antipode" in obj:
        rows = obj["antipode"]
        if not (isinstance(rows, list) and len(rows) == dim):
            _fail(path, f"antipode must be a {dim}x{dim} matrix")
        try:
            antipode = Matrix.parse(field, rows)
        except ValueError as exc:
            _fail(path, f"antipode: {exc}")
        if antipode.cols != dim:
            _fail(path, f"antipode must be a {dim}x{dim} matrix")
    try:
        return FinBialgebra(field, dim, basis, mult, unit, comult, counit,
                            antipode)
    except ValueError as exc:
        _fail(path, str(exc))


def load_bialgebra(path) -> FinBialgebra:
    return bialgebra_from_json(_load_json(path), str(path))


def save_bialgebra(A: FinBialgebra, path) -> None:
    Path(path).write_text(dump_canonical(bialgebra_to_json(A)),
                          encoding="utf-8")


# -- monoid files ----------------------------------------------------------------

def monoid_to_json(G: FiniteMonoid) -> dict:
    return {"elements": list(G.names), "table": [list(r) for r in G.table],
            "unit": G.unit}


def monoid_from_json(obj, path="<monoid>") -> FiniteMonoid:
    if not isinstance(obj, dict):
        _fail(path, "top level must be an object")
    if "invariant_factors" in obj:
        factors = _integers(path, obj["invariant_factors"],
                            "invariant_factors")
        try:
            group = FiniteAbelianGroup(factors)
        except ValueError as exc:
            _fail(path, f"invariant_factors: {exc}")
        return group.to_monoid()
    for key in ("elements", "table", "unit"):
        if key not in obj:
            _fail(path, f"missing {key!r}")
    unit = _integer(path, obj["unit"], "unit")
    try:
        return FiniteMonoid(obj["elements"], obj["table"], unit)
    except (TypeError, ValueError) as exc:
        _fail(path, str(exc))


def load_monoid(path) -> FiniteMonoid:
    return monoid_from_json(_load_json(path), str(path))


# -- representation files --------------------------------------------------------

def representation_to_json(rho: Representation) -> dict:
    f = rho.field
    return {
        "field": field_to_json(f),
        "monoid": monoid_to_json(rho.monoid),
        "dim": rho.dim,
        "matrices": {rho.monoid.names[g]:
                     [[f.format(c) for c in row]
                      for row in rho.action(g).entries]
                     for g in range(rho.monoid.size)},
    }


def representation_from_json(obj, path="<representation>",
                             base_dir=None) -> Representation:
    if not isinstance(obj, dict):
        _fail(path, "top level must be an object")
    for key in ("monoid", "dim", "matrices"):
        if key not in obj:
            _fail(path, f"missing {key!r}")
    field = field_from_json(obj.get("field", {"kind": "Rationals"}), path)
    monoid_spec = obj["monoid"]
    if isinstance(monoid_spec, str):
        monoid = load_monoid(resolve_reference(monoid_spec, base_dir))
    else:
        monoid = monoid_from_json(monoid_spec, path)
    dim = _integer(path, obj["dim"], "dim")
    mats = obj["matrices"]
    if not isinstance(mats, dict):
        _fail(path, "matrices must map element names to matrices")
    matrices = []
    for name in monoid.names:
        if name not in mats:
            _fail(path, f"missing action matrix for element {name!r}")
        rows = _rows(mats[name], path, f"matrix for {name!r}")
        if len(rows) != dim:
            _fail(path, f"matrix for {name!r} must be {dim}x{dim}")
        try:
            m = Matrix.parse(field, rows)
        except ValueError as exc:
            _fail(path, f"matrix for {name!r}: {exc}")
        if m.cols != dim:
            _fail(path, f"matrix for {name!r} must be {dim}x{dim}")
        matrices.append(m)
    try:
        return Representation(monoid, field, matrices)
    except ValueError as exc:
        _fail(path, str(exc))


def load_representation(path) -> Representation:
    return representation_from_json(_load_json(path), str(path),
                                    base_dir=Path(path).parent)


def save_representation(rho: Representation, path) -> None:
    Path(path).write_text(dump_canonical(representation_to_json(rho)),
                          encoding="utf-8")


# -- Lie algebra files -----------------------------------------------------------

def lie_to_json(L: LieAlgebra) -> dict:
    f = L.field
    brackets = []
    for (i, j), entry in sorted(L.brackets.items()):
        brackets.append([i, j, [[k, f.format(c)]
                                for k, c in sorted(entry.items())]])
    return {"field": field_to_json(f), "dim": L.dim,
            "basis": list(L.names), "brackets": brackets}


def lie_from_json(obj, path="<lie>") -> LieAlgebra:
    if not isinstance(obj, dict):
        _fail(path, "top level must be an object")
    for key in ("dim", "basis", "brackets"):
        if key not in obj:
            _fail(path, f"missing {key!r}")
    field = field_from_json(obj.get("field", {"kind": "Rationals"}), path)
    dim = _integer(path, obj["dim"], "dim")
    names = obj["basis"]
    if not isinstance(names, list):
        _fail(path, "basis must be a list of names")
    if len(names) != dim:
        _fail(path, "basis size disagrees with dim")
    if not isinstance(obj["brackets"], list):
        _fail(path, "brackets must be a list of [i, j, [[k, coeff]..]] "
                    "entries")
    brackets = {}
    for pos, entry in enumerate(obj["brackets"]):
        if not (isinstance(entry, list) and len(entry) == 3):
            _fail(path, f"brackets[{pos}]: expected [i, j, [[k, coeff]..]]")
        *key, values = entry
        what = f"brackets[{pos}]: indices"
        key = tuple(_integer(path, t, what, "must be integers") for t in key)
        try:
            values = [(k, field.parse(str(c))) for k, c in values]
        except (TypeError, ValueError) as exc:
            _fail(path, f"brackets[{pos}]: {exc}")
        brackets[key] = {_integer(path, k, what, "must be integers"): c
                         for k, c in values}
    try:
        return LieAlgebra(field, names, brackets)
    except ValueError as exc:
        _fail(path, str(exc))


def load_lie(path) -> LieAlgebra:
    return lie_from_json(_load_json(path), str(path))


# -- matrix files ----------------------------------------------------------------

def load_matrix(path) -> Matrix:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "matrix" not in obj:
        _fail(str(path), "expected an object with a 'matrix'")
    field = field_from_json(obj.get("field", {"kind": "Rationals"}),
                            str(path))
    rows = _rows(obj["matrix"], str(path), "matrix")
    try:
        return Matrix.parse(field, rows)
    except ValueError as exc:
        _fail(str(path), str(exc))


# -- subspace files --------------------------------------------------------------

def load_subspace(path, field: FieldSpec, dim: int) -> list:
    """The spanning vectors of a subspace file, ``{"subspace": [[...]]}``,
    of F^dim, as tuples of scalars of the given field; a vector of
    another length is an error that names the file and the vector."""
    obj = _load_json(path)
    if not isinstance(obj, dict) or "subspace" not in obj:
        _fail(str(path), "expected an object with 'subspace'")
    rows = _rows(obj["subspace"], str(path), "subspace")
    for i, row in enumerate(rows):
        if len(row) != dim:
            _fail(str(path), f"subspace[{i}] must be a list of {dim} scalars")
    try:
        return [tuple(field.parse(str(c)) for c in row) for row in rows]
    except ValueError as exc:
        _fail(str(path), str(exc))


# -- submonoid spec --------------------------------------------------------------

def load_submonoid_spec(path) -> dict:
    obj = _load_json(path)
    path = str(path)
    if not isinstance(obj, dict):
        _fail(path, "top level must be an object")
    for key in ("ambient_rank", "generators", "degree_bound"):
        if key not in obj:
            _fail(path, f"missing {key!r}")
    rank = _integer(path, obj["ambient_rank"], "ambient_rank")
    if not isinstance(obj["generators"], list):
        _fail(path, "generators must be a list")
    gens = [_integers(path, g, f"generators[{pos}]")
            for pos, g in enumerate(obj["generators"])]
    if any(len(g) != rank for g in gens):
        _fail(path, "generator rank disagrees with ambient_rank")
    bound = _integer(path, obj["degree_bound"], "degree_bound")
    out = {"generators": gens, "degree_bound": bound, "grading": None}
    if obj.get("grading") is not None:
        grading = _integers(path, obj["grading"], "grading")
        if len(grading) != rank:
            _fail(path, "grading rank disagrees with ambient_rank")
        out["grading"] = grading
    return out


# -- canonicalization and corpus -------------------------------------------------

def classify_file(obj) -> str:
    """Best-effort tag of a JSON document by its top-level keys."""
    if not isinstance(obj, dict):
        return "unknown"
    if "mult" in obj or "comult" in obj:
        return "bialgebra"
    if "table" in obj or "invariant_factors" in obj:
        return "monoid"
    if "matrices" in obj:
        return "representation"
    if "brackets" in obj:
        return "lie"
    if "matrix" in obj:
        return "matrix"
    if "generators" in obj:
        return "submonoid"
    if "subspace" in obj:
        return "quotient"
    return "unknown"


def canonicalize(path) -> str:
    """Parse a definition file and re-serialize it canonically: tensor
    entries sorted lexicographically, scalar strings normalized, keys
    sorted. Idempotent."""
    obj = _load_json(path)
    kind = classify_file(obj)
    if kind == "bialgebra":
        return dump_canonical(bialgebra_to_json(
            bialgebra_from_json(obj, str(path))))
    if kind == "monoid":
        return dump_canonical(monoid_to_json(monoid_from_json(obj, str(path))))
    if kind == "representation":
        doc = representation_to_json(representation_from_json(
            obj, str(path), base_dir=Path(path).parent))
        if isinstance(obj.get("monoid"), str):
            doc["monoid"] = obj["monoid"]  # keep references by name
        return dump_canonical(doc)
    if kind == "lie":
        return dump_canonical(lie_to_json(lie_from_json(obj, str(path))))
    if kind in ("matrix", "submonoid", "quotient"):
        return dump_canonical(obj)
    raise FileFormatError(f"{path}: unrecognized definition file")


def corpus_dir() -> Path:
    env = os.environ.get("HOPFDUAL_CORPUS")
    if env:
        return Path(env)
    return Path(__file__).parent / "corpus"


def corpus_path(name: str) -> Path:
    p = corpus_dir() / name
    if not p.suffix:
        p = p.with_suffix(".json")
    return p


def resolve_reference(ref: str, base_dir=None) -> Path:
    """A monoid reference is a path (tried relative to the referring file)
    or the name of a corpus file."""
    cand = Path(ref)
    if cand.is_file():
        return cand
    if base_dir is not None:
        rel = Path(base_dir) / ref
        if rel.is_file():
            return rel
    corp = corpus_path(ref)
    if corp.is_file():
        return corp
    raise FileFormatError(f"cannot resolve monoid reference {ref!r}")
