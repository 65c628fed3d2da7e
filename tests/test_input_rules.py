"""Each of the package's shared input rules is written out in one function.

- An int that is not a bool: errors.is_int.  orbits._check_ids holds a
  different rule (a JSON class id may be anything but true or false), so it
  is the one other function that may test for bool.
- A sign is +1 or -1: pushing._check_sign.
- A word is within rank g: words._max_generator, on a letter tuple.
- A word beyond rank g is refused: words._check_rank, with one message.
  embedding._in_ball reads the rank too, but answers a membership question
  and refuses nothing, so it is the one other function that may compare it.

The shape rules:

- A value is of a class: errors.check_type.  SelfMapClass's constructor
  is the one check of an image, and keeps its own type tests with their
  messages.
- A value is a sequence: errors.as_tuple.  TargetModel's test that class
  ids are hashable and orbits._ids_to_indices's test of JSON ids are
  different rules that also catch a TypeError.
- A tuple is a permutation of 0..n-1: errors.is_permutation.

The reader rules:

- A reader's input is of a type: errors.check_text (a str), errors.json_array
  (a list) and errors.json_object (a dict), each raising ParseError.
- A constructor's ValueError becomes a ParseError with its message:
  errors.parsing.  pushing.parse_perm's handler of errors.read_decimal
  raises a message of its own, so it is a different rule.
- Text is read as an int in the ASCII digits 0-9 alone: errors.read_decimal,
  which pushing.parse_perm, ring.parse_label, PUSHCALC_MAX_STATES and
  cli._int (after an optional '-') call.  int(), or int handed on as a
  flag's type, also takes a sign, '_', whitespace and other scripts' digits;
  cli._json_int reads what json's own grammar has checked, and
  words.parse_word's exponent may be negative.

The size rules:

- A product of powers against its cap, without building a product that
  passes it: errors.capped_product.
- The keys of a window ball: embedding._ball_size, the one reader of
  words.count_words in embedding; pushing.kernel_report counts its slot
  word ball with count_words as well.

The record rule:

- A record stores its fields through its base: errors.Record._set_fields,
  the one user of object.__setattr__.  No record class assigns self.<name>.

The process-store rule:

- What outlives a call is a store errors._STORES declares, made by
  errors._store: errors is the one module that uses functools' cache or
  lru_cache, and _store the one function that stores into a module-level
  dict.  Two memos are not stores, as the source fixes their entries, so a
  clear could only rebuild the same ones: pushcalc.__getattr__ stores each
  public name it imports into its module's globals(), and
  errors._DataclassFields.fields, an instance's dict this rule does not read,
  keeps one dataclass per record class.

A site that writes one of these out again, instead of calling its home,
fails here.
"""
from __future__ import annotations

import ast
from pathlib import Path

from _helpers import walk_sites

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pushcalc"

HOMES = {
    "bool test": {"errors.is_int", "orbits._check_ids"},
    "sign test": {"pushing._check_sign"},
    "rank formula": {"words._max_generator"},
    "rank check": {"words._check_rank", "embedding._in_ball"},
    "type test": {"errors.check_type", "monoid.SelfMapClass"},
    "sequence test": {"errors.as_tuple", "orbits.TargetModel", "orbits._ids_to_indices"},
    "permutation test": {"errors.is_permutation"},
    "reader type test": {"errors.check_text", "errors.json_array", "errors.json_object"},
    "translation": {"errors.parsing"},
    "decimal read": {"errors.read_decimal", "cli._json_int", "words.parse_word"},
    "capped product": {"errors.capped_product"},
    "ball size": {"embedding._ball_size", "pushing.kernel_report"},
    "field store": {"errors.Record"},
    "process store": {"errors", "errors._store", "__init__.__getattr__"},
}


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _is_call(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def _is_negation(node: ast.AST) -> bool:
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)


def _is_sign_pair(node: ast.AST) -> bool:
    """The tuple literal (1, -1) or (-1, 1)."""
    return isinstance(node, ast.Tuple) and ast.unparse(node) in ("(1, -1)", "(-1, 1)")


def _is_not_isinstance(node: ast.AST) -> bool:
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
            and _is_call(node.operand, "isinstance"))


def _is_rank_read(node: ast.AST) -> bool:
    """_max_generator(...)"""
    return _is_call(node, "_max_generator")


def _is_power(node: ast.AST) -> bool:
    """Some part of node is a ** or a .bit_length() call."""
    return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
               or isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "bit_length" for n in ast.walk(node))


def _is_range_list(node: ast.AST) -> bool:
    """list(range(...))"""
    return _is_call(node, "list") and bool(node.args) and _is_call(node.args[0], "range")


def _is_field_store(node: ast.AST) -> bool:
    """object.__setattr__, called or not, or .update(...) on vars(...) or on a .__dict__"""
    if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"):
        return True
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    owner = node.func.value
    return node.func.attr == "update" and (
        _is_call(owner, "vars") or isinstance(owner, ast.Attribute) and owner.attr == "__dict__")


def _self_stores(node: ast.AST) -> int:
    """How many self.<name> assignments node makes, if it is a class whose
    bases name a Record; 0 for any other node."""
    if not (isinstance(node, ast.ClassDef)
            and any(ast.unparse(base).endswith("Record") for base in node.bases)):
        return 0
    return sum(isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
               and isinstance(n.value, ast.Name) and n.value.id == "self"
               for n in ast.walk(node))


_MEMOS = {"cache", "lru_cache"}


def _is_memo(node: ast.AST) -> bool:
    """functools' cache or lru_cache: imported, read as <module>.<name>, or named."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(a.name in _MEMOS for a in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr in _MEMOS and isinstance(node.value, ast.Name)
    return isinstance(node, ast.Name) and node.id in _MEMOS


def _module_dicts(source: str) -> set[str]:
    """The names the module's top level binds to a dict display, comprehension or
    dict() call."""
    names = set()
    for st in ast.parse(source).body:
        value = st.value if isinstance(st, (ast.Assign, ast.AnnAssign)) else None
        if isinstance(value, (ast.Dict, ast.DictComp)) or _is_call(value, "dict"):
            targets = st.targets if isinstance(st, ast.Assign) else [st.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _is_dict_store(node: ast.AST, dicts: set[str]) -> bool:
    """A write into one of dicts or into globals(): an item assignment, or a
    setdefault or update call."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        owner = node.value
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in ("setdefault", "update")):
        owner = node.func.value
    else:
        return False
    return _is_call(owner, "globals") or isinstance(owner, ast.Name) and owner.id in dicts


def _raises(node: ast.AST, name: str) -> bool:
    """The body of node holds a `raise name(...)`."""
    return any(isinstance(st, ast.Raise) and _is_call(st.exc, name) for st in node.body)


def _is_decimal_read(node: ast.AST) -> bool:
    """int(...) of one argument: text read as an integer; or int handed on
    as a call's argument (but isinstance's), a keyword's or a dict's value."""
    if _is_call(node, "int"):
        return len(node.args) == 1 and not node.keywords
    values = (node.values if isinstance(node, ast.Dict) else [node.value]
              if isinstance(node, ast.keyword) else node.args
              if isinstance(node, ast.Call) and not _is_call(node, "isinstance") else [])
    return any(isinstance(value, ast.Name) and value.id == "int" for value in values)


def _is_translation(node: ast.AST) -> bool:
    """`except ValueError as exc:` whose body raises ParseError(str(exc))."""
    if not (isinstance(node, ast.ExceptHandler) and node.name is not None
            and node.type is not None and "ValueError" in _names(node.type)):
        return False
    raised = f"ParseError(str({node.name}))"
    return any(isinstance(st, ast.Raise) and st.exc is not None
               and ast.unparse(st.exc) == raised for st in node.body)


def rule_sites(source: str, module: str) -> list[tuple[str, str]]:
    """(rule, 'module.function') for every place the source writes out a
    rule, named after its outermost enclosing function or class ('module'
    at top level).  A bool test is isinstance with bool among its types; a
    sign test is `in` or `not in` against (1, -1); a rank formula is a min()
    call that is negated or compared with a negated value; a rank check is
    a comparison with a _max_generator(...) operand.  A type test is an
    `if` on `not isinstance(...)` whose body raises ValueError; a
    sequence test is a `try` that catches TypeError; a permutation test
    compares sorted(...) with list(range(...)).  A reader type test is an
    `if` on `not isinstance(...)` whose body raises ParseError; a
    translation is an `except ValueError as exc` that raises
    ParseError(str(exc)), and a decimal read is an int() call of one
    argument or int handed on as a value.  A capped product is a comparison
    with an operand that holds a ** or a .bit_length() call; a ball size is
    a call of count_words.  A field store is a use of object.__setattr__, an
    update of vars(...) or of a __dict__, or a self.<name> assignment in a class
    whose bases name a Record.  A process store is a use of functools' cache
    or lru_cache, or a function's write into a module-level dict or globals()."""
    sites = []
    dicts = _module_dicts(source)
    for node, where in walk_sites(source, module):
        if _is_memo(node) or where != module and _is_dict_store(node, dicts):
            sites.append(("process store", where))
        if (_is_call(node, "isinstance") and len(node.args) == 2
                and "bool" in _names(node.args[1])):
            sites.append(("bool test", where))
        if isinstance(node, ast.Compare):
            ops = [node.left, *node.comparators]
            if any(map(_is_power, ops)):
                sites.append(("capped product", where))
            for op, left, right in zip(node.ops, ops, ops[1:]):
                if isinstance(op, (ast.In, ast.NotIn)) and _is_sign_pair(right):
                    sites.append(("sign test", where))
                if (_is_call(left, "min") and _is_negation(right)
                        or _is_negation(left) and _is_call(right, "min")):
                    sites.append(("rank formula", where))
                if _is_rank_read(left) or _is_rank_read(right):
                    sites.append(("rank check", where))
                if (_is_call(left, "sorted") and _is_range_list(right)
                        or _is_range_list(left) and _is_call(right, "sorted")):
                    sites.append(("permutation test", where))
        if isinstance(node, ast.Call) and "count_words" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            sites.append(("ball size", where))
        if _is_negation(node) and _is_call(node.operand, "min"):
            sites.append(("rank formula", where))
        if isinstance(node, ast.If) and any(map(_is_not_isinstance, ast.walk(node.test))):
            if _raises(node, "ValueError"):
                sites.append(("type test", where))
            if _raises(node, "ParseError"):
                sites.append(("reader type test", where))
        if _is_translation(node):
            sites.append(("translation", where))
        if _is_decimal_read(node):
            sites.append(("decimal read", where))
        if isinstance(node, ast.Try) and any(
                h.type is not None and "TypeError" in _names(h.type) for h in node.handlers):
            sites.append(("sequence test", where))
        if _is_field_store(node):
            sites.append(("field store", where))
        sites += [("field store", where)] * _self_stores(node)
    return sites


def stray_sites(sites: list[tuple[str, str]]) -> list[tuple[str, str]]:
    return [(rule, where) for rule, where in sites if where not in HOMES[rule]]


def test_checker_sees_each_rule_written_out():
    source = (
        "def is_int(x):\n"
        "    return isinstance(x, int) and not isinstance(x, bool)\n"
        "def count(x):\n"
        "    if not isinstance(x, int) or isinstance(x, (bool, float)):\n"
        "        raise ValueError\n"
        "def sign(c):\n"
        "    return c in (1, -1) and c not in (-1, 1) and c in (1, 2)\n"
        "def rank(t, g):\n"
        "    return max(max(t), -min(t)) if min(t) < -g else -g <= min(t)\n"
        "class Word:\n"
        "    def ok(self, g):\n"
        "        return min(self.t) >= -g\n"
        "def push(w, g):\n"
        "    return _max_generator(w.t) > g or g < _max_generator(w.t)\n"
        "fine = isinstance(1, int) and min(3, 4) < 5 and -max(1, 2) and _max_generator(t)\n"
        "class Record:\n"
        "    def _set_fields(self, *values):\n"
        "        store = object.__setattr__\n"
        "class Model(errors.FrozenRecord):\n"
        "    def __init__(self, g, k):\n"
        "        object.__setattr__(self, 'g', g)\n"
        "        vars(self).update(k=k)\n"
        "        self.__dict__.update(k=k)\n"
        "        self.d, self.labels = 3, ()\n"
        "class Cache:\n"
        "    def __init__(self, t):\n"
        "        self.t = t\n"
        "        object.__getattribute__(self, 't') and vars(self).get('t')\n"
    )
    assert rule_sites(source, "errors") == [
        ("bool test", "errors.is_int"),
        ("bool test", "errors.count"),
        ("sign test", "errors.sign"),
        ("sign test", "errors.sign"),
        ("rank formula", "errors.rank"),
        ("rank formula", "errors.rank"),
        ("rank formula", "errors.rank"),
        ("rank formula", "errors.Word"),
        ("rank check", "errors.push"),
        ("rank check", "errors.push"),
        ("field store", "errors.Record"),
        ("field store", "errors.Model"),
        ("field store", "errors.Model"),
        ("field store", "errors.Model"),
        ("field store", "errors.Model"),
        ("field store", "errors.Model"),
    ]
    assert stray_sites(rule_sites(source, "errors"))[0] == ("bool test", "errors.count")
    assert [where for rule, where in stray_sites(rule_sites(source, "errors"))
            if rule == "field store"] == ["errors.Model"] * 5


def test_checker_sees_each_shape_rule_written_out():
    source = (
        "def check_type(what, x, cls):\n"
        "    if not isinstance(x, cls):\n"
        "        raise ValueError(what)\n"
        "class Word:\n"
        "    def __init__(self, w):\n"
        "        if len(w) > 3 or not isinstance(w, tuple):\n"
        "            raise ValueError('w')\n"
        "def as_tuple(what, x):\n"
        "    try:\n"
        "        return tuple(x)\n"
        "    except (KeyError, TypeError):\n"
        "        raise ValueError(what)\n"
        "def is_permutation(p):\n"
        "    return sorted(p) == list(range(len(p))) or list(range(3)) != sorted(p)\n"
        "def fine(x, p):\n"
        "    if not isinstance(x, int):\n"
        "        return None\n"
        "    try:\n"
        "        return {}[x]\n"
        "    except KeyError:\n"
        "        pass\n"
        "    return sorted(p) == list(p) and sorted(p) != range(3)\n"
    )
    assert rule_sites(source, "errors") == [
        ("type test", "errors.check_type"),
        ("type test", "errors.Word"),
        ("sequence test", "errors.as_tuple"),
        ("permutation test", "errors.is_permutation"),
        ("permutation test", "errors.is_permutation"),
    ]
    assert stray_sites(rule_sites(source, "errors")) == [("type test", "errors.Word")]


def test_checker_sees_each_reader_rule_written_out():
    source = (
        "def check_text(what, x):\n"
        "    if not isinstance(x, str):\n"
        "        raise ParseError(what)\n"
        "def ring_from_json(obj):\n"
        "    if len(obj) != 2 or not isinstance(obj, list):\n"
        "        raise ParseError('obj')\n"
        "@contextmanager\n"
        "def parsing():\n"
        "    try:\n"
        "        yield\n"
        "    except (KeyError, ValueError) as exc:\n"
        "        raise ParseError(str(exc)) from None\n"
        "def fine(parts):\n"
        "    try:\n"
        "        return [int(p) for p in parts]\n"
        "    except ValueError:\n"
        "        raise ParseError('bad cycle entry')\n"
        "    except ValueError as exc:\n"
        "        raise ParseError(f'bad entry: {exc}')\n"
        "    except KeyError as exc:\n"
        "        raise ParseError(str(exc))\n"
        "def read_decimal(text):\n"
        "    return int(text)\n"
        "def parse_perm(parts):\n"
        "    return [int(p) for p in parts] + [int(parts[0], 10), int('1', base=10)]\n"
    )
    assert rule_sites(source, "errors") == [
        ("reader type test", "errors.check_text"),
        ("reader type test", "errors.ring_from_json"),
        ("translation", "errors.parsing"),
        ("decimal read", "errors.fine"),
        ("decimal read", "errors.read_decimal"),
        ("decimal read", "errors.parse_perm"),
    ]
    assert stray_sites(rule_sites(source, "errors")) == [
        ("reader type test", "errors.ring_from_json"),
        ("decimal read", "errors.fine"),
        ("decimal read", "errors.parse_perm"),
    ]
    handed_on = "T = {'-g': {'type': int}}, f(type=int), map(int, 'a'), isinstance(1, int)\n"
    assert rule_sites(handed_on, "cli") == [("decimal read", "cli")] * 3


def test_checker_sees_each_size_rule_written_out():
    products = (
        "def capped_product(powers, cap):\n"
        "    return any(e > cap.bit_length() for b, e in powers)\n"
        "def count_words(g, n, cap):\n"
        "    return n > cap.bit_length() or 1 + (2 * g - 1) ** n > cap\n"
        "def fine(x, cap):\n"
        "    return x ** 2 + cap.bit_length() and x * x > cap\n"
    )
    assert rule_sites(products, "errors") == [
        ("capped product", "errors.capped_product"),
        ("capped product", "errors.count_words"),
        ("capped product", "errors.count_words"),
    ]
    assert stray_sites(rule_sites(products, "errors")) == [
        ("capped product", "errors.count_words"),
        ("capped product", "errors.count_words"),
    ]
    balls = (
        "def _ball_size(sig, r):\n"
        "    return count_words(sig.g, r) * len(sig.labels)\n"
        "class TruncatedMatrix:\n"
        "    def __repr__(self):\n"
        "        return str(_words.count_words(self.g, 2))\n"
        "def fine(sig):\n"
        "    return _ball_size(sig, 2) + len(enumerate_words(sig.g, 2))\n"
    )
    assert rule_sites(balls, "embedding") == [
        ("ball size", "embedding._ball_size"),
        ("ball size", "embedding.TruncatedMatrix"),
    ]
    assert stray_sites(rule_sites(balls, "embedding")) == [
        ("ball size", "embedding.TruncatedMatrix"),
    ]


def test_checker_sees_each_process_store_written_out():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache as memo, reduce\n"
        "_seen = {}\n"
        "_built: dict = dict()\n"
        "_table = {k: 0 for k in ()}\n"
        "_names = {'a': 1}\n"
        "_names['b'] = 2\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def by_lru(x):\n"
        "    return x\n"
        "@functools.cache\n"
        "def by_cache(x):\n"
        "    return x\n"
        "@cache\n"
        "def by_name(x):\n"
        "    return x\n"
        "kept = lru_cache(maxsize=None)(len)\n"
        "def memo_dict(x):\n"
        "    _seen[x] = 1\n"
        "    _built.setdefault(x, 2)\n"
        "class Memo:\n"
        "    def read(self, x):\n"
        "        _table.update(x=3)\n"
        "        globals()[x] = 4\n"
        "def fine(x):\n"
        "    local = {}\n"
        "    local[x] = _seen.get(x)\n"
        "    return functools.cached_property, functools.reduce, local.update(y=1)\n"
    )
    assert rule_sites(source, "errors") == [
        ("process store", "errors"),
        ("process store", "errors.by_lru"),
        ("process store", "errors.by_cache"),
        ("process store", "errors.by_name"),
        ("process store", "errors"),
        ("process store", "errors.memo_dict"),
        ("process store", "errors.memo_dict"),
        ("process store", "errors.Memo"),
        ("process store", "errors.Memo"),
    ]
    assert stray_sites(rule_sites(source, "orbits")) == [
        ("process store", "orbits"),
        ("process store", "orbits.by_lru"),
        ("process store", "orbits.by_cache"),
        ("process store", "orbits.by_name"),
        ("process store", "orbits"),
        ("process store", "orbits.memo_dict"),
        ("process store", "orbits.memo_dict"),
        ("process store", "orbits.Memo"),
        ("process store", "orbits.Memo"),
    ]
    # errors' top level and _store are the home, and globals() in
    # pushcalc.__getattr__ the one exemption
    assert stray_sites(rule_sites(source, "errors")) == [
        ("process store", "errors.by_lru"),
        ("process store", "errors.by_cache"),
        ("process store", "errors.by_name"),
        ("process store", "errors.memo_dict"),
        ("process store", "errors.memo_dict"),
        ("process store", "errors.Memo"),
        ("process store", "errors.Memo"),
    ]
    getattr_memo = "def __getattr__(name):\n    globals()[name] = value = 1\n"
    assert stray_sites(rule_sites(getattr_memo, "__init__")) == []
    assert stray_sites(rule_sites(getattr_memo, "words")) == [("process store", "words.__getattr__")]


def test_each_rule_has_one_home():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        sites += rule_sites(path.read_text(), path.stem)
    assert stray_sites(sites) == []
    # every home is still there, so the rule is written out once, not zero times
    assert {where for _, where in sites} == set().union(*HOMES.values())
