"""Independent output checks for the history-sweep benchmark.

The checks read the program's *rendered* path conditions (the strings a
``VersionHistoryRunner`` report carries) and re-parse them into a term table
owned by this module, so nothing here trusts ``Term.evaluate``, the
simplifier or the intern table of the program under test.  Division and
remainder follow Java (truncate toward zero; the remainder takes the
dividend's sign), as MiniLang does.

Path-condition grammar, as rendered by ``PathCondition.__str__``::

    pc    := "true" | term (" && " term)*
    term  := "(" term OP term ")" | "!(" term ")" | "-(" term ")"
           | INT | "true" | "false" | NAME
"""

from __future__ import annotations

import random
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ARITH = frozenset({"+", "-", "*", "/", "%"})
COMPARE = frozenset({"==", "!=", "<", "<=", ">", ">="})
LOGIC = frozenset({"&&", "||"})
BINARY = ARITH | COMPARE | LOGIC

_TOKEN = re.compile(
    r"\s*(!\(|-\(|\(|\)|-?\d+|[A-Za-z_$][\w$.@#]*|==|!=|<=|>=|&&|\|\||[-+*/%<>])"
)


class OracleError(Exception):
    """A rendered path condition the grammar above does not accept."""


class EvalError(Exception):
    """A term that has no value under an assignment (division by zero)."""


def java_div(left: int, right: int) -> int:
    """Integer division truncating toward zero (Java ``/``)."""
    if right == 0:
        raise EvalError("division by zero")
    quotient = abs(left) // abs(right)
    return quotient if (left >= 0) == (right >= 0) else -quotient


def java_mod(left: int, right: int) -> int:
    """Remainder with the dividend's sign (Java ``%``)."""
    return left - right * java_div(left, right)


class TermTable:
    """Hash-consed terms parsed from path-condition strings.

    A node is a tuple ``("int", v)``, ``("bool", b)``, ``("sym", name)``,
    ``("not", t)``, ``("neg", t)`` or ``("bin", op, l, r)`` whose children
    are node ids, so structurally equal conjuncts of different path
    conditions share one id and one evaluation per input.
    """

    def __init__(self) -> None:
        self.nodes: List[tuple] = []
        self._ids: Dict[tuple, int] = {}
        self._conjuncts: Dict[str, int] = {}

    def _intern(self, node: tuple) -> int:
        found = self._ids.get(node)
        if found is None:
            found = self._ids[node] = len(self.nodes)
            self.nodes.append(node)
        return found

    # -- parsing ---------------------------------------------------------------

    def parse_pc(self, text: str) -> Tuple[int, ...]:
        """The conjunct ids of one rendered path condition, in order."""
        if text == "true":
            return ()
        return tuple(self._parse_conjunct(part) for part in _split_conjuncts(text))

    def _parse_conjunct(self, text: str) -> int:
        found = self._conjuncts.get(text)
        if found is None:
            tokens = _TOKEN.findall(text)
            if "".join(tokens) != text.replace(" ", ""):
                raise OracleError(f"unrecognised characters in {text!r}")
            found, end = self._parse_term(tokens, 0)
            if end != len(tokens):
                raise OracleError(f"trailing tokens in {text!r}")
            self._conjuncts[text] = found
        return found

    def _parse_term(self, tokens: Sequence[str], at: int) -> Tuple[int, int]:
        if at >= len(tokens):
            raise OracleError("unexpected end of term")
        token = tokens[at]
        if token == "(":
            left, at = self._parse_term(tokens, at + 1)
            if at >= len(tokens) or tokens[at] not in BINARY:
                raise OracleError(f"expected an operator at token {at}")
            op = tokens[at]
            right, at = self._parse_term(tokens, at + 1)
            return self._intern(("bin", op, left, right)), _expect_close(tokens, at)
        if token in ("!(", "-("):
            operand, at = self._parse_term(tokens, at + 1)
            kind = "not" if token == "!(" else "neg"
            return self._intern((kind, operand)), _expect_close(tokens, at)
        if token in ("true", "false"):
            return self._intern(("bool", token == "true")), at + 1
        if token[0].isdigit() or (token[0] == "-" and token[1:].isdigit()):
            return self._intern(("int", int(token))), at + 1
        if token[0].isalpha() or token[0] in "_$":
            return self._intern(("sym", token)), at + 1
        raise OracleError(f"unexpected token {token!r}")

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, node_id: int, assignment: Dict[str, int], memo: Dict[int, object]):
        """The value of ``node_id`` under ``assignment`` (Java semantics)."""
        if node_id in memo:
            return memo[node_id]
        node = self.nodes[node_id]
        kind = node[0]
        if kind in ("int", "bool"):
            value = node[1]
        elif kind == "sym":
            value = assignment[node[1]]
        elif kind == "not":
            value = not self.evaluate(node[1], assignment, memo)
        elif kind == "neg":
            value = -self.evaluate(node[1], assignment, memo)
        else:
            value = self._binary(node[1], node[2], node[3], assignment, memo)
        memo[node_id] = value
        return value

    def _binary(self, op: str, left_id: int, right_id: int, assignment, memo):
        left = self.evaluate(left_id, assignment, memo)
        if op == "&&":
            return bool(left) and bool(self.evaluate(right_id, assignment, memo))
        if op == "||":
            return bool(left) or bool(self.evaluate(right_id, assignment, memo))
        right = self.evaluate(right_id, assignment, memo)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return java_div(left, right)
        if op == "%":
            return java_mod(left, right)
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right

    def holds(self, conjuncts: Sequence[int], assignment: Dict[str, int], memo) -> bool:
        """Whether every conjunct is true; one that cannot be evaluated is false."""
        for conjunct in conjuncts:
            try:
                if not self.evaluate(conjunct, assignment, memo):
                    return False
            except EvalError:
                return False
        return True

    # -- inspection ------------------------------------------------------------

    def symbols(self, roots: Iterable[int]) -> Dict[str, str]:
        """Symbol name -> ``"int"`` or ``"bool"`` for every symbol under ``roots``.

        A symbol is boolean when it stands where a truth value is expected:
        as a whole conjunct, under ``!``, ``&&`` or ``||``, or compared with
        ``true``/``false``.
        """
        sorts: Dict[str, str] = {}
        seen: Set[int] = set()
        work = [(root, True) for root in roots]
        while work:
            node_id, boolean = work.pop()
            if (node_id, boolean) in seen:
                continue
            seen.add((node_id, boolean))
            node = self.nodes[node_id]
            kind = node[0]
            if kind == "sym":
                if boolean or node[1] not in sorts:
                    sorts[node[1]] = "bool" if boolean else "int"
            elif kind == "not":
                work.append((node[1], True))
            elif kind == "neg":
                work.append((node[1], False))
            elif kind == "bin":
                op, left, right = node[1], node[2], node[3]
                operand_bool = op in LOGIC or (
                    op in ("==", "!=")
                    and any(self.nodes[side][0] == "bool" for side in (left, right))
                )
                work.append((left, operand_bool))
                work.append((right, operand_bool))
        return sorts

    def constants(self, roots: Iterable[int]) -> Set[int]:
        """Integer constants occurring under ``roots``."""
        found: Set[int] = set()
        work = list(roots)
        seen: Set[int] = set()
        while work:
            node_id = work.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            node = self.nodes[node_id]
            if node[0] == "int":
                found.add(node[1])
            elif node[0] in ("not", "neg"):
                work.append(node[1])
            elif node[0] == "bin":
                work.extend((node[2], node[3]))
        return found


def _expect_close(tokens: Sequence[str], at: int) -> int:
    if at >= len(tokens) or tokens[at] != ")":
        raise OracleError(f"expected ')' at token {at}")
    return at + 1


def _split_conjuncts(text: str) -> List[str]:
    """Split a rendered PC at its top-level `` && `` separators."""
    parts: List[str] = []
    depth = 0
    start = 0
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" && ", index):
            parts.append(text[start:index])
            index += 4
            start = index
            continue
        index += 1
    parts.append(text[start:])
    return parts


# -- the checks ----------------------------------------------------------------


def random_inputs(
    table: TermTable, pcs: Sequence[Tuple[int, ...]], count: int, rng: random.Random
) -> List[Dict[str, int]]:
    """``count`` seeded assignments over every symbol of ``pcs``.

    Half the integer draws come from the constants the PCs mention (and
    their neighbours), so every branch boundary is straddled; the rest are
    uniform over a box a little wider than the largest constant.
    """
    roots = [conjunct for pc in pcs for conjunct in pc]
    sorts = table.symbols(roots)
    constants = table.constants(roots) | {0}
    near = sorted({c + d for c in constants for d in (-1, 0, 1)})
    wide = 2 * max(abs(c) for c in constants) + 8
    names = sorted(sorts)
    inputs = []
    for _ in range(count):
        assignment: Dict[str, int] = {}
        for name in names:
            if sorts[name] == "bool":
                assignment[name] = rng.random() < 0.5
            elif rng.random() < 0.5:
                assignment[name] = rng.choice(near)
            else:
                assignment[name] = rng.randint(-wide, wide)
        inputs.append(assignment)
    return inputs


def check_partition(
    table: TermTable, full_pcs: Sequence[str], inputs_per_version: int, rng: random.Random
) -> Optional[str]:
    """Each seeded input satisfies exactly one full-exploration PC.

    Returns a failure description, or None when the check holds.
    """
    parsed = [table.parse_pc(text) for text in full_pcs]
    if not parsed:
        return "no full path conditions"
    for assignment in random_inputs(table, parsed, inputs_per_version, rng):
        memo: Dict[int, object] = {}
        matches = 0
        for conjuncts in parsed:
            if table.holds(conjuncts, assignment, memo):
                matches += 1
                if matches > 1:
                    break
        if matches != 1:
            return f"input {assignment} satisfies {matches} full path conditions"
    return None


def check_models(table: TermTable, directed_pcs: Sequence[str], solve) -> Optional[str]:
    """The solver's model for every directed PC satisfies that PC.

    ``solve(conjuncts)`` returns the program solver's model (a dict) for the
    parsed PC, or None when the solver calls it unsatisfiable -- itself a
    failure, since every reported path is feasible.
    """
    for text in directed_pcs:
        conjuncts = table.parse_pc(text)
        model = solve(conjuncts)
        if model is None:
            return f"solver finds no model for directed PC {text}"
        assignment = dict(model)
        for name, sort in table.symbols(conjuncts).items():
            assignment.setdefault(name, False if sort == "bool" else 0)
        if not table.holds(conjuncts, assignment, {}):
            return f"model {model} violates directed PC {text}"
    return None


def check_subset(directed_pcs: Sequence[str], full_pcs: Sequence[str]) -> Optional[str]:
    """Every directed PC is among the same version's full PCs."""
    missing = sorted(set(directed_pcs) - set(full_pcs))
    if missing:
        return f"{len(missing)} directed PCs absent from the full run, e.g. {missing[0]}"
    return None


def check_reference(
    outputs: Tuple[Tuple[str, ...], Tuple[str, ...]],
    reference: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]],
) -> Optional[str]:
    """Both legs' PCs equal those of the fresh serial reference run."""
    if reference is None:
        return "no reference output for this version"
    for leg, got, want in zip(("directed", "full"), outputs, reference):
        if got != want:
            return f"{leg} PCs differ from the fresh serial run ({len(got)} vs {len(want)})"
    return None


def to_program_terms(table: TermTable, conjuncts: Sequence[int], terms) -> list:
    """Rebuild parsed conjuncts with the program's term factories (``terms``
    is ``repro.solver.terms``), so its solver can be asked for a model."""
    built: Dict[int, object] = {}

    def build(node_id: int):
        if node_id in built:
            return built[node_id]
        node = table.nodes[node_id]
        kind = node[0]
        if kind == "int":
            term = terms.mk_int(node[1])
        elif kind == "bool":
            term = terms.mk_bool(node[1])
        elif kind == "sym":
            term = terms.mk_symbol(node[1], sorts.get(node[1], terms.INT_SORT))
        elif kind == "not":
            term = terms.mk_not(build(node[1]))
        elif kind == "neg":
            term = terms.mk_neg(build(node[1]))
        else:
            term = terms.mk_binary(node[1], build(node[2]), build(node[3]))
        built[node_id] = term
        return term

    sorts = {
        name: terms.BOOL_SORT if sort == "bool" else terms.INT_SORT
        for name, sort in table.symbols(conjuncts).items()
    }
    return [build(conjunct) for conjunct in conjuncts]
