"""cppast: a self-contained structural C++ front-end for pcc_analyze.

This module builds the AST-ish IR the analyzer's checks run on. It is
deliberately NOT a full C++ parser: it lexes, builds balanced token trees,
and then recognizes exactly the constructs the concurrency checks need —
function definitions, lambda expressions with parsed capture lists,
block-scoped declarations with their type text, store expressions with a
resolved lvalue shape, and call expressions with argument slices.

The design mirrors the libclang cursor model (every IR node carries a
file/line/col and checks walk a tree), so a `clang.cindex` front-end can be
slotted in behind the same IR if/when the bindings are available; this
implementation has zero dependencies beyond the Python standard library,
which is what lets `ctest -R analyze` run on any machine that can build
the repo.

Known envelope (enforced by the fixture corpus rather than by hope):
  * templates are handled textually — template headers are skipped, bodies
    are parsed like ordinary code;
  * overload resolution is by name only; the checks that resolve callees
    treat multiple same-name definitions conservatively;
  * preprocessor conditionals are taken as written (all branches lexed).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS_CONTROL = {
    "if", "for", "while", "switch", "catch", "return", "do", "else",
    "case", "default", "goto", "co_return", "co_await", "co_yield",
}

TYPE_KEYWORDS = {
    "auto", "bool", "char", "short", "int", "long", "unsigned", "signed",
    "float", "double", "void", "size_t", "uint8_t", "uint16_t", "uint32_t",
    "uint64_t", "int8_t", "int16_t", "int32_t", "int64_t", "ptrdiff_t",
    "wchar_t", "char8_t", "char16_t", "char32_t",
}

QUALIFIER_KEYWORDS = {
    "const", "constexpr", "consteval", "constinit", "volatile", "static",
    "inline", "extern", "mutable", "register", "thread_local", "typename",
    "struct", "class", "enum", "union", "restrict", "__restrict",
    "__restrict__",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<id>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<num>\.?\d(?:[\w.']|[eEpP][+-])*)
    | (?P<punct><<=|>>=|->\*|\.\.\.|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
                |[+\-*/%&|^!=<>]=|[{}()\[\];,.<>?:~!%^&*+=/|\\-])
    """,
    re.VERBOSE,
)


@dataclass
class Tok:
    kind: str  # 'id' | 'num' | 'str' | 'chr' | 'punct'
    text: str
    line: int
    col: int

    def is_group(self) -> bool:
        return False


@dataclass
class Group:
    """A balanced (), [] or {} token group."""

    opener: str  # '(', '[', '{'
    line: int
    col: int
    kids: list = field(default_factory=list)  # list[Tok | Group]

    @property
    def kind(self) -> str:
        return "group"

    @property
    def text(self) -> str:
        return self.opener

    def is_group(self) -> bool:
        return True


@dataclass
class Comment:
    line: int
    text: str


@dataclass
class LexedFile:
    path: str
    nodes: list  # top-level token tree
    comments: list  # list[Comment]
    n_lines: int


_CLOSER = {"(": ")", "[": "]", "{": "}"}


def lex(text: str, path: str = "<buf>") -> LexedFile:
    """Lex `text` into a balanced token tree plus the comment stream."""
    tokens: list[Tok] = []
    comments: list[Comment] = []
    i, n = 0, len(text)
    line, bol = 1, 0  # bol = index of start-of-line, for columns

    def col(pos: int) -> int:
        return pos - bol + 1

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            bol = i
        elif c in " \t\r\f\v":
            i += 1
        elif c == "#" and (not tokens or tokens[-1].line != line):
            # Preprocessor directive: swallow to end of line, honoring
            # backslash continuations.
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                if text[k - 1] == "\\" or (text[k - 1] == "\r" and
                                           text[k - 2] == "\\"):
                    line += 1
                    j = k + 1
                    continue
                j = k
                break
            i = j
        elif text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            comments.append(Comment(line, text[i:j]))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            comments.append(Comment(line, text[i : j + 2]))
            line += text.count("\n", i, j + 2)
            i = j + 2
            bol = text.rfind("\n", 0, i) + 1
        elif c == '"':
            if tokens and tokens[-1].text == "R" and tokens[-1].kind == "id":
                m = re.match(r'"([^(\s]*)\(', text[i:])
                if m:
                    tokens.pop()
                    end = text.find(f"){m.group(1)}\"", i)
                    end = n - 1 if end < 0 else end + len(m.group(1)) + 1
                    line += text.count("\n", i, end + 1)
                    tokens.append(Tok("str", '""', line, col(i)))
                    i = end + 1
                    bol = text.rfind("\n", 0, i) + 1
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            tokens.append(Tok("str", '""', line, col(i)))
            i = j + 1
        elif c == "'":
            # Either a char literal or a digit separator; the tokenizer's
            # number rule consumes separators inside numbers, so a bare
            # quote here is a char literal.
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            tokens.append(Tok("chr", "''", line, col(i)))
            i = j + 1
        else:
            m = _TOKEN_RE.match(text, i)
            if m is None:
                i += 1
                continue
            kind = m.lastgroup or "punct"
            tokens.append(Tok(kind, m.group(), line, col(i)))
            i = m.end()

    # Fold the flat token list into balanced groups.
    root: list = []
    stack: list[Group] = []
    for t in tokens:
        if t.text in "([{" and t.kind == "punct":
            g = Group(t.text, t.line, t.col)
            (stack[-1].kids if stack else root).append(g)
            stack.append(g)
        elif t.kind == "punct" and t.text in ")]}":
            # Pop to the nearest matching opener; tolerate imbalance from
            # preprocessor tricks by dropping strays.
            while stack and _CLOSER[stack[-1].opener] != t.text:
                stack.pop()
            if stack:
                stack.pop()
        else:
            (stack[-1].kids if stack else root).append(t)
    return LexedFile(path, root, comments, line)


# ---------------------------------------------------------------------------
# Tree helpers
# ---------------------------------------------------------------------------


def flat_text(nodes) -> str:
    """Space-joined source-ish text of a node slice (for messages)."""
    out: list[str] = []

    def walk(ns):
        for x in ns:
            if x.is_group():
                out.append(x.opener)
                walk(x.kids)
                out.append(_CLOSER[x.opener])
            else:
                out.append(x.text)

    walk(nodes)
    return " ".join(out)


def iter_tokens(nodes):
    for x in nodes:
        if x.is_group():
            yield from iter_tokens(x.kids)
        else:
            yield x


def split_commas(nodes) -> list[list]:
    """Split a node list at top-level commas (template-angle unaware by
    construction: angles never group, but top-level commas inside a call's
    () group are exactly the argument separators because nested calls are
    already grouped)."""
    parts: list[list] = [[]]
    depth_angle = 0
    for x in nodes:
        if not x.is_group() and x.kind == "punct":
            if x.text == "<":
                depth_angle += 1
            elif x.text == ">":
                depth_angle = max(0, depth_angle - 1)
            elif x.text == ">>":
                depth_angle = max(0, depth_angle - 2)
            elif x.text == "," and depth_angle == 0:
                parts.append([])
                continue
        parts[-1].append(x)
    if parts == [[]]:
        return []
    return parts


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Decl:
    name: str
    type_text: str
    init: list  # node slice of the initializer (may be empty)
    line: int
    col: int
    is_lambda: bool = False  # initializer is a lambda expression

    # -- classification helpers the checks use -----------------------------
    def is_pointer_like(self) -> bool:
        t = self.type_text
        return (
            "*" in t
            or "span" in t
            or self.is_ref()
            or re.search(r"\b(iterator|pointer)\b", t) is not None
        )

    def is_ref(self) -> bool:
        return "&" in self.type_text

    def is_container(self) -> bool:
        return re.search(
            r"\b(vector|array|string|deque|map|set|hash_map|hash_table|"
            r"hash_map64|sequence)\b",
            self.type_text,
        ) is not None

    def is_atomic(self) -> bool:
        return "atomic" in self.type_text

    def is_arena(self) -> bool:
        t = self.type_text
        return ("workspace" in t or "uninitialized_buffer" in t) and \
            "&" not in t and "*" not in t

    def is_arena_ref(self) -> bool:
        t = self.type_text
        return ("workspace" in t or "uninitialized_buffer" in t) and \
            ("&" in t or "*" in t)

    def is_unordered(self) -> bool:
        return re.search(
            r"\b(unordered_map|unordered_set|hash_map|hash_map64|hash_table)\b",
            self.type_text,
        ) is not None

    def is_scalar_value(self) -> bool:
        return not (self.is_pointer_like() or self.is_container()
                    or self.is_ref())


_DECL_STOP = KEYWORDS_CONTROL | {"delete", "new", "throw", "using",
                                 "namespace", "template", "public",
                                 "private", "protected", "operator"}


def _type_prefix_ok(nodes) -> bool:
    """True if `nodes` (the tokens before a candidate declarator name) look
    like a type: identifiers, ::, <...> template args, qualifiers, * & &&.
    Template args may hold parenthesized groups: function types such as
    `std::function<int(int)>` or `std::pair<int (*)(int), int>`."""
    if not nodes:
        return False
    saw_id = False
    angle = 0
    for x in nodes:
        if x.is_group():
            if angle > 0:
                continue
            return False
        if x.kind == "id":
            if x.text in _DECL_STOP:
                return False
            saw_id = True
        elif x.kind == "punct":
            if x.text == "<":
                angle += 1
            elif x.text == ">":
                angle -= 1
            elif x.text == ">>":
                angle -= 2
            elif x.text in ("*", "&", "&&", "::", ","):
                pass
            elif angle == 0:
                return False
        else:
            return False
    # A prefix ending in `::` makes the candidate name part of a qualified
    # path (a call or nested name), not a declarator.
    last = nodes[-1]
    if not last.is_group() and last.text == "::":
        return False
    return saw_id and angle <= 0


def _harvest_decl_from_stmt(stmt: list, out: list[Decl]) -> None:
    """Recognize `type name = init;` / `type name{...};` / `type name(...);`
    / `type name;` plus structured bindings; append Decl entries."""
    if not stmt:
        return
    # Structured binding: [qualifiers] auto [&] [ids] = init
    for k, x in enumerate(stmt):
        if not x.is_group() and x.kind == "id" and x.text == "auto":
            j = k + 1
            while j < len(stmt) and not stmt[j].is_group() and \
                    stmt[j].text in ("&", "&&", "const"):
                j += 1
            if j < len(stmt) and stmt[j].is_group() and stmt[j].opener == "[":
                for t in iter_tokens(stmt[j].kids):
                    if t.kind == "id":
                        out.append(Decl(t.text, "auto&", stmt[j + 2 :],
                                        t.line, t.col))
                return
            break
        if x.is_group() or x.text not in QUALIFIER_KEYWORDS:
            break

    # General declarator scan: find `name` followed by = | group | ; | ,
    # where everything before `name` forms a plausible type.
    i = 0
    n = len(stmt)
    while i < n:
        x = stmt[i]
        if x.is_group() or x.kind != "id" or x.text in _DECL_STOP:
            i += 1
            continue
        prefix = stmt[:i]
        # strip leading qualifiers from the type prefix
        lead = 0
        while lead < len(prefix) and not prefix[lead].is_group() and \
                prefix[lead].text in QUALIFIER_KEYWORDS:
            lead += 1
        prefix = prefix[lead:]
        if not _type_prefix_ok(prefix):
            i += 1
            continue
        nxt = stmt[i + 1] if i + 1 < n else None
        init: list = []
        ok = False
        if nxt is None:
            ok = True
        elif not nxt.is_group() and nxt.text in ("=", ";", ","):
            ok = True
            if nxt.text == "=":
                init = stmt[i + 2 :]
        elif nxt.is_group() and nxt.opener in ("{", "("):
            ok = True
            init = nxt.kids
        elif nxt.is_group() and nxt.opener == "[":
            # array declarator: `type name[dims]...` optionally `= init`
            j = i + 1
            while j < n and stmt[j].is_group() and stmt[j].opener == "[":
                j += 1
            if j >= n or (not stmt[j].is_group() and
                          stmt[j].text in ("=", ";", ",")):
                ok = True
                if j < n and not stmt[j].is_group() and stmt[j].text == "=":
                    init = stmt[j + 1 :]
        if ok:
            ttext = " ".join(
                t.text for t in stmt[:i] if not t.is_group()
            )
            is_lam = bool(init) and _lambda_at(init, 0) is not None
            out.append(Decl(x.text, ttext, init, x.line, x.col, is_lam))
            # multi-declarator `int a, b = 0;` — scan remaining at same type
            j = i + 1
            depth = 0
            while j < n:
                y = stmt[j]
                if y.is_group():
                    j += 1
                    continue
                if y.text == "," and depth == 0:
                    if j + 1 < n and not stmt[j + 1].is_group() and \
                            stmt[j + 1].kind == "id":
                        y2 = stmt[j + 1]
                        out.append(Decl(y2.text, ttext, [], y2.line, y2.col))
                elif y.text == "<":
                    depth += 1
                elif y.text == ">":
                    depth -= 1
                j += 1
            return
        i += 1


def _split_statements(kids: list) -> list[list]:
    """Split a brace-body kid list into statement-ish chunks at `;` and at
    nested `{}` groups (which become their own chunk)."""
    stmts: list[list] = []
    cur: list = []
    for x in kids:
        if not x.is_group() and x.kind == "punct" and x.text == ";":
            if cur:
                stmts.append(cur)
            cur = []
        elif x.is_group() and x.opener == "{":
            if cur:
                stmts.append(cur)
                cur = []
            stmts.append([x])
        else:
            cur.append(x)
    if cur:
        stmts.append(cur)
    return stmts


def collect_decls(body: Group, *, into: dict[str, Decl] | None = None,
                  skip_lambda_bodies: bool = False) -> dict[str, Decl]:
    """All declarations in a body, recursively (first declaration wins —
    shadowing is rare in this codebase and conservative either way)."""
    decls: dict[str, Decl] = {} if into is None else into

    def add(d: Decl) -> None:
        decls.setdefault(d.name, d)

    def walk_body(g: Group) -> None:
        for stmt in _split_statements(g.kids):
            harvested: list[Decl] = []
            if len(stmt) == 1 and stmt[0].is_group() and \
                    stmt[0].opener == "{":
                walk_body(stmt[0])
                continue
            _harvest_decl_from_stmt(stmt, harvested)
            for d in harvested:
                add(d)
            # Recurse into control statements: for/if/while headers can
            # declare, their () and trailing {} live in the same chunk.
            for k, x in enumerate(stmt):
                if x.is_group() and x.opener == "(":
                    prev = stmt[k - 1] if k > 0 else None
                    if prev is not None and not prev.is_group() and \
                            prev.text in ("for", "if", "while", "switch",
                                          "catch"):
                        _harvest_header_decls(x, add)
                    walk_groups(x)
                elif x.is_group() and x.opener == "{":
                    walk_body(x)
                elif x.is_group():
                    walk_groups(x)

    def walk_groups(g: Group) -> None:
        # Expression context: recurse looking for nested braces (lambda
        # bodies excluded when requested) and parenthesized declarations.
        idx = 0
        while idx < len(g.kids):
            x = g.kids[idx]
            if x.is_group():
                if x.opener == "{":
                    walk_body(x)
                else:
                    if skip_lambda_bodies and x.opener == "[":
                        lam = _lambda_at(g.kids, idx)
                        if lam is not None:
                            idx = lam.end_index
                            continue
                    walk_groups(x)
            idx += 1

    walk_body(body)
    return decls


def _harvest_header_decls(paren: Group, add) -> None:
    """Declarations in a for/if/while/switch/catch header."""
    kids = paren.kids
    # range-for: `decl : range`
    for k, x in enumerate(kids):
        if not x.is_group() and x.kind == "punct" and x.text == ":":
            harvested: list[Decl] = []
            _harvest_decl_from_stmt(kids[:k], harvested)
            for d in harvested:
                d.init = kids[k + 1 :]
                add(d)
            return
    for stmt in _split_statements(kids):
        harvested: list[Decl] = []
        _harvest_decl_from_stmt(stmt, harvested)
        for d in harvested:
            add(d)


# ---------------------------------------------------------------------------
# Lambdas
# ---------------------------------------------------------------------------


@dataclass
class Capture:
    name: str  # '&' / '=' for defaults, 'this', or an identifier
    by_ref: bool
    is_init: bool = False  # init-capture `x = expr`
    init: list = field(default_factory=list)


@dataclass
class LambdaExpr:
    captures: list[Capture]
    default_ref: bool  # [&...] default
    default_val: bool  # [=...] default
    params: list[Decl]
    body: Group
    line: int
    col: int
    end_index: int  # sibling index just past the body (for scan resumption)

    def capture_of(self, name: str) -> Capture | None:
        for c in self.captures:
            if c.name == name:
                return c
        return None

    def captures_name(self, name: str) -> bool:
        return self.default_ref or self.default_val or \
            self.capture_of(name) is not None

    def capture_by_ref(self, name: str) -> bool:
        c = self.capture_of(name)
        if c is not None:
            return c.by_ref
        return self.default_ref


def parse_params(paren: Group) -> list[Decl]:
    """Parameter declarators of a function/lambda parameter list."""
    params: list[Decl] = []
    for part in split_commas(paren.kids):
        if not part:
            continue
        # The parameter name is the last top-level identifier not inside a
        # group and not a type keyword... unless the param is unnamed.
        name_tok = None
        angle = 0
        for x in part:
            if x.is_group():
                continue
            if x.kind == "punct":
                if x.text == "<":
                    angle += 1
                elif x.text == ">":
                    angle -= 1
                elif x.text == ">>":
                    angle -= 2
                continue
            if angle == 0 and x.kind == "id" and \
                    x.text not in QUALIFIER_KEYWORDS:
                name_tok = x
        if name_tok is None:
            continue
        tokens_before = []
        for x in part:
            if x is name_tok:
                break
            if not x.is_group():
                tokens_before.append(x.text)
        if not tokens_before:
            continue  # lone identifier: a type, unnamed param
        params.append(Decl(name_tok.text, " ".join(tokens_before), [],
                           name_tok.line, name_tok.col))
    return params


def _lambda_at(siblings: list, i: int) -> LambdaExpr | None:
    """Parse a lambda whose capture group is siblings[i]; None if the `[`
    group isn't a lambda introducer here."""
    x = siblings[i]
    if not x.is_group() or x.opener != "[":
        return None
    if i > 0:
        prev = siblings[i - 1]
        if prev.is_group() and prev.opener in ("(", "["):
            pass  # `([...]` → lambda as first arg
        elif prev.is_group():
            return None  # `{...}[...]` — unlikely, treat as subscript
        elif prev.kind in ("id", "num", "str", "chr"):
            return None  # subscript of a primary
        elif prev.kind == "punct" and prev.text in (")", "]", ">"):
            return None
    # captures
    captures: list[Capture] = []
    default_ref = default_val = False
    for part in split_commas(x.kids):
        if not part:
            continue
        toks = [t for t in part if not t.is_group()]
        if len(toks) == 1 and toks[0].text == "&":
            default_ref = True
        elif len(toks) == 1 and toks[0].text == "=":
            default_val = True
        elif toks and toks[0].text == "this":
            captures.append(Capture("this", True))
        elif len(toks) >= 2 and toks[0].text == "*" and \
                toks[1].text == "this":
            captures.append(Capture("this", False))
        elif toks and toks[0].text == "&":
            if len(toks) >= 2 and toks[1].kind == "id":
                init = part[3:] if len(toks) >= 3 and toks[2].text == "=" \
                    else []
                captures.append(Capture(toks[1].text, True,
                                        bool(init), init))
        elif toks and toks[0].kind == "id":
            init = part[2:] if len(toks) >= 2 and toks[1].text == "=" else []
            captures.append(Capture(toks[0].text, False, bool(init), init))
    # optional (params), then specifiers, then { body }
    j = i + 1
    params: list[Decl] = []
    if j < len(siblings) and siblings[j].is_group() and \
            siblings[j].opener == "(":
        params = parse_params(siblings[j])
        j += 1
    # skip mutable/noexcept/-> T specifiers (tokens only)
    while j < len(siblings):
        y = siblings[j]
        if y.is_group() and y.opener == "{":
            return LambdaExpr(captures, default_ref, default_val, params, y,
                              x.line, x.col, j + 1)
        if y.is_group():
            return None
        if y.kind == "punct" and y.text in (";", ",", "="):
            return None
        j += 1
    return None


def find_lambdas(nodes: list) -> list[LambdaExpr]:
    """All lambda expressions in a node list (recursive, including nested
    lambdas inside lambda bodies)."""
    out: list[LambdaExpr] = []

    def walk(siblings: list) -> None:
        i = 0
        while i < len(siblings):
            x = siblings[i]
            if x.is_group():
                if x.opener == "[":
                    lam = _lambda_at(siblings, i)
                    if lam is not None:
                        out.append(lam)
                        walk(lam.body.kids)
                        # capture-list + params already covered via body
                        i = lam.end_index
                        continue
                walk(x.kids)
            i += 1

    walk(nodes)
    return out


# ---------------------------------------------------------------------------
# Function definitions
# ---------------------------------------------------------------------------


@dataclass
class FunctionDef:
    name: str
    qualname: str  # `A::B::name` as written at the definition
    params: list[Decl]
    body: Group
    line: int
    col: int
    path: str = ""

    def param_index(self, name: str) -> int:
        for i, p in enumerate(self.params):
            if p.name == name:
                return i
        return -1


def find_functions(lf: LexedFile) -> list[FunctionDef]:
    """Function definitions: `name (params) [specs] { body }` at any
    nesting depth outside of expression context."""
    out: list[FunctionDef] = []

    def walk(siblings: list) -> None:
        i = 0
        while i < len(siblings):
            x = siblings[i]
            if x.is_group() and x.opener == "(":
                # candidate param list: next non-token specifiers then `{`
                name_i = i - 1
                if name_i >= 0 and not siblings[name_i].is_group() and \
                        siblings[name_i].kind == "id" and \
                        siblings[name_i].text not in KEYWORDS_CONTROL and \
                        siblings[name_i].text not in QUALIFIER_KEYWORDS:
                    j = i + 1
                    body = None
                    while j < len(siblings):
                        y = siblings[j]
                        if y.is_group() and y.opener == "{":
                            body = y
                            break
                        if y.is_group():
                            # `noexcept(...)` / trailing-return `-> T<...>`
                            if y.opener == "(":
                                j += 1
                                continue
                            break
                        if y.kind == "punct" and y.text in (";", ",", "=",
                                                            ")"):
                            break
                        if y.kind == "punct" and y.text in ("{",):
                            break
                        if y.kind == "id" and y.text in ("if", "while",
                                                         "for", "switch"):
                            break
                        j += 1
                    if body is not None and _looks_like_fn_header(
                            siblings, name_i):
                        name = siblings[name_i].text
                        qual = _qualname(siblings, name_i)
                        out.append(FunctionDef(
                            name, qual, parse_params(x), body,
                            siblings[name_i].line, siblings[name_i].col,
                            lf.path))
                        walk(body.kids)
                        i = j + 1
                        continue
                walk(x.kids)
            elif x.is_group():
                walk(x.kids)
            i += 1

    walk(lf.nodes)
    return out


def _qualname(siblings: list, name_i: int) -> str:
    parts = [siblings[name_i].text]
    k = name_i - 1
    while k - 1 >= 0 and not siblings[k].is_group() and \
            siblings[k].text == "::" and not siblings[k - 1].is_group() and \
            siblings[k - 1].kind == "id":
        parts.append(siblings[k - 1].text)
        k -= 2
    return "::".join(reversed(parts))


def _looks_like_fn_header(siblings: list, name_i: int) -> bool:
    """Reject obvious non-definitions: `call(args) { ... }` can't occur at
    statement level in C++, but control keywords and initializer lists can.
    The name must be preceded by type-ish tokens, `::`, start-of-scope, or
    nothing."""
    k = name_i - 1
    # Walk over a :: qualification chain.
    while k - 1 >= 0 and not siblings[k].is_group() and \
            siblings[k].text == "::":
        k -= 2
    if k < 0:
        return True
    prev = siblings[k]
    if prev.is_group():
        return prev.opener == "{"  # previous function body / class body
    if prev.kind == "punct":
        return prev.text in (";", "}", ">", "*", "&", ":")
    if prev.kind == "id":
        return prev.text not in ("return", "case", "goto", "else", "do",
                                 "new", "delete", "throw", "co_return",
                                 "in", "not")
    return False


# ---------------------------------------------------------------------------
# Store & call expressions
# ---------------------------------------------------------------------------

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=",
              ">>="}
INCDEC_OPS = {"++", "--"}


@dataclass
class Lvalue:
    base: str | None  # leftmost identifier of the postfix chain
    indirect: bool  # *p / p-> / (*p)
    member: bool  # has .x / ->x member access
    subscripts: list  # list of node slices, outermost-first
    this_member: bool  # this->x or implicit member (trailing underscore)


@dataclass
class Store:
    lvalue: Lvalue
    op: str
    rhs: list
    line: int
    col: int
    stmt: list  # full statement slice (for context)


@dataclass
class CallExpr:
    name: str  # last path component
    path: str  # full dotted/arrow path text, e.g. 'ws.take'
    base: str | None  # object expression base for method calls
    args: list  # list of node slices
    template_args: list
    line: int
    col: int


def _lvalue_before(siblings: list, op_i: int) -> Lvalue | None:
    """Analyze the postfix expression ending just before siblings[op_i]."""
    j = op_i - 1
    subscripts: list = []
    indirect = False
    member = False
    this_member = False
    base: str | None = None
    while j >= 0:
        x = siblings[j]
        if x.is_group() and x.opener == "[":
            subscripts.insert(0, x.kids)
            j -= 1
        elif x.is_group() and x.opener == "(":
            before = siblings[j - 1] if j - 1 >= 0 else None
            if before is not None and not before.is_group() and (
                before.kind == "id" and before.text not in KEYWORDS_CONTROL
            ):
                j -= 1  # call postfix, walk to callee base
            else:
                inner = x.kids
                if inner and not inner[0].is_group() and \
                        inner[0].text == "*":
                    indirect = True
                    for t in iter_tokens(inner):
                        if t.kind == "id":
                            base = t.text
                            break
                break
        elif not x.is_group() and x.kind == "id":
            if x.text == "this":
                this_member = True
                break
            base = x.text
            if j - 1 >= 0 and not siblings[j - 1].is_group() and \
                    siblings[j - 1].text in (".", "->", "::"):
                if siblings[j - 1].text == "->":
                    indirect = True
                if siblings[j - 1].text in (".", "->"):
                    member = True
                j -= 2
            else:
                if j - 1 >= 0 and not siblings[j - 1].is_group() and \
                        siblings[j - 1].text == "*":
                    prev2 = siblings[j - 2] if j - 2 >= 0 else None
                    if prev2 is None or (not prev2.is_group() and
                                         prev2.kind == "punct" and
                                         prev2.text not in (")", "]")):
                        indirect = True
                break
        elif not x.is_group() and x.text == "*":
            indirect = True
            break
        else:
            break
    if base is None and not indirect and not this_member:
        return None
    return Lvalue(base, indirect, member, subscripts, this_member)


def _stmt_bounds(siblings: list, op_i: int) -> tuple[int, int]:
    lo = op_i
    while lo > 0:
        x = siblings[lo - 1]
        if not x.is_group() and x.kind == "punct" and x.text in (";", ",",
                                                                 ":"):
            break
        if x.is_group() and x.opener == "{":
            break
        lo -= 1
    hi = op_i
    while hi < len(siblings):
        x = siblings[hi]
        if not x.is_group() and x.kind == "punct" and x.text == ";":
            break
        hi += 1
    return lo, hi


def find_stores(nodes: list, *, skip_lambda_bodies: bool = True) -> \
        list[Store]:
    """All assignment / increment stores in a node list. Lambda bodies are
    skipped by default (they are analyzed as their own scopes)."""
    out: list[Store] = []

    def walk(siblings: list) -> None:
        i = 0
        while i < len(siblings):
            x = siblings[i]
            if x.is_group():
                if skip_lambda_bodies and x.opener == "[":
                    lam = _lambda_at(siblings, i)
                    if lam is not None:
                        i = lam.end_index
                        continue
                walk(x.kids)
                i += 1
                continue
            if x.kind == "punct" and (x.text in ASSIGN_OPS or
                                      x.text in INCDEC_OPS):
                op_i = i
                if x.text in INCDEC_OPS:
                    # prefix `++expr`: normalize to the operand's end
                    nxt = siblings[i + 1] if i + 1 < len(siblings) else None
                    if nxt is not None and (
                        (not nxt.is_group() and nxt.kind == "id") or
                        (not nxt.is_group() and nxt.text == "*")
                    ):
                        j = i + 1
                        while j < len(siblings):
                            y = siblings[j]
                            if not y.is_group() and y.kind == "punct" and \
                                    y.text not in ("::", ".", "->", "*"):
                                break
                            if not y.is_group() and y.kind != "id" and \
                                    y.kind != "punct":
                                break
                            j += 1
                        op_i = j
                lv = _lvalue_before(siblings, op_i)
                # `auto [u, v] = ...` is a structured-binding declaration,
                # not a subscript store through a base named `auto`.
                if lv is not None and lv.base == "auto":
                    lv = None
                if lv is not None:
                    lo, hi = _stmt_bounds(siblings, op_i)
                    out.append(Store(lv, x.text, siblings[i + 1 : hi],
                                     x.line, x.col, siblings[lo:hi]))
            i += 1

    walk(nodes)
    return out


def find_calls(nodes: list, *, skip_lambda_bodies: bool = False) -> \
        list[CallExpr]:
    """All call expressions `path(args)` in a node list."""
    out: list[CallExpr] = []

    def walk(siblings: list) -> None:
        i = 0
        while i < len(siblings):
            x = siblings[i]
            if x.is_group():
                if skip_lambda_bodies and x.opener == "[":
                    lam = _lambda_at(siblings, i)
                    if lam is not None:
                        i = lam.end_index
                        continue
                walk(x.kids)
                i += 1
                continue
            if x.kind == "id" and x.text not in KEYWORDS_CONTROL:
                # gather path backwards: a.b->c::d
                path_parts = [x.text]
                base = None
                k = i - 1
                while k - 1 >= 0 and not siblings[k].is_group() and \
                        siblings[k].text in (".", "->", "::") and \
                        not siblings[k - 1].is_group() and \
                        siblings[k - 1].kind == "id":
                    path_parts.append(siblings[k].text)
                    path_parts.append(siblings[k - 1].text)
                    base = siblings[k - 1].text
                    k -= 2
                # template args then call parens
                j = i + 1
                template_args: list = []
                if j < len(siblings) and not siblings[j].is_group() and \
                        siblings[j].text == "<":
                    depth = 0
                    k2 = j
                    closed = -1
                    while k2 < len(siblings) and k2 - j < 24:
                        y = siblings[k2]
                        if y.is_group():
                            k2 += 1
                            continue
                        if y.text == "<":
                            depth += 1
                        elif y.text == ">":
                            depth -= 1
                            if depth == 0:
                                closed = k2
                                break
                        elif y.text == ">>":
                            depth -= 2
                            if depth <= 0:
                                closed = k2
                                break
                        elif y.text in (";", "{", ")"):
                            break
                        k2 += 1
                    if closed > 0 and closed + 1 < len(siblings) and \
                            siblings[closed + 1].is_group() and \
                            siblings[closed + 1].opener == "(":
                        template_args = siblings[j : closed + 1]
                        j = closed + 1
                if j < len(siblings) and siblings[j].is_group() and \
                        siblings[j].opener == "(":
                    out.append(CallExpr(
                        x.text, "".join(reversed(path_parts)), base,
                        split_commas(siblings[j].kids), template_args,
                        x.line, x.col))
            i += 1

    walk(nodes)
    return out
