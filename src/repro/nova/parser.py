"""Recursive-descent parser for Nova.

The grammar is a small C-flavoured expression language (paper Section 3).
Binary operator precedence, lowest first::

    ||  &&  |  ^  &  ==/!=  </<=/>/>=  <</>>  +/-  */ /%  unary  postfix

Memory operations parse as primaries: ``sram(addr)`` optionally followed
by ``<- value`` for a write, and ``sram(addr, n)`` for an n-word read
when the arity cannot be inferred from a ``let`` pattern.
"""

from __future__ import annotations

from repro.errors import ParseError, SourceSpan
from repro.nova import ast
from repro.nova.layouts import (
    BitsLE,
    ConcatLE,
    GapLE,
    LayoutExpr,
    NameLE,
    OverlayLE,
    SeqLE,
)
from repro.nova.lexer import Token, TokenKind, tokenize

_BINOP_LEVELS: list[list[str]] = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]

_MEM_SPACES = ("sram", "sdram", "scratch", "rfifo", "tfifo")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token utilities --------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def check_punct(self, text: str) -> bool:
        return self.peek().is_punct(text)

    def check_keyword(self, text: str) -> bool:
        return self.peek().is_keyword(text)

    def accept_punct(self, text: str) -> bool:
        if self.check_punct(text):
            self.next()
            return True
        return False

    def accept_keyword(self, text: str) -> bool:
        if self.check_keyword(text):
            self.next()
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if not tok.is_punct(text):
            raise ParseError(f"expected '{text}', found '{tok}'", tok.span)
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found '{tok}'", tok.span)
        return self.next()

    def expect_int(self) -> Token:
        tok = self.peek()
        if tok.kind is not TokenKind.INT:
            raise ParseError(f"expected integer, found '{tok}'", tok.span)
        return self.next()

    # -- layouts -----------------------------------------------------------

    def parse_layout_expr(self) -> LayoutExpr:
        """``primary ('##' primary)*``"""
        first = self.parse_layout_primary()
        if not self.check_punct("##"):
            return first
        parts = [first]
        while self.accept_punct("##"):
            parts.append(self.parse_layout_primary())
        return ConcatLE(parts, span=first.span)

    def parse_layout_primary(self) -> LayoutExpr:
        tok = self.peek()
        if tok.kind is TokenKind.IDENT:
            self.next()
            return NameLE(tok.text, span=tok.span)
        if tok.is_punct("{"):
            self.next()
            if self.peek().kind is TokenKind.INT and self.peek(1).is_punct("}"):
                bits = self.expect_int()
                self.expect_punct("}")
                return GapLE(bits.value or 0, span=tok.span)
            items: list[tuple[str, LayoutExpr]] = []
            while not self.check_punct("}"):
                name = self.expect_ident()
                self.expect_punct(":")
                items.append((name.text, self.parse_layout_item()))
                if not self.accept_punct(","):
                    break
            self.expect_punct("}")
            return SeqLE(items, span=tok.span)
        raise ParseError(f"expected layout, found '{tok}'", tok.span)

    def parse_layout_item(self) -> LayoutExpr:
        """The right-hand side of ``name :`` — bits, overlay, or layout."""
        tok = self.peek()
        if tok.kind is TokenKind.INT:
            self.next()
            return BitsLE(tok.value or 0, span=tok.span)
        if tok.is_keyword("overlay"):
            self.next()
            self.expect_punct("{")
            alts: list[tuple[str, LayoutExpr]] = []
            while True:
                name = self.expect_ident()
                self.expect_punct(":")
                alts.append((name.text, self.parse_layout_item()))
                if not self.accept_punct("|"):
                    break
            self.expect_punct("}")
            return OverlayLE(alts, span=tok.span)
        return self.parse_layout_expr()

    # -- types -------------------------------------------------------------

    def parse_type(self) -> ast.TypeExpr:
        tok = self.peek()
        if tok.is_keyword("word"):
            self.next()
            if self.accept_punct("["):
                length = self.expect_int()
                self.expect_punct("]")
                return ast.WordArrayTE(length.value or 0, span=tok.span)
            return ast.WordTE(span=tok.span)
        if tok.is_keyword("bool"):
            self.next()
            return ast.BoolTE(span=tok.span)
        if tok.is_keyword("unit"):
            self.next()
            return ast.UnitTE(span=tok.span)
        if tok.is_keyword("packed") or tok.is_keyword("unpacked"):
            self.next()
            self.expect_punct("(")
            layout = self.parse_layout_expr()
            self.expect_punct(")")
            cls = ast.PackedTE if tok.text == "packed" else ast.UnpackedTE
            return cls(layout, span=tok.span)
        if tok.is_keyword("exn"):
            self.next()
            self.expect_punct("(")
            if self.accept_punct(")"):
                return ast.ExnTE(ast.UnitTE(span=tok.span), span=tok.span)
            arg = self.parse_type()
            self.expect_punct(")")
            return ast.ExnTE(arg, span=tok.span)
        if tok.is_punct("("):
            self.next()
            if self.accept_punct(")"):
                return ast.UnitTE(span=tok.span)
            elems = [self.parse_type()]
            while self.accept_punct(","):
                elems.append(self.parse_type())
            self.expect_punct(")")
            if len(elems) == 1:
                return elems[0]
            return ast.TupleTE(elems, span=tok.span)
        if tok.is_punct("["):
            self.next()
            fields: list[tuple[str, ast.TypeExpr]] = []
            while not self.check_punct("]"):
                name = self.expect_ident()
                self.expect_punct(":")
                fields.append((name.text, self.parse_type()))
                if not self.accept_punct(","):
                    break
            self.expect_punct("]")
            return ast.RecordTE(fields, span=tok.span)
        raise ParseError(f"expected type, found '{tok}'", tok.span)

    # -- patterns ----------------------------------------------------------

    def parse_pattern(self) -> ast.Pattern:
        tok = self.peek()
        if tok.kind is TokenKind.IDENT:
            if tok.text == "_":
                self.next()
                return ast.WildPat(span=tok.span)
            self.next()
            ty = None
            if self.accept_punct(":"):
                ty = self.parse_type()
            return ast.VarPat(tok.text, ty, span=tok.span)
        if tok.is_punct("("):
            self.next()
            if self.accept_punct(")"):
                return ast.TuplePat([], span=tok.span)
            elems = [self.parse_pattern()]
            while self.accept_punct(","):
                elems.append(self.parse_pattern())
            self.expect_punct(")")
            if len(elems) == 1:
                return elems[0]
            return ast.TuplePat(elems, span=tok.span)
        if tok.is_punct("["):
            self.next()
            fields: list[tuple[str, ast.Pattern]] = []
            while not self.check_punct("]"):
                name = self.expect_ident()
                if self.accept_punct("="):
                    pat: ast.Pattern = self.parse_pattern()
                elif self.accept_punct(":"):
                    ty = self.parse_type()
                    pat = ast.VarPat(name.text, ty, span=name.span)
                else:
                    pat = ast.VarPat(name.text, None, span=name.span)
                fields.append((name.text, pat))
                if not self.accept_punct(","):
                    break
            self.expect_punct("]")
            return ast.RecordPat(fields, span=tok.span)
        raise ParseError(f"expected pattern, found '{tok}'", tok.span)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self.parse_binary(0)

    def parse_binary(self, level: int) -> ast.Expr:
        if level >= len(_BINOP_LEVELS):
            return self.parse_unary()
        left = self.parse_binary(level + 1)
        ops = _BINOP_LEVELS[level]
        while self.peek().kind is TokenKind.PUNCT and self.peek().text in ops:
            op = self.next()
            right = self.parse_binary(level + 1)
            left = ast.BinOp(op.text, left, right, span=op.span)
        return left

    def parse_unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind is TokenKind.PUNCT and tok.text in ("-", "~", "!"):
            self.next()
            operand = self.parse_unary()
            return ast.UnOp(tok.text, operand, span=tok.span)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_atom()
        while self.check_punct("."):
            dot = self.next()
            tok = self.peek()
            if tok.kind in (TokenKind.IDENT, TokenKind.INT):
                self.next()
                expr = ast.FieldAccess(expr, tok.text, span=dot.span)
            else:
                raise ParseError(f"expected field name, found '{tok}'", tok.span)
        return expr

    def parse_atom(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind is TokenKind.INT:
            self.next()
            return ast.IntLit(tok.value or 0, span=tok.span)
        if tok.is_keyword("true") or tok.is_keyword("false"):
            self.next()
            return ast.BoolLit(tok.text == "true", span=tok.span)
        if tok.text in _MEM_SPACES and tok.kind is TokenKind.KEYWORD:
            return self.parse_mem(tok.text)
        if tok.is_keyword("hash"):
            self.next()
            self.expect_punct("(")
            operand = self.parse_expr()
            self.expect_punct(")")
            return ast.HashOp(operand, span=tok.span)
        if tok.is_keyword("csr"):
            self.next()
            self.expect_punct("(")
            number = self.expect_int()
            self.expect_punct(")")
            if self.accept_punct("<-"):
                value = self.parse_expr()
                return ast.CsrOp(number.value or 0, value, span=tok.span)
            return ast.CsrOp(number.value or 0, None, span=tok.span)
        if tok.is_keyword("ctx_swap"):
            self.next()
            self.expect_punct("(")
            self.expect_punct(")")
            return ast.CtxSwap(span=tok.span)
        if tok.is_keyword("lock") or tok.is_keyword("unlock"):
            self.next()
            self.expect_punct("(")
            number = self.expect_int()
            self.expect_punct(")")
            return ast.LockOp(tok.text, number.value or 0, span=tok.span)
        if tok.is_keyword("pack") or tok.is_keyword("unpack"):
            self.next()
            self.expect_punct("[")
            layout = self.parse_layout_expr()
            self.expect_punct("]")
            if tok.text == "unpack":
                self.expect_punct("(")
                arg = self.parse_expr()
                self.expect_punct(")")
                return ast.UnpackExpr(layout, arg, span=tok.span)
            # pack accepts either a parenthesized expression or a record
            # literal directly: pack[l] [ f = ... ].
            if self.check_punct("["):
                arg = self.parse_record_literal()
            else:
                self.expect_punct("(")
                arg = self.parse_expr()
                self.expect_punct(")")
            return ast.PackExpr(layout, arg, span=tok.span)
        if tok.is_keyword("raise"):
            self.next()
            name = self.expect_ident()
            if self.check_punct("("):
                arg = self.parse_tuple_or_paren()
            elif self.check_punct("["):
                arg = self.parse_record_literal()
            else:
                arg = ast.UnitLit(span=tok.span)
            return ast.RaiseExpr(name.text, arg, span=tok.span)
        if tok.is_keyword("try"):
            self.next()
            body = self.parse_block()
            handlers: list[ast.Handler] = []
            while self.check_keyword("handle"):
                h = self.next()
                name = self.expect_ident()
                pat = self.parse_pattern()
                hbody = self.parse_block()
                handlers.append(ast.Handler(name.text, pat, hbody, span=h.span))
            if not handlers:
                raise ParseError("try without handlers", tok.span)
            return ast.TryExpr(body, handlers, span=tok.span)
        if tok.is_keyword("if"):
            self.next()
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            then_branch = self.parse_expr()
            else_branch = None
            if self.accept_keyword("else"):
                else_branch = self.parse_expr()
            return ast.IfExpr(cond, then_branch, else_branch, span=tok.span)
        if tok.is_keyword("while"):
            self.next()
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            body = self.parse_block()
            return ast.WhileExpr(cond, body, span=tok.span)
        if tok.kind is TokenKind.IDENT:
            self.next()
            if self.check_punct("("):
                arg = self.parse_tuple_or_paren()
                return ast.Call(tok.text, arg, span=tok.span)
            if self.check_punct("[") and self._looks_like_record_literal():
                arg = self.parse_record_literal()
                return ast.Call(tok.text, arg, span=tok.span)
            return ast.VarRef(tok.text, span=tok.span)
        if tok.is_punct("("):
            return self.parse_tuple_or_paren()
        if tok.is_punct("["):
            return self.parse_record_literal()
        if tok.is_punct("{"):
            return self.parse_block()
        raise ParseError(f"expected expression, found '{tok}'", tok.span)

    def _looks_like_record_literal(self) -> bool:
        """Distinguish ``f[x = 1]`` (record call) from a stray bracket."""
        if not self.peek().is_punct("["):
            return False
        if self.peek(1).is_punct("]"):
            return True
        return self.peek(1).kind is TokenKind.IDENT and self.peek(2).is_punct("=")

    def parse_mem(self, space: str) -> ast.Expr:
        tok = self.next()
        self.expect_punct("(")
        addr = self.parse_expr()
        count = None
        if self.accept_punct(","):
            count_tok = self.expect_int()
            count = count_tok.value
        self.expect_punct(")")
        if self.accept_punct("<-"):
            value = self.parse_expr()
            return ast.MemWrite(space, addr, value, span=tok.span)
        return ast.MemRead(space, addr, count, span=tok.span)

    def parse_tuple_or_paren(self) -> ast.Expr:
        tok = self.expect_punct("(")
        if self.accept_punct(")"):
            return ast.UnitLit(span=tok.span)
        elems = [self.parse_expr()]
        while self.accept_punct(","):
            elems.append(self.parse_expr())
        self.expect_punct(")")
        if len(elems) == 1:
            return elems[0]
        return ast.TupleExpr(elems, span=tok.span)

    def parse_record_literal(self) -> ast.Expr:
        tok = self.expect_punct("[")
        fields: list[tuple[str, ast.Expr]] = []
        while not self.check_punct("]"):
            name = self.expect_ident()
            if self.accept_punct("="):
                value = self.parse_expr()
            else:
                value = ast.VarRef(name.text, span=name.span)
            fields.append((name.text, value))
            if not self.accept_punct(","):
                break
        self.expect_punct("]")
        return ast.RecordExpr(fields, span=tok.span)

    # -- blocks and statements ----------------------------------------------

    def parse_block(self) -> ast.Block:
        tok = self.expect_punct("{")
        stmts: list[ast.Stmt] = []
        result: ast.Expr | None = None
        while not self.check_punct("}"):
            if self.check_keyword("fun"):
                fun_tok = self.next()
                decl = self.parse_fun_decl(fun_tok)
                stmts.append(ast.FunStmt(decl, span=fun_tok.span))
                continue
            if self.check_keyword("let"):
                let_tok = self.next()
                pat = self.parse_pattern()
                self.expect_punct("=")
                init = self.parse_expr()
                self.expect_punct(";")
                stmts.append(ast.LetStmt(pat, init, span=let_tok.span))
                continue
            if (
                self.peek().kind is TokenKind.IDENT
                and self.peek(1).is_punct(":=")
            ):
                name = self.next()
                self.next()  # :=
                value = self.parse_expr()
                self.expect_punct(";")
                stmts.append(ast.AssignStmt(name.text, value, span=name.span))
                continue
            expr = self.parse_expr()
            if self.accept_punct(";"):
                stmts.append(ast.ExprStmt(expr, span=expr.span))
            else:
                result = expr
                break
        self.expect_punct("}")
        return ast.Block(stmts, result, span=tok.span)

    # -- declarations ---------------------------------------------------------

    def parse_fun_decl(self, fun_tok) -> ast.FunDecl:
        """The part after the ``fun`` keyword (shared by top-level and
        nested declarations)."""
        name = self.expect_ident()
        if self.check_punct("(") or self.check_punct("["):
            param = self.parse_pattern()
        else:
            raise ParseError("expected parameter list", self.peek().span)
        if not isinstance(param, (ast.TuplePat, ast.RecordPat)):
            param = ast.TuplePat([param], span=param.span)
        ret = None
        if self.accept_punct(":"):
            ret = self.parse_type()
        body = self.parse_block()
        return ast.FunDecl(name.text, param, ret, body, span=fun_tok.span)

    def parse_program(self, filename: str) -> ast.Program:
        layouts: list[ast.LayoutDecl] = []
        funs: list[ast.FunDecl] = []
        while self.peek().kind is not TokenKind.EOF:
            tok = self.peek()
            if tok.is_keyword("layout"):
                self.next()
                name = self.expect_ident()
                self.expect_punct("=")
                layout = self.parse_layout_expr()
                self.expect_punct(";")
                layouts.append(ast.LayoutDecl(name.text, layout, span=tok.span))
            elif tok.is_keyword("fun"):
                self.next()
                funs.append(self.parse_fun_decl(tok))
            else:
                raise ParseError(
                    f"expected 'layout' or 'fun', found '{tok}'", tok.span
                )
        span = SourceSpan.unknown()
        return ast.Program(layouts, funs, span=span)


def parse_program(text: str, filename: str = "<nova>") -> ast.Program:
    """Parse a whole Nova compilation unit from source text."""
    return _Parser(tokenize(text, filename)).parse_program(filename)


def parse_expr(text: str, filename: str = "<nova>") -> ast.Expr:
    """Parse a single Nova expression (handy in tests)."""
    parser = _Parser(tokenize(text, filename))
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok.kind is not TokenKind.EOF:
        raise ParseError(f"trailing input: '{tok}'", tok.span)
    return expr
