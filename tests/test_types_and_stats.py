"""Tests for the type-layer utilities and compiler statistics."""

from repro.compiler import SourceStats, compile_nova, CompileOptions
from repro.errors import NovaError, SourcePos, SourceSpan
from repro.nova import types as ty
from repro.nova.layouts import BitField, Gap, Seq
from repro.nova.parser import parse_program
from repro.nova.types import (
    Record,
    Tuple,
    flatten_paths,
    packed_type,
    unpacked_type,
    word_tuple,
)
from repro.trace import Tracer


class TestTypeLayer:
    def test_flat_width(self):
        assert ty.WORD.flat_width() == 1
        assert ty.UNIT.flat_width() == 0
        assert Tuple((ty.WORD, ty.BOOL)).flat_width() == 2
        nested = Record((("a", ty.WORD), ("b", Tuple((ty.WORD, ty.WORD)))))
        assert nested.flat_width() == 3

    def test_exceptions_and_arrows_are_not_data(self):
        assert ty.Exn(ty.WORD).flat_width() == 0
        assert ty.Arrow(ty.WORD, ty.WORD).flat_width() == 0

    def test_word_tuple_normalization(self):
        assert word_tuple(0) == ty.UNIT
        assert word_tuple(1) == ty.WORD
        assert word_tuple(3) == Tuple((ty.WORD,) * 3)

    def test_packed_type(self):
        layout = Seq((("a", BitField(16)), ("b", BitField(20))))
        assert packed_type(layout) == Tuple((ty.WORD, ty.WORD))

    def test_unpacked_skips_gaps(self):
        layout = Seq((("a", BitField(8)), ("", Gap(8)), ("b", BitField(16))))
        record = unpacked_type(layout)
        assert [name for name, _ in record.fields] == ["a", "b"]

    def test_flatten_paths(self):
        nested = Record(
            (("a", ty.WORD), ("b", Record((("c", ty.WORD), ("d", ty.WORD)))))
        )
        paths = [p for p, _ in flatten_paths(nested)]
        assert paths == [("a",), ("b", "c"), ("b", "d")]

    def test_flatten_paths_tuple_indices(self):
        paths = [p for p, _ in flatten_paths(Tuple((ty.WORD, ty.WORD)))]
        assert paths == [("0",), ("1",)]

    def test_record_field_lookup(self):
        record = Record((("x", ty.WORD),))
        assert record.field("x") == ty.WORD
        assert record.field("nope") is None

    def test_type_rendering(self):
        assert str(ty.WORD) == "word"
        assert str(Tuple((ty.WORD, ty.BOOL))) == "(word, bool)"
        assert str(Record((("a", ty.WORD),))) == "[a: word]"
        assert str(ty.Exn(ty.UNIT)) == "exn(unit)"


class TestDiagnostics:
    def test_span_rendering(self):
        span = SourceSpan(SourcePos(3, 7), SourcePos(3, 9), "x.nova")
        assert str(span) == "x.nova:3:7"
        assert str(NovaError("boom", span)) == "x.nova:3:7: boom"

    def test_error_without_span(self):
        assert str(NovaError("boom")) == "boom"

    def test_unknown_span(self):
        assert SourceSpan.unknown().filename == "<unknown>"


class TestSourceStats:
    def test_counts_all_features(self):
        source = """
        layout a = { x : 8, y : 24 };
        layout b = { z : 32 };
        fun f (p : packed(a)) : word {
          let u = unpack[a](p);
          let q = pack[b] [z = u.x];
          try {
            if (u.y > 1) raise E (u.y) else raise F ();
            0
          } handle E (v) { v } handle F () { q }
        }
        fun main (p) { f(p) }
        """
        program = parse_program(source)
        stats = SourceStats.of(source, program)
        assert stats.layouts == 2
        assert stats.unpacks == 1
        assert stats.packs == 1
        assert stats.raises == 2
        assert stats.handles == 2
        assert stats.line_count == len(source.splitlines())

    def test_phase_timings_recorded(self):
        options = CompileOptions()
        options.run_allocator = False
        tracer = Tracer()
        compile_nova("fun main (x) { x + 1 }", options=options, tracer=tracer)
        top = {s.name: s.seconds for s in tracer.spans if s.depth == 0}
        for phase in ("parse", "typecheck", "cps", "deproc", "optimize", "select"):
            assert phase in top
            assert top[phase] >= 0
