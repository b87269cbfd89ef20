import logging
import re
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from codecomp import embeddings, tensor
from codecomp.embeddings import (
    EmbeddingMatrix,
    _read_text_checked,
    read_binary_matrix,
    read_text_embeddings,
    write_binary_matrix,
    write_text_embeddings,
)
from codecomp.errors import ConfigError, DataError
from codecomp.synthetic import synthetic_embeddings

# The 29 code points str.split() splits on, which are the text reader's
# field separators.
WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
              + "".join(map(chr, range(0x2000, 0x200B)))
              + "\u2028\u2029\u202f\u205f\u3000")
# The 27 that can sit inside a line: text-mode reads end lines at \n and \r.
INLINE_WHITESPACE = WHITESPACE.replace("\n", "").replace("\r", "")


class TestEmbeddingMatrix:
    def test_casts_to_float32(self):
        emb = EmbeddingMatrix(vocab=["a"], matrix=np.array([[1.0, 2.0]]))
        assert emb.matrix.dtype == np.float32
        assert emb.vocab_size == 1
        assert emb.dim == 2

    def test_rejects_duplicate_words(self):
        with pytest.raises(DataError):
            EmbeddingMatrix(vocab=["a", "a"], matrix=np.zeros((2, 2)))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ConfigError):
            EmbeddingMatrix(vocab=["a"], matrix=np.zeros((2, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigError):
            EmbeddingMatrix(vocab=["a"], matrix=np.zeros(3))


class TestTextFormat:
    def test_basic_read(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("the 0.1 -0.2 0.3\nof 1.5 2.5 -3.5\n")
        emb = read_text_embeddings(path)
        assert emb.vocab == ["the", "of"]
        assert emb.matrix.shape == (2, 3)
        assert emb.matrix[1, 2] == np.float32(-3.5)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\n\n\nb 3 4\n")
        emb = read_text_embeddings(path)
        assert emb.vocab == ["a", "b"]

    def test_limit_takes_first_lines(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("".join(f"w{i} {i} {i}\n" for i in range(10)))
        emb = read_text_embeddings(path, limit=4)
        assert emb.vocab == ["w0", "w1", "w2", "w3"]

    def test_dimension_error_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2 3\nb 4 5\n")
        with pytest.raises(DataError, match="line 2"):
            read_text_embeddings(path)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb x 4\n")
        with pytest.raises(DataError, match="line 2"):
            read_text_embeddings(path)

    def test_word_with_no_vector(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("lonely\n")
        with pytest.raises(DataError, match="no vector"):
            read_text_embeddings(path)

    def test_duplicate_word_keeps_first_and_warns(self, tmp_path, caplog):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 3 4\na 9 9\n")
        with caplog.at_level(logging.WARNING, logger="codecomp.embeddings"):
            emb = read_text_embeddings(path)
        assert emb.vocab == ["a", "b"]
        assert emb.matrix[0, 0] == 1.0
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = tensor.new_rng(42)
        emb = EmbeddingMatrix(
            vocab=[f"w{i}" for i in range(30)],
            matrix=rng.standard_normal((30, 7)).astype(np.float32) * 100,
        )
        path = tmp_path / "emb.txt"
        write_text_embeddings(emb, path)
        again = read_text_embeddings(path)
        assert again.vocab == emb.vocab
        assert np.array_equal(
            again.matrix.view(np.uint32), emb.matrix.view(np.uint32)
        )

    def test_reads_seventeen_digit_files_too(self, tmp_path):
        # Files written before values were %.9g hold repr of the float64 widening.
        values = np.array([0.1, -2.5999155, 1e-45, 3.4028235e38], dtype=np.float32)
        path = tmp_path / "emb.txt"
        path.write_text("w " + " ".join(map(repr, values.tolist())) + "\n")
        assert "0.10000000149011612" in path.read_text()
        again = read_text_embeddings(path)
        assert np.array_equal(again.matrix[0].view(np.uint32), values.view(np.uint32))

    def test_empty_word_rejected_on_write(self, tmp_path):
        emb = EmbeddingMatrix(vocab=["ok", ""], matrix=np.zeros((2, 2)))
        path = tmp_path / "emb.txt"
        with pytest.raises(DataError, match="word '' cannot be written"):
            write_text_embeddings(emb, path)
        assert not path.exists()

    def test_whitespace_is_what_the_reader_splits_on(self):
        splits = [c for c in map(chr, range(sys.maxunicode + 1))
                  if len(f"a{c}b".split()) == 2]
        assert "".join(splits) == WHITESPACE and len(WHITESPACE) == 29

    @pytest.mark.parametrize("space", WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
    def test_word_with_whitespace_rejected_on_write(self, tmp_path, space):
        path = tmp_path / "emb.txt"
        for word in (space, f"a{space}b", f"a{space}"):
            emb = EmbeddingMatrix(vocab=["ok", word], matrix=np.zeros((2, 2)))
            with pytest.raises(DataError, match=re.escape(f"word {word!r} cannot be written")):
                write_text_embeddings(emb, path)
        assert not path.exists()

    def test_non_whitespace_words_round_trip(self, tmp_path):
        # U+200B ZERO WIDTH SPACE is not whitespace to str.split().
        vocab = ["a\u200bb", "na\u00efve"]
        emb = EmbeddingMatrix(vocab=vocab, matrix=np.eye(2))
        path = tmp_path / "emb.txt"
        write_text_embeddings(emb, path)
        assert read_text_embeddings(path).vocab == vocab

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        emb = read_text_embeddings(path)
        assert emb.vocab_size == 0
        assert emb.matrix.shape == (0, 0)
        assert emb.matrix.dtype == np.float32

    def test_whitespace_only_file_is_empty(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"\n  \t\n\r\n")
        assert read_text_embeddings(path).matrix.shape == (0, 0)

    def test_bad_value_on_duplicate_line_names_its_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 3 4\na 5 oops\n")
        with pytest.raises(DataError, match=r"line 3: .*'oops'"):
            read_text_embeddings(path)

    def test_limit_counts_duplicate_lines(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1\n\na 2\nb 3\n")
        emb = read_text_embeddings(path, limit=2)
        assert emb.vocab == ["a"]
        assert emb.matrix.tolist() == [[1.0]]

    def test_not_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"a 1.0 2.0\n\xff 3.0 4.0\n")
        with pytest.raises(DataError, match="not UTF-8"):
            read_text_embeddings(path)

    @pytest.mark.parametrize("limit", [None, 2, 3])
    def test_blank_lines_raise_no_warning(self, tmp_path, limit):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\n\n \t\nb 3 4\n\x0c\n\u3000 \na 5 6\n  \nc 7 8\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emb = read_text_embeddings(path, limit=limit)
            want = _read_text_checked(path, limit)
        assert emb.vocab == want.vocab
        assert np.array_equal(emb.matrix, want.matrix)

    def test_clean_files_skip_the_checked_path(self, tmp_path):
        rng = tensor.new_rng(8)
        matrix = rng.standard_normal((40, 9)).astype(np.float32)
        emb = EmbeddingMatrix(vocab=[f"w{i}" for i in range(40)], matrix=matrix)
        written, long = tmp_path / "written.txt", tmp_path / "repr.txt"
        write_text_embeddings(emb, written)
        long.write_text("".join(f"w{i} " + " ".join(map(repr, row)) + "\n"
                                for i, row in enumerate(matrix.tolist())))
        assert max(map(significant_digits, long.read_text().split())) == 17
        with mock.patch.object(embeddings, "_read_text_checked",
                               side_effect=AssertionError("checked path ran")):
            for path in (written, long):
                again = read_text_embeddings(path)
                assert again.vocab == emb.vocab
                assert np.array_equal(again.matrix.view(np.uint32), matrix.view(np.uint32))

    def test_values_only_float_reads_take_the_checked_path(self, tmp_path):
        # float() reads underscores and any Unicode decimal digits; numpy's
        # reader rejects both, so this file is read line by line.
        path = tmp_path / "emb.txt"
        path.write_text("a 1_5 0.25\nb \u0661\u0662 -3\n")
        with mock.patch.object(embeddings, "_read_text_checked",
                               wraps=_read_text_checked) as checked:
            emb = read_text_embeddings(path)
        checked.assert_called_once_with(path, None)
        assert emb.vocab == ["a", "b"]
        want = np.array([[float("1_5"), 0.25], [float("\u0661\u0662"), -3.0]], np.float32)
        assert want[1, 0] == 12.0
        assert np.array_equal(emb.matrix.view(np.uint32), want.view(np.uint32))


def text_round_trip(matrix, path):
    """Write matrix as text, read it back, return the float32 bits read."""
    matrix = np.asarray(matrix, dtype=np.float32)
    emb = EmbeddingMatrix(vocab=[f"w{i}" for i in range(len(matrix))], matrix=matrix)
    write_text_embeddings(emb, path)
    again = read_text_embeddings(path)
    assert again.vocab == emb.vocab
    return again.matrix.view(np.uint32)


def significant_digits(field):
    """Digits of a %g field's mantissa from its first non-zero one (0 for inf)."""
    mantissa = field.lower().split("e")[0]
    return len("".join(ch for ch in mantissa if ch.isdigit()).lstrip("0"))


F32 = np.finfo(np.float32)
EDGE_VALUES = [
    0.0, -0.0,
    F32.smallest_subnormal, -F32.smallest_subnormal,  # 2^-149, about 1.4e-45
    F32.tiny - F32.smallest_subnormal,  # the largest subnormal
    F32.tiny, -F32.tiny,  # the smallest normal
    F32.max, -F32.max, np.inf, -np.inf,
    *(np.nextafter(np.float32(10.0 ** e), np.float32(to))
      for e in range(-45, 39) for to in (0.0, np.inf)),
    *(np.float32(10.0 ** e) for e in range(-45, 39)),
]


class TestTextWriter:
    """Values are written %.9g and read back to the same float32 bits."""

    def test_exact_bytes(self, tmp_path):
        matrix = np.array([[-0.0, F32.smallest_subnormal, 3.4028235e38],
                           [0.1, 1.0, -2.5]], dtype=np.float32)
        path = tmp_path / "emb.txt"
        write_text_embeddings(EmbeddingMatrix(vocab=["a", "b"], matrix=matrix), path)
        assert path.read_bytes() == (b"a -0 1.40129846e-45 3.40282347e+38\n"
                                     b"b 0.100000001 1 -2.5\n")

    def test_no_value_has_more_than_nine_significant_digits(self, tmp_path):
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((50, 40)) * 10.0 ** rng.integers(-40, 38, (50, 40))
        matrix[0] = EDGE_VALUES[:40]
        path = tmp_path / "emb.txt"
        text_round_trip(matrix, path)
        fields = [f for line in path.read_text().splitlines() for f in line.split()[1:]]
        assert len(fields) == 50 * 40
        assert max(map(significant_digits, fields)) == 9

    def test_significant_digits_helper(self):
        assert [significant_digits(f) for f in
                ["-0", "1", "0.100000001", "1.40129846e-45", "-3.40282347e+38",
                 "1e+10", "0.000123", "inf"]] == [0, 1, 9, 9, 9, 1, 3, 0]

    def test_named_edge_values(self, tmp_path):
        values = np.array(EDGE_VALUES, dtype=np.float32)
        bits = text_round_trip(values[None, :], tmp_path / "emb.txt")
        assert np.array_equal(bits[0], values.view(np.uint32))

    def test_million_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(2026)
        bits = rng.integers(0, 2 ** 32, size=(4000, 250), dtype=np.uint32)
        # An all-ones exponent is inf or NaN: clearing its top bit keeps it finite.
        bits[(bits & 0x7F800000) == 0x7F800000] ^= 0x40000000
        values = bits.view(np.float32)
        assert values.size == 10 ** 6 and np.isfinite(values).all()
        assert np.array_equal(text_round_trip(values, tmp_path / "emb.txt"), bits)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(width=32, allow_nan=False), min_size=1, max_size=100))
    def test_any_float32_round_trips(self, row):
        values = np.array([row], dtype=np.float32)
        with tempfile.TemporaryDirectory() as tmp:
            bits = text_round_trip(values, Path(tmp) / "emb.txt")
        assert np.array_equal(bits, values.view(np.uint32))


def list_reader(path, limit=None):
    """Reference reader: each line's values as a list of Python floats, and
    one conversion of all the lists to float32 at the end."""
    vocab = []
    seen = {}
    rows = []
    dim = None
    consumed = 0
    log = logging.getLogger("codecomp.embeddings")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                if limit is not None and consumed >= limit:
                    break
                consumed += 1
                parts = line.split()
                word, fields = parts[0], parts[1:]
                if dim is None:
                    dim = len(fields)
                    if dim == 0:
                        raise DataError(f"{path}: line {lineno}: no vector values")
                elif len(fields) != dim:
                    raise DataError(
                        f"{path}: line {lineno}: expected {dim} values, "
                        f"got {len(fields)}"
                    )
                try:
                    values = [float(f) for f in fields]
                except ValueError as exc:
                    raise DataError(f"{path}: line {lineno}: {exc}") from exc
                if word in seen:
                    log.warning(
                        "%s: line %d: duplicate word %r, keeping first occurrence",
                        path, lineno, word,
                    )
                    continue
                seen[word] = True
                vocab.append(word)
                rows.append(values)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if dim is None:
        dim = 0
    matrix = np.asarray(rows, dtype=np.float32).reshape(len(vocab), dim)
    return EmbeddingMatrix(vocab=vocab, matrix=matrix)


def outcome(reader, path, limit):
    """(words, matrix bits, shape, warnings) or the DataError's text."""
    logger = logging.getLogger("codecomp.embeddings")
    with mock.patch.object(logger, "warning") as warn, np.errstate(over="ignore"):
        try:
            emb = reader(path, limit=limit)
        except DataError as exc:
            return "error", str(exc), warn.call_args_list
    bits = emb.matrix.view(np.uint32).tolist()
    return emb.vocab, bits, emb.matrix.shape, warn.call_args_list


VALUES = st.one_of(
    st.floats(width=32, allow_nan=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "-inf", "1e39", "-1e-50", "+.5", "7"]),
)
# float() reads these and numpy's reader does not. A file holding one, a
# BAD_VALUES entry or a ragged line is read again by the checked path.
FLOAT_ONLY_VALUES = st.sampled_from(["1_5", "\u0661\u0662"])
BAD_VALUES = st.sampled_from(["0x1p3", "x", "1e", "--1"])
# Any run of in-line whitespace. \x0c, \x1c, \x85 and \u2028 end a line
# for str.splitlines but not for text-mode reads, so they sit inside lines.
SEPARATORS = st.sampled_from([" ", "\t", "  "]) | st.text(
    st.sampled_from(INLINE_WHITESPACE), min_size=1, max_size=3)
PADDING = st.sampled_from(["", "", " ", "\t"]) | st.text(
    st.sampled_from("\x0c\x1c\x85\u2028\u3000 "), min_size=1, max_size=2)
# Words numpy's reader could take for a comment, a quote or a number.
WORDS = st.sampled_from(["a", "b", "c", "d", "\u00e9t\u00e9", "#a", '"a', "nan", "1.5"])


@st.composite
def text_files(draw):
    """Random text embedding files, a limit, and whether numpy's reader
    should read the file alone: blank and whitespace-only lines, any
    whitespace between fields, CRLF and CR endings, duplicate words, and in
    some files the odd bad value, ragged line or value only float() reads."""
    dim = draw(st.integers(1, 4))
    faulty = draw(st.booleans())
    values = st.one_of(VALUES, FLOAT_ONLY_VALUES) if faulty else VALUES
    kinds = ["row"] * 12 + ["blank"] * 2 + (["bad", "ragged"] if faulty else [])
    lines = []
    rows = 0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            line = draw(PADDING)
        else:
            rows += 1
            width = draw(st.integers(0, dim + 1)) if kind == "ragged" else dim
            fields = draw(st.lists(values, min_size=width, max_size=width))
            if kind == "bad":
                fields[draw(st.integers(0, dim - 1))] = draw(BAD_VALUES)
            line = draw(WORDS) + "".join(draw(SEPARATORS) + f for f in fields)
            line = draw(PADDING) + line + draw(PADDING)
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    limit = draw(st.none() | st.integers(-1, len(lines) + 1))
    # An empty read is left to the checked path, which tells no line from no values.
    clean = not faulty and rows > 0 and (limit is None or limit > 0)
    return "".join(lines), limit, clean


@settings(max_examples=150, deadline=None)
@given(text_files())
def test_reader_equals_list_reference(case):
    text, limit, clean = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.txt"
        path.write_bytes(text.encode())
        with mock.patch.object(embeddings, "_read_text_checked",
                               wraps=_read_text_checked) as checked:
            got = outcome(read_text_embeddings, path, limit)
        assert got == outcome(list_reader, path, limit)
        if clean:
            checked.assert_not_called()


def test_reader_equals_list_reference_on_a_wide_file(tmp_path):
    emb, _, _ = synthetic_embeddings(M=4, K=8, H=300, vocab_size=700,
                                     noise_std=0.5, seed=3)
    path = tmp_path / "emb.txt"
    write_text_embeddings(emb, path)
    with path.open("a") as fh:
        fh.write("w5 " + " ".join(["1.0"] * 300) + "\n")  # a duplicate
    assert outcome(read_text_embeddings, path, None) == outcome(list_reader, path, None)


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        rng = tensor.new_rng(3)
        emb = EmbeddingMatrix(
            vocab=["alpha", "été", "w3"],
            matrix=rng.standard_normal((3, 5)).astype(np.float32),
        )
        path = tmp_path / "emb.bin"
        write_binary_matrix(emb, path)
        again = read_binary_matrix(path)
        assert again.vocab == emb.vocab
        assert np.array_equal(again.matrix, emb.matrix)

    @pytest.mark.parametrize("limit", [1, 3, 5, 6])
    def test_limit_reads_the_first_rows_and_words(self, tmp_path, limit):
        emb = EmbeddingMatrix(vocab=["a", "bb", "日本", "d", "e"],
                              matrix=np.arange(15, dtype=np.float32).reshape(5, 3))
        path = tmp_path / "emb.bin"
        write_binary_matrix(emb, path)
        again = read_binary_matrix(path, limit=limit)
        assert again.vocab == emb.vocab[:limit]
        assert np.array_equal(again.matrix, emb.matrix[:limit])
        assert again.matrix.base is None  # its own rows, not a view of them all

    def test_header_bytes(self, tmp_path):
        emb = EmbeddingMatrix(vocab=["a"], matrix=np.zeros((1, 2)))
        path = tmp_path / "emb.bin"
        write_binary_matrix(emb, path)
        raw = path.read_bytes()
        assert raw[:4] == b"DEM1"
        assert raw[4] == 1
        assert np.frombuffer(raw[5:13], dtype="<u4").tolist() == [1, 2]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"WHAT" + bytes(20))
        with pytest.raises(DataError, match="magic"):
            read_binary_matrix(path)

    def test_truncation_names_byte_counts(self, tmp_path):
        emb = EmbeddingMatrix(vocab=["a", "b"], matrix=np.ones((2, 3)))
        path = tmp_path / "emb.bin"
        write_binary_matrix(emb, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(DataError, match="expected 24 bytes"):
            read_binary_matrix(path)

    def test_truncated_vocab(self, tmp_path):
        emb = EmbeddingMatrix(vocab=["abcdef", "ghijkl"], matrix=np.ones((2, 2)))
        path = tmp_path / "emb.bin"
        write_binary_matrix(emb, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError, match="truncated vocabulary"):
            read_binary_matrix(path)


class TestSyntheticGenerator:
    def test_shapes_and_determinism(self):
        emb, codes, books = synthetic_embeddings(M=3, K=4, H=6, vocab_size=50,
                                                 noise_std=0.01, seed=5)
        assert emb.matrix.shape == (50, 6)
        assert codes.codes.shape == (50, 3)
        assert books.vectors.shape == (12, 6)
        emb2, codes2, _ = synthetic_embeddings(M=3, K=4, H=6, vocab_size=50,
                                               noise_std=0.01, seed=5)
        assert np.array_equal(emb.matrix, emb2.matrix)
        assert (codes2.M, codes2.K) == (3, 4)
        assert np.array_equal(codes.codes, codes2.codes)

    def test_embeddings_sit_near_compositional_sums(self):
        from codecomp.codec import reconstruct_all

        emb, codes, books = synthetic_embeddings(M=4, K=8, H=16, vocab_size=200,
                                                 noise_std=0.01, seed=9)
        clean = reconstruct_all(codes, books, vocab=emb.vocab)
        resid = emb.matrix.astype(np.float64) - clean.matrix.astype(np.float64)
        # Residuals are the injected Gaussian noise.
        assert abs(float(resid.std()) - 0.01) < 0.002
        assert float(np.abs(resid).max()) < 0.01 * 6

    def test_codebook_entries_bounded(self):
        _, _, books = synthetic_embeddings(M=2, K=4, H=5, vocab_size=30,
                                           noise_std=0.0, seed=1)
        assert float(np.abs(books.vectors).max()) <= 1.0

    def test_zero_noise_is_exactly_compositional(self):
        from codecomp.codec import reconstruct_all

        emb, codes, books = synthetic_embeddings(M=2, K=4, H=5, vocab_size=30,
                                                 noise_std=0.0, seed=2)
        clean = reconstruct_all(codes, books, vocab=emb.vocab)
        assert np.array_equal(emb.matrix, clean.matrix)
