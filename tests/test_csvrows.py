"""Differential tests of the CSV row formatter against ``repr`` and ``str``.

Every float must come out exactly as Python prints it, so the references
below are ``repr`` and ``str`` themselves, over arbitrary bit patterns, over
tail-shaped columns chunked as a CSV writer chunks them, and over the values
where shortest-digit algorithms go wrong: powers of two (whose rounding
interval is asymmetric), powers of ten and their neighbours, and the
fixed/exponent boundaries of the layout.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from rarehit._csvrows import _K_MAX, _K_MIN, _g, rows_text


def _lines(values) -> list[str]:
    return rows_text([np.asarray(values)]).split("\n")[:-1]


def _check_floats(x: np.ndarray) -> None:
    values = x.tolist()
    assert _lines(x) == [repr(v) for v in values]
    assert _lines(x) == [str(v) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_float_bit_patterns_print_as_repr(bits):
    # negatives, subnormals, infinities and NaNs included
    _check_floats(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_uint64_print_as_str(k):
    assert _lines(np.array(k, dtype=np.uint64)) == [str(v) for v in k]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=40))
def test_int64_print_as_str(k):
    assert _lines(np.array(k, dtype=np.int64)) == [str(v) for v in k]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.floats(allow_nan=False), st.floats()),
                min_size=1, max_size=30),
       st.booleans())
def test_rows_match_an_f_string(rows, empty_last):
    k, x, y = (np.array(c) for c in zip(*rows))
    text = rows_text([k, x, None if empty_last else y])
    assert text == "".join(f"{a},{b!r},{'' if empty_last else repr(c)}\n" for a, b, c in rows)


def _tail_column(data, rows: int) -> np.ndarray:
    """``rows`` non-increasing values in (0, 1] as a tail table holds them:
    1.0, then a decay that crosses 1e-4 (where repr switches from fixed to
    exponent notation), then subnormals and zeros at the end."""
    subnormal, zero = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 2))
    decay = rows - 1 - subnormal - zero
    low = data.draw(st.floats(1e-12, 9e-5))  # the last normal value, below 1e-4
    body = np.exp(np.linspace(0.0, np.log(low), decay + 1))[1:] * data.draw(st.floats(0.5, 1.0))
    tiny = data.draw(st.lists(st.integers(1, (1 << 52) - 1), min_size=subnormal,
                              max_size=subnormal))
    tiny = np.sort(np.array(tiny, dtype=np.uint64))[::-1].view(np.float64)
    return np.concatenate(([1.0], np.minimum.accumulate(body), tiny, np.zeros(zero)))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 128), st.data())
def test_tail_shaped_chunks_match_an_f_string(chunk, data):
    # a row count that is not a multiple of the chunk size
    rows = chunk * data.draw(st.integers(1, 5)) + data.draw(st.integers(1, chunk - 1)) + 6
    rows += rows % chunk == 0
    hit, ret = _tail_column(data, rows), _tail_column(data, rows)
    assert np.all(np.diff(hit) <= 0) and (hit < 1e-4).any() and (hit >= 1e-4).any()
    k = np.arange(rows)
    text = "".join(rows_text([k[lo:lo + chunk], hit[lo:lo + chunk], ret[lo:lo + chunk]])
                   for lo in range(0, rows, chunk))
    assert text == "".join(f"{a},{b!r},{c!r}\n" for a, b, c in zip(k.tolist(), hit.tolist(),
                                                                   ret.tolist()))


def test_every_power_of_two():
    e = np.arange(-1074, 1024)
    p = np.ldexp(1.0, e)
    _check_floats(p)
    _check_floats(np.nextafter(p, 0.0))
    _check_floats(np.nextafter(p, np.inf))


def test_powers_of_ten_and_their_neighbours():
    p = 10.0 ** np.arange(-323, 309)
    _check_floats(np.concatenate((p, np.nextafter(p, 0.0), np.nextafter(p, np.inf))))


def test_fixed_and_exponent_boundaries():
    _check_floats(np.array([0.0, -0.0, 1e-05, 0.0001, 9.999999999999999e-05, 1e16,
                            9999999999999998.0, 1e15, 123456789012345.67, 0.5, 1.0, 2.0,
                            5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                            1e22, 1e23, 9007199254740993.0, 0.1, 0.3, 2 / 3]))


def test_random_normal_doubles():
    rng = np.random.default_rng(20201016)
    bits = rng.integers(1 << 52, 0x7FF << 52, size=100_000, dtype=np.uint64)
    _check_floats(bits.view(np.float64))
    # short significands: few mantissa bits set, many trailing zero digits
    _check_floats((bits & ~np.uint64((1 << 40) - 1)).view(np.float64))
    _check_floats(rng.random(100_000))


def test_g_table_is_in_range():
    # g = floor(10^-k / 2^r) + 1 with the quotient in [2^125, 2^126)
    assert all(1 << 125 < _g(k) <= 1 << 126 for k in range(_K_MIN, _K_MAX + 1))
