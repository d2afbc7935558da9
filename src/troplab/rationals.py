"""Parsing, canonical serialization and the integer reading of scalars.

JSON carries exact values as integers or "p/q" strings; floats stay JSON
numbers.  Serialization is canonical (integer when the denominator is 1)
so identical inputs produce byte-identical output documents.

Exact work on scalars runs in integers: as_integers reads values by
their exact values, a float by its dyadic one, over one common
denominator, and quotient turns an integer answer back into the mode's
scalar, a float rounded once.
"""

import math
import numbers
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import ModeMixError, PreconditionError, SchemaError

Scalar = Union[Fraction, float]


def parse_rational(value, pointer: str = "/") -> Fraction:
    if isinstance(value, bool):
        raise SchemaError("expected a rational, got a boolean", pointer)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"cannot parse rational {value!r}", pointer)
    if isinstance(value, float):
        raise SchemaError(
            "float literal in exact context; write it as 'p/q'", pointer
        )
    raise SchemaError(f"cannot parse rational from {type(value).__name__}", pointer)


def parse_integer(value, pointer: str = "/", what: str = "expected an integer") -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(what, pointer)
    return value


def parse_size(doc: dict, key: str, size: int, of: str, pointer: str = ""):
    """Check doc[key], when given: an integer equal to size, the size of `of`."""
    if key in doc:
        what = f"{key} must be an integer equal to the size of {of}, not {doc[key]!r}"
        if parse_integer(doc[key], f"{pointer}/{key}", what) != size:
            raise SchemaError(what, f"{pointer}/{key}")


def parse_scalar(value, mode: str, pointer: str = "/") -> Scalar:
    """An exact value (parse_rational) or, in any other mode, a JSON number
    as a float; an integer past the double range fails `finite`."""
    if mode == "exact":
        return parse_rational(value, pointer)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError("expected a number in float mode", pointer)
    try:
        return float(value)
    except OverflowError:
        raise past_double(
            f"the number at {pointer}", Fraction(value), remedy="it is read as a float here"
        ) from None


def parse_object(
    doc, required=(), pointer: str = "", what: str = "expected a JSON object"
) -> dict:
    """doc, if it is a JSON object with every required key; a missing key
    fails at its own pointer."""
    if not isinstance(doc, dict):
        raise SchemaError(what, pointer or "/")
    for k in required:
        if k not in doc:
            raise SchemaError(f"missing required key {k!r}", f"{pointer}/{k}")
    return doc


def parse_array(raw, read, pointer: str = "", what: str = "", nonempty: bool = False) -> list:
    """read(entry, its pointer) of each entry of the JSON array raw."""
    if not isinstance(raw, list) or (nonempty and not raw):
        what = what or ("expected a nonempty array" if nonempty else "expected an array")
        raise SchemaError(what, pointer or "/")
    return [read(x, f"{pointer}/{j}") for j, x in enumerate(raw)]


def parse_rows(
    raw, read, pointer: str = "", what: str = "expected an array of arrays",
    row_what: str = "matrix rows must be arrays",
) -> List[list]:
    """read(entry, its pointer) of each entry of an array of arrays."""
    def row(r, here):
        return parse_array(r, read, here, row_what)

    return parse_array(raw, row, pointer, what)


def parse_vector(raw, mode: str, pointer: str = "", nonempty: bool = False) -> List[Scalar]:
    """An array of scalars in one arithmetic mode (parse_scalar)."""
    def scalar(x, here):
        return parse_scalar(x, mode, here)

    return parse_array(raw, scalar, pointer, nonempty=nonempty)


def parse_mode(doc: dict, pointer: str = "") -> str:
    """The arithmetic mode of the object doc at pointer: its "mode", "exact"
    when absent; any value but "exact" or "float" fails at /mode."""
    mode = doc.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise SchemaError(f"mode must be 'exact' or 'float', not {mode!r}", pointer + "/mode")
    return mode


def parse_matrix(raw, mode: str, pointer: str = "") -> List[List[Scalar]]:
    """An array of arrays of scalars in a checked mode (parse_mode); shape is unchecked."""
    return parse_rows(raw, lambda x, here: parse_scalar(x, mode, here), pointer)


def as_list(values, invariant: str, what: str) -> list:
    """values as a new list; values that are not iterable fail the
    invariant, with what saying what they must be."""
    try:
        return list(values)
    except TypeError:
        raise PreconditionError(invariant, f"{what}, not a {type(values).__name__}") from None


def matrix_rows(m, invariant: str, what: str, rows=None, cols=None) -> List[list]:
    """The rows of the matrix argument m as new lists: rows of them, each of
    cols entries, where given.  m, a row that is not an array or another
    shape fails the caller's shape invariant, with what saying what m must be."""
    out = [as_list(r, invariant, what) for r in as_list(m, invariant, what)]
    if rows not in (None, len(out)) or cols is not None and any(len(r) != cols for r in out):
        raise PreconditionError(invariant, what)
    return out


def integral_matrix(m, name: str, invariant: str = "integral") -> List[List[int]]:
    """The rows of the matrix argument m with each entry as the int it
    equals, read by its exact value: an int, Fraction or float that is
    integral counts.  A bool, text, any other value or a non-integral
    number fails the invariant at name[i][j], as does m or a row that is
    not an array."""
    return [
        [x if type(x) is int else _integer(x, invariant, f"{name}[{i}][{j}]")
         for j, x in enumerate(r)]
        for i, r in enumerate(matrix_rows(m, invariant, f"{name} must be a matrix"))
    ]


def _integer(x, invariant: str, where: str) -> int:
    if isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
        try:
            p, q = x.as_integer_ratio()
        except (OverflowError, ValueError):  # an infinite or NaN float
            q = 0
        if q == 1:
            return p
    raise PreconditionError(invariant, f"{where} is {x!r}, not an integer")


def check_symmetric(rows, name: str) -> None:
    """Fail `symmetric` at the first pair name[i][j] != name[j][i], i < j,
    of the square rows; the rows are left as they are."""
    for i, r in enumerate(rows):
        for j in range(i + 1, len(rows)):
            if r[j] != rows[j][i]:
                raise PreconditionError("symmetric", f"{name}[{i}][{j}] != {name}[{j}][{i}]")


def coerce_integer(value, invariant: str, what: str, low=None, high=None) -> int:
    """value, if it is an int but not a bool, in [low, high] where given;
    any other value fails the invariant, with what saying what it must be."""
    if isinstance(value, bool) or not isinstance(value, int) or not (
        (low is None or low <= value) and (high is None or value <= high)
    ):
        raise PreconditionError(invariant, what)
    return value


def coerce_number(value, invariant: str, what: str, complex_ok: bool = False):
    """value, if it is a real number (or, with complex_ok, a complex one)
    but not a bool; any other value fails the invariant, with what saying
    what it must be.  The caller checks its range."""
    kind = type(value)
    if kind is float or kind is int or kind is Fraction or complex_ok and kind is complex:
        return value
    if isinstance(value, bool) or not isinstance(
        value, numbers.Complex if complex_ok else numbers.Real
    ):
        raise PreconditionError(invariant, what)
    return value


def coerce_vector(
    values: Sequence, mode: Optional[str] = None, name: str = "entries"
) -> Tuple[List[Scalar], str]:
    """The values as a new list of Fractions ("exact") or floats ("float"), and the mode.

    With no mode, any float entry makes it "float", else "exact".  A float
    in exact mode raises ModeMixError, since converting it silently would
    hide that it was rounded; a float entry must be finite, or it fails the
    `finite` precondition naming name[j], as does an exact value past the
    double range.  Values that are not an array, or an entry that is no
    number, fail `numeric-entries`.
    """
    values = as_list(values, "numeric-entries", f"{name} must be an array")
    mode = _mode(mode, [values])
    return _entries(values, mode, name), mode


def _mode(mode: Optional[str], rows: List[list]) -> str:
    """mode, or with none "float" when an entry of the rows is a float, else "exact"."""
    if mode is None:
        return "float" if any(isinstance(x, float) for r in rows for x in r) else "exact"
    if mode not in ("exact", "float"):
        raise PreconditionError("arithmetic-mode", f"unknown mode {mode!r}")
    return mode


def _entries(values: list, mode: str, name: str, row: Optional[int] = None) -> List[Scalar]:
    """The list values in mode, as coerce_vector reads them; a failure
    names the entries name, or name[row] for a row of a matrix."""
    exact = mode == "exact"
    kind, convert = (Fraction, _fraction) if exact else (float, _float)
    try:
        # an entry already of its mode's type is kept, not copied
        out = [x if type(x) is kind else convert(x) for x in values]
        if exact or all(map(math.isfinite, out)):
            return out
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        out = None
    name = name if row is None else f"{name}[{row}]"
    if exact and any(isinstance(x, float) for x in values):
        raise ModeMixError(f"{name} has a float entry in exact mode; convert it explicitly")
    if out is None:
        raise _bad_entry(values, convert, name)
    j = next(j for j, x in enumerate(out) if not math.isfinite(x))
    raise PreconditionError("finite", f"{name}[{j}] is {out[j]!r}")


# Fraction() and float() read these too, as numeric text or as 0 and 1
_NOT_NUMBERS = (bool, str, bytes, bytearray)


def _fraction(x) -> Fraction:
    # a float in exact mode is a ModeMixError (_entries)
    if isinstance(x, (float, *_NOT_NUMBERS)):
        raise TypeError(x)
    return Fraction(x)


def _float(x) -> float:
    if isinstance(x, _NOT_NUMBERS):
        raise TypeError(x)
    return float(x)


def _bad_entry(values: Sequence, convert, name: str) -> PreconditionError:
    """The failure of the first value that convert (_fraction or _float) rejects."""
    for j, x in enumerate(values):
        try:
            convert(x)
        except OverflowError:
            return past_double(f"{name}[{j}]", Fraction(x))
        except (TypeError, ValueError, ZeroDivisionError):
            return PreconditionError("numeric-entries", f"{name}[{j}] is {x!r}, not a number")
    raise AssertionError("no entry fails to convert")


def coerce_matrix(
    rows: Sequence[Sequence], mode: Optional[str] = None, name: str = "entries"
) -> Tuple[List[List[Scalar]], str]:
    """Each row as coerce_vector reads it, as name[i], all in one mode, and the mode.

    With no mode, any float entry makes it "float", else "exact".  Rows
    that are not arrays fail `numeric-entries`.
    """
    rows = matrix_rows(rows, "numeric-entries", f"{name} must be an array of arrays")
    mode = _mode(mode, rows)
    return [_entries(r, mode, name, i) for i, r in enumerate(rows)], mode


def integer_rows(rows: Iterable[Iterable]) -> Tuple[List[List[int]], int]:
    """(g, den): den is the lcm of the denominators of the exact values in
    the rows, which may differ in length, and g[i][j] = den * rows[i][j],
    so the integers hold the matrix exactly."""
    ratios = [[x.as_integer_ratio() for x in r] for r in rows]
    den = math.lcm(*(q for r in ratios for _, q in r))
    return [[p * (den // q) for p, q in r] for r in ratios], den


def as_integers(values: Iterable) -> Tuple[List[int], int]:
    """(nums, den): integer_rows of the one row values."""
    (nums,), den = integer_rows([values])
    return nums, den


def square_range(c, room, d) -> range:
    """The integers x with d (x + c)^2 <= room, for d > 0, with c, room and
    d read at their exact values: for c = p/q and room/d = a/b, those with
    |q x + p| <= isqrt(q^2 a // b), and none when room < 0."""
    p, q = c.as_integer_ratio()
    a, b = room.as_integer_ratio()
    e, f = d.as_integer_ratio()
    t = q * q * a * f // (b * e)
    if t < 0:
        return range(0)
    s = math.isqrt(t)
    return range(-((s + p) // q), (s - p) // q + 1)


def quotient(mode: str, num: int, den: int) -> Scalar:
    """num / den: a Fraction, or in float mode the double nearest to it.

    A float answer past the double range fails the `finite` precondition.
    """
    if mode == "exact":
        return Fraction(num, den)
    try:
        return num / den
    except OverflowError:
        raise past_double("a float answer", Fraction(num, den)) from None


def past_double(
    what: str, x: Fraction, root: int = 1, remedy: str = "use mode exact"
) -> PreconditionError:
    """The `finite` failure of a float answer x^(1/root) past the double range."""
    # log10 reads integers of any size, where float(x) would overflow
    e = (math.log10(abs(x.numerator)) - math.log10(x.denominator)) / root
    sign = "-" if x < 0 else ""
    return PreconditionError(
        "finite",
        f"{what} is {sign}{10 ** (e % 1):.3g}e+{math.floor(e)}, past the double range; {remedy}",
    )


def exponent_split(x: Fraction, n: int) -> Tuple[float, int]:
    """(y, k) with x = 2^(kn) y and y a double near 1, for an exact x > 0
    of any size: 2^k y^(1/n) is then the n-th root of x, with the root
    taken in floats and only the final ldexp able to overflow."""
    k = (x.numerator.bit_length() - x.denominator.bit_length()) // n
    return float(x / Fraction(2) ** (k * n)), k


def round_half_away(num: int, den: int) -> int:
    """num / den (den > 0) rounded to the nearest integer, half away from 0."""
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    return q if num >= 0 else -q


def nearest_int(x) -> int:
    """x rounded half away from zero; a float is read by its exact value."""
    return round_half_away(*x.as_integer_ratio())


def format_rational(value: Fraction):
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def format_scalar(value: Scalar):
    if isinstance(value, Fraction):
        return format_rational(value)
    return float(value)
