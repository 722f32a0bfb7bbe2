"""The three supported quantales, with exact arithmetic throughout.

A quantale here is a complete lattice together with a commutative,
join-continuous monoid operation (the tensor).  Three instances are
supported:

* ``boolean``    -- {False, True} ordered False < True, tensor = and.
* ``unit-oplus`` -- rationals in [0, 1] under the *reversed* numeric
  order, tensor = truncated addition.
* ``ext-plus``   -- rationals in [0, oo] (with an explicit infinity
  marker) under the reversed numeric order, tensor = extended addition.

Because the real-valued quantales reverse the order, the lattice meet is
the numeric maximum and the lattice join is the numeric minimum; the top
element is numeric 0 and the bottom is numeric 1 (resp. infinity).  All
arithmetic uses ``fractions.Fraction``; no floats appear anywhere.

Values are trusted inside the system.  ``leq``, ``join2``, ``meet2``,
``tensor`` and ``residuate`` assume canonical values of their quantale
(a ``bool``, a ``Fraction`` in range, or the ``INF`` singleton, tested
by identity) and check nothing; an operation on anything else gives an
undefined result.  Values are checked once, where they enter: only
``value_from_json`` (model, certificate and graph files) and
``vgraph.graph_from_entries`` (values written in code) call
``validate``, and ``galois.grid_values`` builds canonical values only.
The records that hold values (``VGraph``, a certificate's entries) and
the values computed from them, closures and liftings, are not checked
again; ``value_to_json`` writes a value as it is.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional, Tuple


class QuantaleError(TypeError):
    """Raised for values that do not belong to the quantale at hand."""


class _Infinity:
    """Singleton marker for the top point of [0, oo]."""

    __slots__ = ()
    _instance: Optional["_Infinity"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        return (_Infinity, ())


INF = _Infinity()

#: A quantale value is a bool, a Fraction, or the INF marker.
Value = object


def is_inf(v) -> bool:
    return v is INF


#: The rational constants of the real-valued quantales.
ZERO = Fraction(0)
ONE = Fraction(1)


#: The string grammar of ``Fraction``: a sign, ``p/q``, an integer or a
#: decimal, the last two with an exponent (group ``exp``), spaces around.
RATIONAL_LITERAL = re.compile(r"""\s*[-+]?(?=\d|\.\d)(\d*|\d+(_\d+)*)
    (/\d+(_\d+)*|(\.(\d*|\d+(_\d+)*))?(?P<exp>[eE][-+]?\d+(_\d+)*)?)\s*""",
                              re.VERBOSE)


def parse_rational(literal) -> Tuple[int, int]:
    """The numerator and denominator of a rational literal, a string or an
    int, in ``Fraction``'s grammar without exponent notation (for which
    ``Fraction`` builds the power of ten first: minutes for
    ``1e-99999999``).  Plain ``p`` and ``p/q`` in decimal digits are split
    and read by ``int``, with no ``Fraction`` built and the fraction not
    reduced; ``str.isdecimal`` accepts exactly the digits ``Fraction``'s
    ``\\d`` does.  Every other form (signs, decimals, underscores,
    surrounding spaces, ints) goes through ``Fraction``.  A zero
    denominator raises ``ZeroDivisionError``, a malformed literal
    ``ValueError``."""
    if isinstance(literal, str):
        num, bar, den = literal.partition("/")
        if num.isdecimal() and (den.isdecimal() or not bar):
            d = int(den) if bar else 1
            if d == 0:
                raise ZeroDivisionError(f"Fraction({num}, 0)")
            return int(num), d
        if "e" in literal or "E" in literal:
            match = RATIONAL_LITERAL.fullmatch(literal)
            if match and match["exp"]:
                raise ValueError(f"exponent notation in the rational literal "
                                 f"{literal!r}: write p/q, an integer or a decimal")
    f = Fraction(literal)
    return f.numerator, f.denominator


def as_fraction(v) -> Fraction:
    if isinstance(v, bool):
        raise QuantaleError("boolean value where a rational was expected")
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise QuantaleError(f"not an exact rational: {v!r}")


class Quantale:
    """Common interface of the three quantale instances.

    The lattice operations trust their operands: they assume canonical
    values of this quantale and do not check them.
    """

    ident: str = ""

    #: The lattice top, the lattice bottom and the tensor unit k; each
    #: instance binds them to module constants.
    top: Value
    bottom: Value
    unit: Value

    # -- structure ---------------------------------------------------------
    def validate(self, v):
        """Return the canonical form of ``v`` or raise QuantaleError."""
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        """The quantale order (reversed numeric order for the real ones)."""
        raise NotImplementedError

    def tensor(self, a, b):
        raise NotImplementedError

    def residuate(self, a, b):
        """The internal hom: the largest u (in the order) with u (x) a <= b."""
        raise NotImplementedError

    def join(self, values: Iterable):
        """Least upper bound; the empty join is bottom."""
        result = self.bottom
        for v in values:
            result = self.join2(result, v)
        return result

    def meet(self, values: Iterable):
        """Greatest lower bound; the empty meet is top."""
        result = self.top
        for v in values:
            result = self.meet2(result, v)
        return result

    def join2(self, a, b):
        raise NotImplementedError

    def meet2(self, a, b):
        raise NotImplementedError

    # -- serialization -----------------------------------------------------
    def value_to_json(self, v):
        raise NotImplementedError

    def value_from_json(self, j):
        raise NotImplementedError

    def __repr__(self):
        return f"<quantale {self.ident}>"


class BooleanQuantale(Quantale):
    ident = "boolean"
    top = True
    bottom = False
    unit = True

    def validate(self, v):
        if not isinstance(v, bool):
            raise QuantaleError(f"not a boolean quantale value: {v!r}")
        return v

    def leq(self, a, b):
        return (not a) or b

    def tensor(self, a, b):
        return a and b

    def residuate(self, a, b):
        return (not a) or b

    def join2(self, a, b):
        return a or b

    def meet2(self, a, b):
        return a and b

    def value_to_json(self, v):
        return v

    def value_from_json(self, j):
        if not isinstance(j, bool):
            raise QuantaleError(f"expected JSON boolean, got {j!r}")
        return j


class _ReversedNumericQuantale(Quantale):
    """JSON form shared by the two real-valued quantales.

    The order is reversed, so leq(a, b) means a >= b numerically, the
    meet is the numeric max and the join the numeric min.
    """

    top = ZERO
    unit = ZERO

    def value_to_json(self, v):
        return "inf" if v is INF else str(v)

    def value_from_json(self, j):
        if isinstance(j, bool):
            raise QuantaleError(f"expected rational string, got boolean {j!r}")
        if j == "inf":
            return self.validate(INF)
        if isinstance(j, (str, int)):
            try:
                return self.validate(Fraction(*parse_rational(j)))
            except ZeroDivisionError:
                raise QuantaleError(f"zero denominator in value {j!r}") from None
        raise QuantaleError(f"expected rational string, got {j!r}")


class UnitIntervalQuantale(_ReversedNumericQuantale):
    ident = "unit-oplus"
    bottom = ONE

    def validate(self, v):
        f = as_fraction(v)
        if not (0 <= f <= 1):
            raise QuantaleError(f"unit-oplus value out of [0,1]: {f}")
        return f

    def leq(self, a, b):
        return b <= a

    def join2(self, a, b):
        return a if a <= b else b

    def meet2(self, a, b):
        return b if a <= b else a

    def tensor(self, a, b):
        s = a + b
        return s if s <= 1 else ONE

    def residuate(self, a, b):
        d = b - a
        return d if d > 0 else ZERO


class ExtendedRealsQuantale(_ReversedNumericQuantale):
    ident = "ext-plus"
    bottom = INF

    def validate(self, v):
        if v is INF:
            return INF
        f = as_fraction(v)
        if f < 0:
            raise QuantaleError(f"ext-plus value is negative: {f}")
        return f

    def leq(self, a, b):
        if b is INF:
            return a is INF
        return a is INF or b <= a

    def join2(self, a, b):
        if a is INF:
            return b
        if b is INF:
            return a
        return a if a <= b else b

    def meet2(self, a, b):
        if a is INF or b is INF:
            return INF
        return b if a <= b else a

    def tensor(self, a, b):
        if a is INF or b is INF:
            return INF
        return a + b

    def residuate(self, a, b):
        # Largest u in the reversed order (numerically smallest) with
        # u + a >= b; truncated extended subtraction.
        if a is INF:
            return ZERO
        if b is INF:
            return INF
        d = b - a
        return d if d > 0 else ZERO


BOOLEAN = BooleanQuantale()
UNIT_OPLUS = UnitIntervalQuantale()
EXT_PLUS = ExtendedRealsQuantale()

_BY_IDENT = {q.ident: q for q in (BOOLEAN, UNIT_OPLUS, EXT_PLUS)}


def get_quantale(ident: str) -> Quantale:
    if not isinstance(ident, str) or ident not in _BY_IDENT:
        raise QuantaleError(
            f"unknown quantale {ident!r}; expected one of {sorted(_BY_IDENT)}")
    return _BY_IDENT[ident]

