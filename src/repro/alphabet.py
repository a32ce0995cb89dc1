"""Alphabets, the wild-card character, and binary character encodings.

Section 3.1 of the paper defines the matching problem over an alphabet
``Sigma`` with a distinguished wild-card character ``x`` that may appear in
the *pattern* only and matches any text character.  The fabricated prototype
(Plate 2) used two-bit characters, i.e. ``|Sigma| = 4``; the bit-pipelined
comparator array (Figure 3-4) operates on the binary encoding of characters,
high-order bit first.

This module provides:

* :class:`Alphabet` -- a finite, ordered character set with a stable binary
  encoding of configurable width,
* :class:`EncodedText` -- a validated text as one array of symbol codes,
  the form every layer after admission reads (:meth:`Alphabet.encode_text`
  is the one character encoder),
* :data:`WILDCARD` -- the canonical wild-card marker used throughout the
  library,
* :class:`PatternChar` -- one pattern position (character + ``x`` bit),
* :func:`parse_pattern` -- turn a user string such as ``"AXC"`` (where the
  wildcard letter is configurable) into a list of :class:`PatternChar`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import AlphabetError, PatternError

#: The canonical wild-card object.  It is intentionally *not* a plain string
#: so that it can never collide with a legitimate alphabet character.
WILDCARD = object()


def is_wildcard(ch: object) -> bool:
    """Return True if *ch* is the canonical wild-card marker."""
    return ch is WILDCARD


class Alphabet:
    """A finite ordered alphabet with a fixed-width binary encoding.

    Parameters
    ----------
    symbols:
        The characters of the alphabet, in encoding order.  Symbol *i*
        encodes to the ``bits``-wide big-endian binary representation of
        ``i``.
    bits:
        Width of the binary encoding.  Defaults to the minimum width that
        can represent every symbol.  The prototype chip used ``bits=2``.

    Examples
    --------
    >>> ab = Alphabet("ABCD")
    >>> ab.bits
    2
    >>> ab.encode("C")
    (1, 0)
    >>> ab.decode((1, 0))
    'C'
    """

    def __init__(self, symbols: Sequence[str], bits: int = None):
        symbols = list(symbols)
        if not symbols:
            raise AlphabetError("alphabet must contain at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise AlphabetError("alphabet symbols must be distinct")
        for s in symbols:
            if not isinstance(s, str) or len(s) != 1:
                raise AlphabetError(
                    f"alphabet symbols must be single characters, got {s!r}"
                )
        min_bits = max(1, (len(symbols) - 1).bit_length())
        if bits is None:
            bits = min_bits
        if bits < min_bits:
            raise AlphabetError(
                f"{bits} bits cannot encode {len(symbols)} symbols "
                f"(need at least {min_bits})"
            )
        self._symbols: Tuple[str, ...] = tuple(symbols)
        self._bits = bits
        self._index = {s: i for i, s in enumerate(self._symbols)}
        self._table: Optional[bytes] = None  # built by encode_text

    # -- basic queries ----------------------------------------------------

    @property
    def symbols(self) -> Tuple[str, ...]:
        """The alphabet symbols in encoding order."""
        return self._symbols

    @property
    def bits(self) -> int:
        """Width of the binary character encoding, in bits."""
        return self._bits

    def __len__(self) -> int:
        return len(self._symbols)

    def __contains__(self, ch: object) -> bool:
        return ch in self._index

    def __iter__(self):
        return iter(self._symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self._symbols)!r}, bits={self._bits})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self._symbols == other._symbols and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._symbols, self._bits))

    def index(self, ch: str) -> int:
        """Return the encoding index of *ch*.

        Raises :class:`AlphabetError` if *ch* is not in the alphabet.
        """
        try:
            return self._index[ch]
        except KeyError:
            raise AlphabetError(f"{ch!r} is not in alphabet {self!r}") from None

    def require(self, ch: str) -> str:
        """Validate that *ch* is a member and return it unchanged."""
        self.index(ch)
        return ch

    def validate_text(self, text: Iterable[str]) -> List[str]:
        """Validate every character of *text*; return it as a list.

        Membership is checked as one set difference (C speed) rather
        than a per-character Python loop; the loop only runs to locate
        the first stray character for the error message.
        """
        chars = list(text)
        stray = set(chars) - self._index.keys()
        if stray:
            for c in chars:
                if c in stray:
                    raise AlphabetError(
                        f"{c!r} is not in alphabet {self!r}"
                    ) from None
        return chars

    def encode_text(self, text: Iterable[str]) -> "EncodedText":
        """Validate *text* and encode it as symbol codes, in one pass.

        This is the package's one character encoder.  It accepts and
        rejects exactly what :meth:`validate_text` does, with the same
        :class:`AlphabetError` for the first stray character.  A str (or
        a list of one-character strs) of latin-1 characters is encoded
        by one ``bytes.translate`` over its bytes (alphabets of up to 255
        symbols); anything else goes through :meth:`validate_text` and a
        per-character lookup.

        >>> Alphabet("ABCD").encode_text("CAB").codes
        array([2, 0, 1], dtype=uint8)
        """
        chars = text
        if not isinstance(text, str):
            chars = text if isinstance(text, list) else list(text)
            try:
                text = "".join(chars)
            except TypeError:
                return self._encode_each(chars)
            # Equal lengths mean one character per item, unless an empty
            # string makes room for a longer one.
            if len(text) != len(chars) or "" in chars:
                return self._encode_each(chars)
        n = len(self._symbols)
        if n > 255:  # codes no longer fit the one-byte table
            return self._encode_each(chars)
        try:
            raw = text.encode("latin-1")
        except UnicodeEncodeError:
            return self._encode_each(chars)
        if self._table is None:
            # Byte -> code; a stray byte maps to n, one past the last code.
            table = bytearray([n]) * 256
            for i, s in enumerate(self._symbols):
                if ord(s) < 256:
                    table[ord(s)] = i
            self._table = bytes(table)
        codes = raw.translate(self._table)
        if codes.find(bytes([n])) >= 0:
            self.validate_text(chars)  # raises for the first stray item
        return EncodedText(np.frombuffer(codes, dtype=np.uint8), self)

    def _encode_each(self, text: Iterable[str]) -> "EncodedText":
        chars = self.validate_text(text)
        codes = np.fromiter(
            map(self._index.__getitem__, chars),
            dtype=np.min_scalar_type(len(self._symbols)), count=len(chars),
        )
        return EncodedText(codes, self)

    # -- binary encoding (Figure 3-4: high-order bit enters first) --------

    def encode(self, ch: str) -> Tuple[int, ...]:
        """Encode *ch* as a big-endian tuple of bits (MSB first)."""
        i = self.index(ch)
        return tuple((i >> (self._bits - 1 - b)) & 1 for b in range(self._bits))

    def decode(self, bits: Sequence[int]) -> str:
        """Decode a big-endian bit tuple back into a character."""
        if len(bits) != self._bits:
            raise AlphabetError(
                f"expected {self._bits} bits, got {len(bits)}"
            )
        value = 0
        for b in bits:
            if b not in (0, 1):
                raise AlphabetError(f"bit values must be 0 or 1, got {b!r}")
            value = (value << 1) | b
        if value >= len(self._symbols):
            raise AlphabetError(
                f"bit pattern {tuple(bits)} does not decode to a symbol "
                f"of {self!r}"
            )
        return self._symbols[value]


class EncodedText:
    """A validated text: its symbol codes and the alphabet they index.

    Every layer after admission reads the codes: a kernel row, the cache
    key's bytes, a text shard (a slice is a view of the same codes), the
    runtime wire.  It is still a sequence of characters -- ``len``,
    iteration and indexing decode codes back to symbols -- so the
    character-level readers (the oracles, the shift-or fallback, the
    stepwise machines) take it as they take a str.
    ``numpy.asarray(text)`` is the code array itself, no copy.

    >>> text = Alphabet("ABCD").encode_text("DAB")
    >>> "".join(text), text[0], list(text[1:])
    ('DAB', 'D', ['A', 'B'])
    """

    __slots__ = ("codes", "alphabet")

    def __init__(self, codes: np.ndarray, alphabet: Alphabet):
        self.codes = codes
        self.alphabet = alphabet

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[str]:
        return map(self.alphabet.symbols.__getitem__, self.codes.tolist())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return EncodedText(self.codes[i], self.alphabet)
        return self.alphabet.symbols[self.codes[i]]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.codes.astype(dtype)
        return self.codes.copy() if copy else self.codes

    def __repr__(self) -> str:
        return f"EncodedText({''.join(self)!r}, {self.alphabet!r})"


#: The alphabet of the fabricated prototype chip (Plate 2): four symbols,
#: two-bit characters.
PROTOTYPE_ALPHABET = Alphabet("ABCD", bits=2)

#: A convenient upper-case ASCII alphabet for text-search examples.
ASCII_UPPER = Alphabet("ABCDEFGHIJKLMNOPQRSTUVWXYZ ", bits=5)


@dataclass(frozen=True)
class PatternChar:
    """One position of a pattern: a character plus the don't-care bit.

    In the chip the pattern stream carries, alongside each character, an
    ``x`` bit marking wildcard positions and a ``lambda`` bit marking the
    end of the pattern (Section 3.2.1).  ``lambda`` is positional so it is
    attached when the pattern is loaded into an array, not here.
    """

    char: str
    is_wild: bool = False

    def matches(self, text_char: str) -> bool:
        """Does this pattern position match *text_char*?"""
        return self.is_wild or self.char == text_char

    def __str__(self) -> str:
        return "X*" if self.is_wild else self.char


def parse_pattern(
    pattern: Sequence[object],
    alphabet: Alphabet,
    wildcard_symbol: str = "X",
) -> List[PatternChar]:
    """Parse a user-supplied pattern into :class:`PatternChar` objects.

    *pattern* may mix alphabet characters, the *wildcard_symbol* string
    (by default ``"X"``; pass ``None`` to disable), and the canonical
    :data:`WILDCARD` object.  The wildcard symbol is only treated as a
    wildcard when it is **not** itself a member of the alphabet, matching
    the paper's requirement that ``x`` be outside ``Sigma``; to use a
    wildcard with an alphabet that contains the letter X, pass
    :data:`WILDCARD` objects explicitly.

    >>> parse_pattern("AXC", Alphabet("ABCD"))
    [PatternChar(char='A', is_wild=False), PatternChar(char='A', is_wild=True), PatternChar(char='C', is_wild=False)]
    """
    if pattern is None or len(pattern) == 0:
        raise PatternError("pattern must contain at least one character")
    out: List[PatternChar] = []
    wildcard_is_symbolic = (
        wildcard_symbol is not None and wildcard_symbol not in alphabet
    )
    for ch in pattern:
        if is_wildcard(ch) or (wildcard_is_symbolic and ch == wildcard_symbol):
            # The stored character is arbitrary for a wildcard position; use
            # the first alphabet symbol so downstream binary encodings are
            # well defined (the comparator output is ignored anyway).
            out.append(PatternChar(alphabet.symbols[0], is_wild=True))
        else:
            if not isinstance(ch, str):
                raise PatternError(f"pattern element {ch!r} is not a character")
            alphabet.require(ch)
            out.append(PatternChar(ch, is_wild=False))
    return out


def pattern_to_string(pattern: Sequence[PatternChar], wildcard_symbol: str = "X") -> str:
    """Render a parsed pattern back to a display string."""
    return "".join(wildcard_symbol if pc.is_wild else pc.char for pc in pattern)
