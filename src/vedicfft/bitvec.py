"""Fixed-width bit vectors used to carry values through netlists.

Bit order is LSB first everywhere in this package, without exception: bit 0
of a bus is the least significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass

UNSIGNED = "unsigned"
TWOS_COMPLEMENT = "twos-complement"

_INTERPRETATIONS = (UNSIGNED, TWOS_COMPLEMENT)


def to_signed(raw: int, width: int) -> int:
    """Read the raw unsigned ``width``-bit pattern ``raw`` as two's complement."""
    return raw - (1 << width) if raw >> (width - 1) else raw


@dataclass(frozen=True)
class BitVector:
    """An ordered sequence of bits with a declared signedness interpretation.

    `bits` is LSB first. `width` always equals `len(bits)`.
    """

    bits: tuple[int, ...]
    interpretation: str = UNSIGNED

    def __post_init__(self):
        if not self.bits:
            raise ValueError("BitVector must have at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0 or 1, got {self.bits}")
        if self.interpretation not in _INTERPRETATIONS:
            raise ValueError(f"unknown interpretation {self.interpretation!r}")
        object.__setattr__(self, "bits", tuple(self.bits))

    @property
    def width(self) -> int:
        return len(self.bits)

    @classmethod
    def from_unsigned(cls, value: int, width: int) -> "BitVector":
        if width < 1:
            raise ValueError("width must be >= 1")
        if not 0 <= value < (1 << width):
            raise ValueError(f"{value} does not fit in {width} unsigned bits")
        return cls(tuple((value >> k) & 1 for k in range(width)), UNSIGNED)

    @classmethod
    def from_signed(cls, value: int, width: int) -> "BitVector":
        if width < 1:
            raise ValueError("width must be >= 1")
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        if not lo <= value <= hi:
            raise ValueError(f"{value} does not fit in {width} two's-complement bits")
        raw = value & ((1 << width) - 1)
        return cls(tuple((raw >> k) & 1 for k in range(width)), TWOS_COMPLEMENT)

    @property
    def uint(self) -> int:
        """The raw unsigned value of the bit pattern."""
        v = 0
        for k, b in enumerate(self.bits):
            v |= b << k
        return v

    @property
    def sint(self) -> int:
        """The bit pattern read as two's complement."""
        return to_signed(self.uint, self.width)

    @property
    def value(self) -> int:
        """Decode according to the declared interpretation."""
        return self.sint if self.interpretation == TWOS_COMPLEMENT else self.uint

    def reinterpret(self, interpretation: str) -> "BitVector":
        return BitVector(self.bits, interpretation)

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, k: int) -> int:
        return self.bits[k]

    def __repr__(self) -> str:
        pattern = "".join(str(b) for b in reversed(self.bits))
        return f"BitVector({pattern}, {self.interpretation}, value={self.value})"
