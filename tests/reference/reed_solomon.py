"""A Reed-Solomon codec over GF(2^8) with error and erasure decoding.

Chipkill memory protection is symbol-based error correction (Reed & Solomon
1960, as cited by the paper); with ``n - k = 2`` check symbols the code has
minimum distance 3: it corrects one symbol *error* (unknown location) or two
symbol *erasures* (known locations). This is exactly the single-symbol-
correct / double-symbol-detect capability commercial Chipkill advertises,
with one symbol supplied by each DRAM chip.

The decoder implements the classical pipeline — syndromes, errors-and-
erasures Berlekamp-Massey, Chien search, Forney — so it works for any
(n, k), not just the Chipkill shape; tests exercise wider configurations.

Conventions
-----------
Codeword symbol ``c[i]`` is the coefficient of ``x^(n-1-i)`` (systematic,
data first). Narrow-sense code: roots at alpha^1 .. alpha^(n-k). The locator
value of position ``i`` is ``X_i = alpha^(n-1-i)``; locator polynomials are
kept in low-to-high coefficient order with roots at ``X_i^-1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from reference.gf256 import alpha_pow, gf_div, gf_inv, gf_mul, poly_mul


class RsDecodeError(Exception):
    """Raised when the received word is beyond the code's correction power."""


@dataclass
class RsDecodeResult:
    """Corrected codeword and the error positions the decoder fixed."""

    codeword: List[int]
    error_positions: List[int]


def _poly_eval_low(coefficients: Sequence[int], point: int) -> int:
    """Evaluate a low-to-high coefficient polynomial at ``point``."""
    result = 0
    power = 1
    for coefficient in coefficients:
        if coefficient:
            result ^= gf_mul(coefficient, power)
        power = gf_mul(power, point)
    return result


class ReedSolomon:
    """RS(n, k) over GF(2^8) in systematic form."""

    def __init__(self, n: int, k: int):
        if not 0 < k < n <= 255:
            raise ValueError("require 0 < k < n <= 255")
        self.n = n
        self.k = k
        self.num_checks = n - k
        generator = [1]
        for power in range(1, self.num_checks + 1):
            generator = poly_mul(generator, [1, alpha_pow(power)])
        self._generator = generator  # high-to-low coefficients

    # -- encoding ---------------------------------------------------------

    def encode(self, data: Sequence[int]) -> List[int]:
        """Append ``n - k`` check symbols to ``k`` data symbols."""
        data = list(data)
        if len(data) != self.k:
            raise ValueError("expected %d data symbols" % self.k)
        if any(not 0 <= symbol < 256 for symbol in data):
            raise ValueError("symbols must be bytes")
        remainder = data + [0] * self.num_checks
        for position in range(self.k):
            coefficient = remainder[position]
            if coefficient == 0:
                continue
            # Generator is monic: subtract coefficient * generator.
            for offset, gen_coefficient in enumerate(self._generator):
                remainder[position + offset] ^= gf_mul(coefficient, gen_coefficient)
        return data + remainder[self.k :]

    # -- decoding ---------------------------------------------------------

    def syndromes(self, received: Sequence[int]) -> List[int]:
        """Syndromes S_1..S_{n-k}; all zero iff the word is a codeword."""
        received = list(received)
        if len(received) != self.n:
            raise ValueError("expected %d symbols" % self.n)
        synd = []
        for power in range(1, self.num_checks + 1):
            point = alpha_pow(power)
            value = 0
            for symbol in received:
                value = gf_mul(value, point) ^ symbol
            synd.append(value)
        return synd

    def decode(
        self,
        received: Sequence[int],
        erasures: Optional[Sequence[int]] = None,
    ) -> RsDecodeResult:
        """Correct errors and erasures; succeeds iff ``2e + f <= n - k``."""
        received = list(received)
        synd = self.syndromes(received)
        erasure_positions = sorted(set(erasures or []))
        for position in erasure_positions:
            if not 0 <= position < self.n:
                raise ValueError("erasure position out of range")
        if len(erasure_positions) > self.num_checks:
            raise RsDecodeError("more erasures than check symbols")
        if all(s == 0 for s in synd):
            return RsDecodeResult(received, [])

        # Erasure locator Gamma(x) = prod (1 + X_e * x).
        gamma = [1]
        for position in erasure_positions:
            x_value = alpha_pow(self.n - 1 - position)
            gamma = self._poly_mul_low(gamma, [1, x_value])

        locator = self._errors_and_erasures_bm(synd, gamma, len(erasure_positions))
        max_errors = (self.num_checks - len(erasure_positions)) // 2
        if (len(locator) - 1) - len(erasure_positions) > max_errors:
            raise RsDecodeError("too many symbol errors")

        positions = self._chien_search(locator)
        if positions is None:
            raise RsDecodeError("error locator has wrong root count")

        corrected = self._forney(received, synd, locator, positions)
        if any(s != 0 for s in self.syndromes(corrected)):
            raise RsDecodeError("correction failed verification")
        error_positions = [p for p in positions if received[p] != corrected[p]]
        return RsDecodeResult(corrected, error_positions)

    # -- internals --------------------------------------------------------

    @staticmethod
    def _poly_mul_low(left: Sequence[int], right: Sequence[int]) -> List[int]:
        product = [0] * (len(left) + len(right) - 1)
        for i, a in enumerate(left):
            if a == 0:
                continue
            for j, b in enumerate(right):
                if b:
                    product[i + j] ^= gf_mul(a, b)
        return product

    def _errors_and_erasures_bm(
        self, synd: List[int], gamma: List[int], num_erasures: int
    ) -> List[int]:
        """Berlekamp-Massey seeded with the erasure locator.

        Returns the combined locator Psi(x) = Lambda(x) * Gamma(x). Standard
        formulation: initialise both the connection polynomial and the
        auxiliary polynomial to Gamma and iterate over syndromes f..2t-1.
        """
        connection = list(gamma)
        auxiliary = list(gamma)
        degree = num_erasures
        gap = 1
        last_discrepancy = 1
        for step in range(num_erasures, len(synd)):
            discrepancy = 0
            for index, coefficient in enumerate(connection):
                if coefficient and 0 <= step - index < len(synd):
                    discrepancy ^= gf_mul(coefficient, synd[step - index])
            if discrepancy == 0:
                gap += 1
                continue
            if 2 * degree <= step + num_erasures:
                saved = list(connection)
                scale = gf_div(discrepancy, last_discrepancy)
                connection = self._poly_subtract_shifted(connection, auxiliary, scale, gap)
                auxiliary = saved
                degree = step + 1 - degree + num_erasures
                last_discrepancy = discrepancy
                gap = 1
            else:
                scale = gf_div(discrepancy, last_discrepancy)
                connection = self._poly_subtract_shifted(connection, auxiliary, scale, gap)
                gap += 1
        while len(connection) > 1 and connection[-1] == 0:
            connection.pop()
        return connection

    @staticmethod
    def _poly_subtract_shifted(
        target: List[int], source: List[int], scale: int, shift: int
    ) -> List[int]:
        """Return ``target - scale * x^shift * source`` (XOR arithmetic)."""
        length = max(len(target), len(source) + shift)
        result = list(target) + [0] * (length - len(target))
        for index, coefficient in enumerate(source):
            if coefficient:
                result[index + shift] ^= gf_mul(scale, coefficient)
        return result

    def _chien_search(self, locator: List[int]) -> Optional[List[int]]:
        """Positions whose locator value's inverse is a root of ``locator``."""
        positions = []
        for position in range(self.n):
            point = alpha_pow(-(self.n - 1 - position) % 255)
            if _poly_eval_low(locator, point) == 0:
                positions.append(position)
        if len(positions) != len(locator) - 1:
            return None
        return positions

    def _forney(
        self,
        received: List[int],
        synd: List[int],
        locator: List[int],
        positions: List[int],
    ) -> List[int]:
        """Error magnitudes via the Forney formula (narrow-sense, b=1)."""
        # Omega(x) = S(x) * Psi(x) mod x^(n-k), S(x) = S_1 + S_2 x + ...
        omega = [0] * self.num_checks
        for out_index in range(self.num_checks):
            total = 0
            for loc_index, loc_coefficient in enumerate(locator):
                syn_index = out_index - loc_index
                if 0 <= syn_index < len(synd) and loc_coefficient:
                    total ^= gf_mul(loc_coefficient, synd[syn_index])
            omega[out_index] = total

        # Formal derivative: d/dx sum c_d x^d = sum over odd d of c_d x^(d-1).
        derivative = [
            locator[degree] if degree % 2 == 1 else 0
            for degree in range(1, len(locator))
        ]

        corrected = list(received)
        for position in positions:
            x_inv = alpha_pow(-(self.n - 1 - position) % 255)
            omega_value = _poly_eval_low(omega, x_inv)
            derivative_value = _poly_eval_low(derivative, x_inv)
            if derivative_value == 0:
                raise RsDecodeError("Forney derivative vanished")
            magnitude = gf_div(omega_value, derivative_value)
            corrected[position] ^= magnitude
        return corrected
