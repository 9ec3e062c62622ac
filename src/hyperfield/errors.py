"""Exception types shared across the package.

Each error derives from one of four categories, whose exit_code the CLI
returns: parse failures are 2, inadmissible inputs 3, hypothesis
violations 4, resource caps 5.
"""


class HyperfieldError(Exception):
    """Base class for all package errors."""


class ParseFailure(HyperfieldError):
    """Input that cannot be read."""

    exit_code = 2


class Inadmissible(HyperfieldError):
    """Input outside the domain of the operation asked for."""

    exit_code = 3


class OutsideHypotheses(HyperfieldError):
    """Parameters outside the range the paper's statements cover."""

    exit_code = 4


class ResourceCap(HyperfieldError):
    """A configured cap or a bounded search was exhausted."""

    exit_code = 5


class PolyParseError(ParseFailure):
    """Malformed input text: a polynomial, a number, a recipe or a config file."""


class BadPath(ParseFailure):
    """A config file cannot be read, or an output file cannot be written."""


class ZeroScale(Inadmissible):
    """scale_x called with m = 0."""


class ZeroInput(Inadmissible):
    """Resultant of a zero polynomial is undefined here."""


class ZeroPolynomial(Inadmissible):
    """Newton polygon of the zero polynomial is undefined."""


class ConstantPolynomial(Inadmissible):
    """Operation defined only for degree >= 1 (discriminant, monicize, ...)."""


class NotSquarefree(Inadmissible, ValueError):
    """Disc = 0: a polynomial has a repeated factor (factor.good_splitting_types)."""


class BadPrime(Inadmissible):
    """Prime divides the leading coefficient or the discriminant."""


class DegreeCapExceeded(ResourceCap):
    """Operation requested above its configured degree cap."""


class DegreeDrop(OutsideHypotheses):
    """Family member degenerated below the target degree n."""


class NonCoprimeH(Inadmissible):
    """gcd(F, h) != 1: the point map g/h is undefined at a root of F."""


class InadmissiblePrime(Inadmissible):
    """Prime violates a recipe condition; the message names it."""


class WitnessFailed(Inadmissible):
    """Predicted Newton-polygon segment missing; the message names it."""


class SearchExhausted(ResourceCap):
    """A bounded search found nothing: normalize_even no (k, p),
    isomorphic_exact no squarefree shift t, or intpoly.resultant too few
    primes below 2^28 to pass twice Hadamard's bound."""


class BoxTooLarge(ResourceCap):
    """Census box cardinality above the configured cap."""


class TooManyPrimes(ResourceCap):
    """More good primes requested than factor.MAX_PRIME_COUNT."""


class NonMonic(OutsideHypotheses):
    """Root bound requires a monic polynomial."""


class HypothesisViolated(OutsideHypotheses):
    """(g, d, n) outside the valid parameter range; the message names the condition."""


class SearchWindowExceeded(ResourceCap):
    """Threshold search did not stabilize below the configured window."""
