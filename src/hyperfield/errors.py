"""Exception types shared across the package.

The CLI maps these onto exit codes: parse failures are 2, inadmissible
inputs 3, hypothesis violations 4, resource caps 5.
"""


class HyperfieldError(Exception):
    """Base class for all package errors."""


class PolyParseError(HyperfieldError):
    """Malformed input text: a polynomial, a number, a recipe or a config file."""


class BadPath(HyperfieldError):
    """A config file cannot be read, or an output file cannot be written."""


class ZeroScale(HyperfieldError):
    """scale_x called with m = 0."""


class ZeroInput(HyperfieldError):
    """Resultant of a zero polynomial is undefined here."""


class ZeroPolynomial(HyperfieldError):
    """Newton polygon of the zero polynomial is undefined."""


class ConstantPolynomial(HyperfieldError):
    """Operation defined only for degree >= 1 (discriminant, monicize, ...)."""


class NotSquarefree(HyperfieldError, ValueError):
    """Disc = 0: a polynomial has a repeated factor (factor.good_splitting_types)."""


class BadPrime(HyperfieldError):
    """Prime divides the leading coefficient or the discriminant."""


class DegreeCapExceeded(HyperfieldError):
    """Operation requested above its configured degree cap."""


class BadEvidence(HyperfieldError):
    """A cycle type does not sum to the claimed degree."""


class DegreeDrop(HyperfieldError):
    """Family member degenerated below the target degree n."""


class NonCoprimeH(HyperfieldError):
    """gcd(F, h) != 1: the point map g/h is undefined at a root of F."""


class InadmissiblePrime(HyperfieldError):
    """Prime violates a recipe condition; the message names it."""


class WitnessFailed(HyperfieldError):
    """Predicted Newton-polygon segment missing; the message names it."""


class SearchExhausted(HyperfieldError):
    """A bounded search found nothing: normalize_even no (k, p), or
    isomorphic_exact no squarefree shift t."""


class BoxTooLarge(HyperfieldError):
    """Census box cardinality above the configured cap."""


class TooManyPrimes(HyperfieldError):
    """More good primes requested than factor.MAX_PRIME_COUNT."""


class NonMonic(HyperfieldError):
    """Root bound requires a monic polynomial."""


class HypothesisViolated(HyperfieldError):
    """(g, d, n) outside the valid parameter range; the message names the condition."""


class SearchWindowExceeded(HyperfieldError):
    """Threshold search did not stabilize below the configured window."""
