"""The standard normal CDF, ported from the Cephes ``ndtr`` scipy evaluates.

``ndtr(a)`` returns the same float as ``scipy.special.ndtr(a)``, bit for
bit: the coefficient tables, the Horner loops and the branch tests are
Cephes' (``ndtr.c``: ``ndtr``, ``erf``, ``erfc``), and ``exp`` is libm's,
through :func:`math.exp`.  ``np.exp`` is not libm's ``exp`` and differs
from it in the last bit on a few percent of inputs, so this module imports
no numpy; callers with arrays map :func:`ndtr` over their elements.

``0.5 * math.erfc(-a / √2)`` is not a substitute: it differs from Cephes
in the last bits on about half of all inputs in [−8, 8].
"""

from __future__ import annotations

import math

__all__ = ["ndtr"]

# erfc(x) = exp(-x²) P(x)/Q(x) for 1 <= x < 8.
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (  # leading 1.0 implied (p1evl)
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc(x) = exp(-x²) R(x)/S(x) for x >= 8.
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (  # leading 1.0 implied (p1evl)
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
# erf(x) = x T(x²)/U(x²) for |x| <= 1.
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (  # leading 1.0 implied (p1evl)
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)

_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRT1_2 = 7.07106781186547524401e-1  # M_SQRT1_2


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes ``erf`` for |x| < 1, the only arguments it gets here."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(x: float) -> float:
    """Cephes ``erfc`` for x >= √½; its branches for x < 0 never run here."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0  # exp underflows
    z = math.exp(z)
    if x < 8.0:
        return (z * _polevl(x, _P)) / _p1evl(x, _Q)
    return (z * _polevl(x, _R)) / _p1evl(x, _S)


def ndtr(a: float) -> float:
    """P(N(0, 1) <= a), equal by bits to ``scipy.special.ndtr(a)``."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y
