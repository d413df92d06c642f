"""Matrix discrepancy laboratory.

Exact discrepancies of weighted rank-one and Hermitian families, the
interlacing-family greedy achieving the 3-sigma guarantee, and numerical
verification of the supporting machinery: barrier walks, mixed
discriminants, tight-frame exact values, diagonal lower bounds, and
Schatten-p moment bounds.
"""

# not cli, or ``python -m matdisc.cli`` warns that it was imported already
from . import disc, frames, linalg, model, rpoly, schatten, witness
from .errors import MatDiscError

__version__ = "0.1.0"

__all__ = [
    "MatDiscError",
    "disc",
    "frames",
    "linalg",
    "model",
    "rpoly",
    "schatten",
    "witness",
    "__version__",
]
