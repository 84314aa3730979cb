"""Exact-arithmetic verification of a boundary current algebra.

The layers, bottom up: `exactalg` (rational coefficients, sparse Laurent
polynomials, denominator factors and the one clearing rule, and
`LinComb`, the sparse linear combination of basis keys), `tensormat`
(tensor-leg matrices over one factored denominator, the only
rational-function value; the classical r-matrix and boundary matrices,
the unreduced identity checks), `modes` (identities of the affine mode
tables, decided for every mode), `kacmoody` (the mode Lie algebra and its
order-two maps), `currents`
(truncated matrix series, the double-row series and their exchange
relations), `onsager` (the three abstract subalgebra families), and
`envelope` (normal-ordered products and commuting charges).  `cli` wires
the checks into named suites; the `verify` entry point runs them.

Lie elements (`LieElt`), family elements (`OnsElt`) and enveloping-algebra
elements (`envelope.UeaElt`) share one type: `LieElt` and `OnsElt` are
`LinComb`, and `UeaElt` subclasses it only to print PBW words.
"""

from .report import CheckReport
from .exactalg import LaurentPoly, LinComb, Variable, parameter, rat, spectral
from .kacmoody import C, E, F, H, LieElt, bracket
from .onsager import OnsElt, abstract_bracket, ons

__all__ = [
    "CheckReport",
    "LaurentPoly",
    "LinComb",
    "Variable",
    "parameter",
    "rat",
    "spectral",
    "C",
    "E",
    "F",
    "H",
    "LieElt",
    "bracket",
    "OnsElt",
    "abstract_bracket",
    "ons",
]

__version__ = "0.1.0"
