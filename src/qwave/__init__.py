"""Harmonic analysis on the geometric grid {q^n}: Jackson integrals,
q-Bessel kernels, the associated Fourier and wavelet transforms, and
quantitative uncertainty-principle checks."""

from qwave.qgrid import (
    QGrid,
    GridFunction,
    BesselParams,
    build_grid,
    qpochhammer,
    jackson_integral,
    q_derivative,
    weighted_p_norm,
    dilate,
)
from qwave.qbessel import (
    normalized_q_bessel,
    modified_q_bessel,
    generalized_q_bessel_operator,
)
from qwave.qtransform import (
    TransformPlan,
    make_plan,
    q_bessel_fourier,
    translate,
)
from qwave.qwavelet import (
    WaveletSpec,
    WaveletPlane,
    Scaleogram,
    make_wavelet,
    indicator_difference_mother,
    operator_mother,
    daughter_wavelet,
    cwt,
    cwt_direct,
    wavelet_plancherel_ratio,
)
from qwave.uncertainty import (
    UncertaintyReport,
    probe_family,
    uncertainty_report,
    empirical_lower_constant,
)

__version__ = "0.1.0"
