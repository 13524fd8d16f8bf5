"""Analysis layer: the §7 cost certificate, the centralised references
and report formatting.

Ratios come from the engine: a ``quality`` unit
(:func:`repro.api.run_one`) measures every solution against one
certified optimum policy.
"""

from repro.analysis.costs import CostCertificate, compute_cost_certificate
from repro.analysis.reference import (
    bounded_degree_reference,
    port_one_reference,
    regular_odd_reference,
)
from repro.analysis.report import (
    format_fraction,
    format_ratio_pair,
    format_table,
)

__all__ = [
    "CostCertificate",
    "compute_cost_certificate",
    "port_one_reference",
    "regular_odd_reference",
    "bounded_degree_reference",
    "format_table",
    "format_fraction",
    "format_ratio_pair",
]
