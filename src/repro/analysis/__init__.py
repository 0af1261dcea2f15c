"""Analysis layer: battery-lifetime evaluation and the worked examples."""

from .experiments import Fig4Result, Fig5Result, fig4, fig5, run_scheme
from .lifetime import LifetimeReport, evaluate_lifetime
from .tables import format_series, format_table

__all__ = [
    "evaluate_lifetime",
    "LifetimeReport",
    "format_table",
    "format_series",
    "run_scheme",
    "fig4",
    "Fig4Result",
    "fig5",
    "Fig5Result",
]
