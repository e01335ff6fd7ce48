"""Tight-span geometry, contraction sparsifiers, and congestion diagnostics."""

from .metric import (MetricError, TerminalMetric, Vec, as_fraction,
                     collinear_triples, is_valid_vector, restrict, validate_metric)
from .tightspan import (Cell, CellComplex, UnsupportedSizeError, enumerate_complex,
                        in_tight_span, max_cell_dimension, project, ts_distance)
from .graphs import (Edge, EmbeddedGraph, GraphError, TerminalGraph, distance_vectors,
                     project_graph, shortest_distances, terminal_metric)
from .decompose import (Cluster, CostReport, Decomposer, ExpectedCost, Solution,
                        TSTemplate, classify, contract, cost, expected_cost,
                        type1_metric, type2_metric, type3_metric)
from .flow import (Demand, DualReport, FlowError, FlowResult, QualityReport,
                   dual_value, exact_single_commodity, max_concurrent_flow,
                   quality_ratio)
from .hard6 import (AssocVec, CandidateSolution, HardInstance, PathRecord,
                    adjust_solution, check_good, diagnose, directional_losses,
                    from_assoc, generate, grid_snap, identity_solution, losses,
                    metric6, planar_losses, rect_project, to_assoc)
from .textio import (TextFormatError, dump_demand, dump_graph, dump_metric,
                     load_demand, load_graph, load_metric)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
