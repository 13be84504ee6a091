"""Desk-scale ride-pooling dispatch: pruned online insertion vs exhaustive search."""

__version__ = "0.1.0"

from .geometry import (Point, PsaRect, VehiclePsa, euclid, make_psa_rect,
                       psa_contains, rect_contains)
from .roadnet import (Edge, NetworkError, NoPathError, RoadNetwork, gen_grid,
                      load_network, save_network)
from .model import (Request, RequestError, RequestState, SimConfig, Stop,
                    StopKind, Vehicle, WorldState, check_request,
                    load_requests, sample_requests, save_requests,
                    waiting_time)
from .insertion import Candidate, candidate_positions, classify_case, splice
from .scheduler import (Assignment, EpochCounters, counts_for_path, es_epoch,
                        furthest_psa, gate, psap_epoch, search_area)
from .simulator import (SimEvent, SimReport, advance_vehicle, run,
                        write_report_files)
from .analysis import (EtaBounds, EtaEstimate, RrccRow, TrafficMetrics,
                       eta_closed, eta_monte_carlo, expected_rrcc,
                       rrcc_gate_harness, traffic_metrics)

__all__ = [name for name in dir() if not name.startswith("_")]
