"""Alternating projections on convex sets, with perturbation schedules,
set-convergence probes, and certified positive/negative experiment
families."""

from .geometry import (ConeSpec, DimensionMismatch, ProductPoint, as_point,
                       cone_contains, cone_from_angle, cos_angle, inner, norm,
                       pack, unpack)
from .sets import (AffineSubspace, Ball, DiagonalAffineGraph, Halfspace, Hyperplane,
                   NonnegOrthant, OrthoSubspace, Polygon2D, Polyhedron,
                   ProjectionCertificateError, SamplerFailure, SupportUnavailable,
                   sample_points, set_from_dict, set_to_dict, slice_sample,
                   support_point, support_value)
from .engine import (Adaptive, BlockLog, Blocks, Constant, PerStep, ProjectionStepError,
                     RunConfig, ScheduleExhausted, Trace, TraceRecord,
                     run_classical, run_perturbed, trace_to_csv, trace_to_json)
from .variational import (AngleReport, AwEstimate, ExposureProbe, aw_distance,
                          check_cos_separation, check_fact_norms,
                          epsilon_alpha, eventual_containment_probe,
                          first_containment_index, omega_angle,
                          sample_cone_point, separation_constants,
                          strongly_exposes_probe, wset_contains)
from .constructions import (BlockBudgetExceeded, Ell2Block, Ell2Construction,
                            InfeasibleParams, StableScenario,
                            build_ell2_construction, default_start_alphas,
                            ell2_aw_certificate, ell2_checkpoints,
                            ell2_limit_graph, ell2_run, ell2_schedule,
                            ell2_start_point, ell2_verify_engine,
                            example_unstable_bodies, run_example_unbounded_lines,
                            run_example_unstable, stable_scenario, tilted_line,
                            unstable_bodies_schedule)

__version__ = "0.1.0"
