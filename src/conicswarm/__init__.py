"""Sparse-measure optimization over particle swarms.

Minimizes a least-squares-plus-TV objective over atomic measures by conic
particle descent (multiplicative weight updates, projected position
steps), optionally driven by mini-batch certificate estimates and a
birth/death process that inserts particles where the dual certificate is
negative and removes them where it is safely positive.
"""

from .birth_death import BirthRule, DeathRule, apply_mass_tweak, evaluate_birth_candidates, \
    select_deaths
from .domain import Ball, Box, Domain, grid_points
from .dynamics import StepRates, descent_check, weight_push_update
from .kernels import AssumptionBounds, GmmKernel, KernelModel, ReluKernel, SyntheticKernel, \
    audit_assumptions
from .objective import KktReport, Problem, certificate, certificate_and_grad, frechet_gap, \
    kkt_residual, loss
from .oracle import OracleConfig, check_hoeffding_cap, draw_batch
from .runner import IterationRecord, RunAborted, RunConfig, RunResult, run, trace_from_csv, \
    trace_to_csv
from .schedules import AnytimePlan, Calibration, CalibrationError, FixedPlan, calibrate, \
    horizon_plan
from .swarm import ParticleSwarm, lift_signed

__version__ = "0.1.0"
