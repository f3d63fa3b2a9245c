"""swarmform: deterministic 1-D swarm-formation coupling simulator.

Agents are linear single-axis quadcopters.  A modal full-state feedback
design (one damped pole pair, one undamped pair) makes pairwise encounters
quasi-elastic, so the swarm's RMS velocity survives interactions; on top of
that, piecewise-linear pairwise force laws with a coupling switch lock
selected pairs at a prescribed separation, forming and releasing structures
on command.
"""

from .engine import (DeltaRmsResult, Metrics, Trace, World, WorldConstants,
                     build_world, delta_rms, rms_velocity, run, step)
from .errors import (ConfigurationError, ModelValidityWarning,
                     NumericDomainError, ScenarioError, SimulationAbort,
                     SwarmformError, SynthesisError)
from .interaction import (InteractionParams, InteractionVariant, PairGeometry,
                          PairState, corrected_position, force_attraction,
                          force_repulsion, force_switching_smooth,
                          force_switching_step, pair_force, pair_geometry,
                          saturate, update_pair)
from .modal import (Gains, PoleSpec, closed_loop_polynomial,
                    desired_polynomial, direct_gain_formula, place_gains,
                    poles_from_spec)
from .plant import AgentState, PlantParams, derivative, rk4_stack, rk4_step
from .scenario import (AgentInit, Command, Scenario, parse_scenario,
                       parse_scenario_with, serialize_scenario)
from .output import render_svg, write_report, write_trace

__version__ = "0.1.0"

__all__ = [
    "AgentInit", "AgentState", "Command", "ConfigurationError",
    "DeltaRmsResult", "Gains", "InteractionParams",
    "InteractionVariant", "Metrics", "ModelValidityWarning",
    "NumericDomainError", "PairGeometry", "PairState", "PlantParams",
    "PoleSpec", "Scenario", "ScenarioError", "SimulationAbort",
    "SwarmformError", "SynthesisError", "Trace", "World", "WorldConstants",
    "build_world",
    "closed_loop_polynomial", "corrected_position", "delta_rms",
    "derivative", "desired_polynomial", "direct_gain_formula",
    "force_attraction", "force_repulsion", "force_switching_smooth",
    "force_switching_step", "pair_force", "pair_geometry", "parse_scenario",
    "parse_scenario_with", "place_gains", "poles_from_spec", "render_svg",
    "rms_velocity", "rk4_stack", "rk4_step", "run", "saturate",
    "serialize_scenario", "step", "update_pair", "write_report", "write_trace",
]
