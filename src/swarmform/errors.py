"""Exception types shared across the package."""


class SwarmformError(Exception):
    """Base class for all errors raised by this package."""


class NumericDomainError(SwarmformError, ValueError):
    """Numeric data outside the valid domain (non-finite values, a pole set
    that is not closed under conjugation, ...)."""


class ConfigurationError(SwarmformError, ValueError):
    """A static parameter violates its contract (dt <= 0, c_max <= 0, ...)."""


class SynthesisError(SwarmformError, ValueError):
    """Gain synthesis is impossible for the given plant: g * k_p * k_d is 0
    in floating point, which leaves the position/velocity channels
    unreachable, or the gains come out non-finite."""


class ScenarioError(SwarmformError, ValueError):
    """Scenario text failed to parse or validate.  The message always names
    the offending key."""


class SimulationAbort(SwarmformError, RuntimeError):
    """A run cannot go on: the plant rejected a non-finite command (t is
    the time of the step that computed it, state the agent's state
    before it), or the integrator produced a non-finite state (t is the
    time of that state).  Carries a diagnostics payload: time, agent index
    and state."""

    def __init__(self, t, agent, state, message="non-finite state"):
        self.t = t
        self.agent = agent
        self.state = state
        self.message = message
        super().__init__(f"{message} at t={t:.6f} s (agent {agent}): {state}")

    def __reduce__(self):
        # pickle and copy rebuild from __init__'s arguments, not from args
        return type(self), (self.t, self.agent, self.state, self.message)


class ModelValidityWarning(UserWarning):
    """Tilt angle left the small-angle regime the linear model assumes."""
