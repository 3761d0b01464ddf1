"""Exception types shared across the package."""


class AntManetError(Exception):
    """Base class for all package errors."""


class ConfigError(AntManetError):
    """A parameter value violates its documented constraint."""


class ScenarioError(AntManetError):
    """Scenario text failed validation.

    Carries a list of (path, code, message) triples, one per problem found,
    so callers can report every offending key at once.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        lines = "; ".join(f"{path}: [{code}] {msg}" for path, code, msg in self.issues)
        super().__init__(lines or "invalid scenario")


class UnknownNodeError(AntManetError):
    """An operation referenced a node id not present in the network."""


class BrokenPathError(AntManetError):
    """A route references a link that does not currently exist."""


class DegenerateRouteError(AntManetError):
    """Route metrics make the pheromone deposit undefined."""


class ElectionError(AntManetError):
    """A node left uncovered by a cluster-head election is too light to
    head a cluster: its weight is below theta_w."""


class RoutingError(AntManetError):
    """Base class for route-discovery failures."""


class NoRouteError(RoutingError):
    """Destination unreachable at every hierarchy level."""


class NoAdmissibleRouteError(RoutingError):
    """Routes exist but none satisfies the QoS floors."""


class RoutingLoopError(RoutingError):
    """A request ant tried to visit the same node twice."""
