"""Exception types shared across the package."""


class FlowgraphError(Exception):
    """Base class for all domain errors."""


class DuplicateId(FlowgraphError):
    pass


class InvariantViolation(FlowgraphError):
    pass


class UnknownAsset(FlowgraphError):
    pass


class DuplicateArc(FlowgraphError):
    pass


class SelfLoop(FlowgraphError):
    pass


class MissingHubAnnotation(FlowgraphError):
    pass


class UnsupportedCombination(FlowgraphError):
    pass


class MissingAngleAsset(FlowgraphError):
    pass


class ParseError(FlowgraphError):
    pass


class UnknownVariableName(FlowgraphError):
    pass


class SolverLaunchFailure(FlowgraphError):
    pass


class NonzeroExit(FlowgraphError):
    pass


class ObjectiveMismatch(FlowgraphError):
    pass


class SolverFailure(FlowgraphError):
    pass


class EmptySample(FlowgraphError):
    pass


class DegenerateVariance(FlowgraphError):
    pass


class IoFailure(FlowgraphError):
    pass
