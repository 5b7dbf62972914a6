"""Exception hierarchy shared across the package."""


class QdegError(Exception):
    """Base class for all qdeg errors."""


class InvalidDimension(QdegError):
    """Matrix dimensions do not match the requested operation."""


class NotHermitian(QdegError):
    """Input matrix is not Hermitian within tolerance."""


class NotPSD(QdegError):
    """Matrix has an eigenvalue below the negative tolerance."""


class NumericalFailure(QdegError):
    """An iterative numerical procedure failed to converge."""


class NotTracePreserving(QdegError):
    """Kraus completeness or Choi marginal condition violated."""


class NotCompletelyPositive(QdegError):
    """Choi matrix fails positive semidefiniteness within tolerance."""


class InvalidParameter(QdegError):
    """Channel parameter outside its admissible range."""


class WrongRank(QdegError):
    """Choi rank does not match the precondition of a rank-specialized test."""


class NotApplicable(QdegError):
    """The requested test is undefined for this channel."""


class NotAChannel(NotCompletelyPositive):
    """Choi matrix outside the CP set: the one error every entry point raises
    for it (see :func:`qdeg.channels.not_a_channel`).

    Carries diagnostics: minimum Choi eigenvalue and trace-preservation
    residual.
    """

    def __init__(self, msg, min_choi_eig=None, tp_residual=None):
        super().__init__(msg)
        self.min_choi_eig = min_choi_eig
        self.tp_residual = tp_residual
