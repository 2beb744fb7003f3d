"""Exception hierarchy shared by all modules."""


class DiracSzegoError(Exception):
    """Base class for all library errors.

    A failed gate (``policy.check``) sets ``measured`` and ``allowed``, and a
    gate judged on a stack (``policy.check_stack``) also the stack ``index``
    of the member that failed; each reads None where it does not apply.
    """

    measured = allowed = index = None


class NotHermitian(DiracSzegoError):
    pass


class NotPositiveDefinite(DiracSzegoError):
    pass


class RankMismatch(DiracSzegoError):
    pass


class LambdaZero(DiracSzegoError):
    pass


class RealLambda(DiracSzegoError):
    pass


class SingularDenominator(DiracSzegoError):
    pass


class SingularShift(DiracSzegoError):
    pass


class ModulusAtLeastOne(DiracSzegoError):
    pass


class BlockSizeNotOne(DiracSzegoError):
    pass


class PoleAtInput(DiracSzegoError):
    pass


class IdentityViolated(DiracSzegoError):
    pass


class ResolventSingular(DiracSzegoError):
    pass


class SingularW0(DiracSzegoError):
    pass


class FloatOverflow(DiracSzegoError):
    """A result exceeds the floating-point range."""


class ModulusMismatch(DiracSzegoError):
    pass


class InvariantViolated(DiracSzegoError):
    pass


class SingularLeadingBlock(DiracSzegoError):
    pass


class SingularVMinus(DiracSzegoError):
    pass


class Phi1Mismatch(DiracSzegoError):
    pass


class AnalyticityViolation(DiracSzegoError):
    pass


class ToeplitzNotPD(DiracSzegoError):
    """S(r) fails the positivity gate; ``index`` is the first such r."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index

    @property
    def failing_index(self):
        """The first r whose S(r) fails, as ``index``."""
        return self.index


class DocumentError(DiracSzegoError):
    """Malformed or inconsistent on-disk document."""
