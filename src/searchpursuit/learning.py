"""Two-location, two-round pursuit with escape-probability learning.

Each of two locations independently gets a high or low escape
probability (fair coin, values known, draws not). One location is
searched per round. After a first-round escape both players know where
it happened and either return there ("stay") or go to the other
location ("switch"); symmetry forces the first-round choices to be
uniform, so each player has just those two plans and the game is a
symmetric 2x2 matrix, searcher maximizing.

Shifting 8x the matrix by a constant leaves a diagonal matrix diag(a, b)
with a, b >= 0, whose game is solved by playing stay with probability
b / (a + b), for value ab / (a + b); where a = b = 0 every mix is
optimal and stay takes 1/2. The shift constant cancels in the
strategies and maps the value back affinely, so ``solve`` gets
everything in one closed form for every input, the degenerate corners
included, and runs no LP. This module checks nothing itself: the CLI
certifies every answer once, with the oracle's exact two-sided
equilibrium certificate on ``payoff_matrix``, before it prints it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import parse_rational

ZERO = Fraction(0)
HALF = Fraction(1, 2)

Matrix2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class LearningSpec:
    """Escape probabilities of the low and high location kinds.

    Each location's escape probability is the high one with the fair
    prior 1/2, the only prior the model has.
    """

    low: Fraction
    high: Fraction

    def __post_init__(self):
        object.__setattr__(self, "low", parse_rational(self.low))
        object.__setattr__(self, "high", parse_rational(self.high))
        if not 0 <= self.low <= self.high <= 1:
            raise ValueError("need 0 <= low <= high <= 1")


def same_location_payoff(escape) -> Fraction:
    """Searcher win probability when both parties use one location with
    escape probability ``escape`` in both rounds. The leading 1/2 is the
    chance they co-locate in round one at all; after a first-round
    escape the second round is a rematch at the same spot."""
    x = parse_rational(escape)
    return ((1 - x) + x * (1 - x)) / 2


@dataclass(frozen=True)
class StatePayoffs:
    """Win probabilities conditioned on the drawn escape parameters.

    ``stay_*`` are the stay/stay payoffs at a single location of the
    given kind. ``switch_xy`` is the switch/switch payoff when the
    first-round location has kind x and the second has kind y; the
    equal-kind entries coincide with the stay values because revisiting
    an identical location is indistinguishable from staying.
    """

    stay_low: Fraction
    stay_high: Fraction
    switch_high_high: Fraction
    switch_low_low: Fraction
    switch_low_high: Fraction
    switch_high_low: Fraction


def per_state_payoffs(spec: LearningSpec) -> StatePayoffs:
    l, h = spec.low, spec.high
    return StatePayoffs(
        stay_low=same_location_payoff(l),
        stay_high=same_location_payoff(h),
        switch_high_high=same_location_payoff(h),
        switch_low_low=same_location_payoff(l),
        switch_low_high=((1 - l) + l * (1 - h)) / 2,
        switch_high_low=((1 - h) + h * (1 - l)) / 2,
    )


def payoff_matrix(spec: LearningSpec) -> Matrix2:
    """2x2 matrix over (stay, switch) for both players.

    Entries average the per-state payoffs over the fair parameter draw;
    mixed plans (stay vs switch) end the game on any escape, since the
    players land at different locations in round two.
    """
    l, h = spec.low, spec.high
    stay_stay = (2 - h * h - l * l) / 4
    cross = (2 - (h + l)) / 4
    switch_switch = (4 - (h + l) ** 2) / 8
    return ((stay_stay, cross), (cross, switch_switch))


def diagonal_entries(spec: LearningSpec) -> tuple[Fraction, Fraction]:
    """(a, b) with 8 * matrix - (4 - 2h - 2l) * ones == diag(a, b)."""
    l, h = spec.low, spec.high
    a = -2 * h * h + 2 * h - 2 * l * l + 2 * l
    b = 2 * h + 2 * l - (h + l) ** 2
    return a, b


def closed_form_value(spec: LearningSpec) -> Fraction:
    """Single-expression game value; defined when both diagonal entries
    are nonzero (escape probabilities not both in {0, 1})."""
    l, h = spec.low, spec.high
    return (
        HALF
        - l / 4
        - h / 4
        - 1
        / (
            8
            * (
                1 / (2 * h * h - 2 * h + 2 * l * l - 2 * l)
                - 1 / (2 * h + 2 * l - (h + l) ** 2)
            )
        )
    )


@dataclass(frozen=True)
class LearningSolution:
    matrix: Matrix2
    diagonal: tuple[Fraction, Fraction]
    value: Fraction
    diagonal_value: Fraction
    stay_probability: Fraction
    switch_probability: Fraction


def solve(spec: LearningSpec) -> LearningSolution:
    matrix = payoff_matrix(spec)
    a, b = diagonal_entries(spec)
    if a + b == 0:  # both entries vanish: every mix is optimal
        stay, diag_value = HALF, ZERO
    else:
        stay, diag_value = b / (a + b), a * b / (a + b)
    value = (diag_value + 4 - 2 * spec.high - 2 * spec.low) / 8
    return LearningSolution(matrix, (a, b), value, diag_value, stay, 1 - stay)


@dataclass(frozen=True)
class PosteriorResult:
    """Beliefs after a first-round escape, all exact.

    ``high_escape_posterior`` is the Bayes posterior that the escape
    site has the high escape probability, and equals
    ``low_capture_posterior`` (the same event stated about capture);
    the latter is derived independently from the equilibrium identity
    as a consistency surface. ``implied_capture`` is the capture
    probability at the escape site implied by the second-round
    strategies, and ``expected_escape`` its escape-side complement.
    """

    high_escape_posterior: Fraction
    expected_escape: Fraction
    implied_capture: Fraction
    low_capture_posterior: Fraction


def posterior_after_escape(
    spec: LearningSpec, solution: LearningSolution | None = None
) -> PosteriorResult:
    """Belief update after an escape, plus the capture probability the
    equilibrium implicitly assigns to the escape site.

    The implied capture x solves stay * x = switch * (unchanged capture
    chance at the other location): in the second round the players face
    a 2x2 diagonal game between the escape site (capture x) and the
    untouched site (capture 1 - (low + high)/2), and the observed
    stay/switch odds pin x down.
    """
    l, h = spec.low, spec.high
    if l + h == 0:
        raise ValueError("an escape is impossible when both escape probabilities are 0")
    high_posterior = h / (l + h)
    expected_escape = (l * l + h * h) / (l + h)
    sol = solution if solution is not None else solve(spec)
    implied = sol.switch_probability * (1 - (l + h) / 2) / sol.stay_probability
    if h == l:  # equal kinds tell nothing: the fair prior stands
        low_capture = HALF
    else:
        low_capture = ((1 - l) - implied) / (h - l)
    return PosteriorResult(high_posterior, expected_escape, implied, low_capture)


def stay_is_favored(spec: LearningSpec) -> bool:
    """After an escape, do both players return to the same location with
    probability above 1/2?

    Decided by the sign of the diagonal gap: a - b == -(high - low)^2,
    so the stay entry is the smaller diagonal entry (and hence the more
    probable option) exactly when the escape probabilities differ.
    """
    a, b = diagonal_entries(spec)
    return a - b < 0
