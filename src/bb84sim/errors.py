"""Exception types shared across the simulator."""


class DegenerateAncillaError(ValueError):
    """Two signal states map to the same ancilla-overlap value, so the
    overlap table is not one-to-one and cannot identify them."""


class NoMatchError(LookupError):
    """A queried value matches no entry of the ancilla-overlap table."""


class KeyTooShortError(ValueError):
    """The sifted key has too few bits for the requested parity rounds."""


class InvalidParamsError(ValueError):
    """Privacy-amplification parameters admit no output key."""


class LengthMismatchError(ValueError):
    """A bit string does not have the length the operation requires."""


class InvalidConfigError(ValueError):
    """A session or experiment configuration violates its constraints."""


class SessionError(RuntimeError):
    """A session inside an experiment failed.  Carries the session index and
    its seed.  ``batch = run_session(config, build_strategy(config),
    seed)`` replays the failure as a batch of one, where a curve session's
    config is ``replace(config, parity_rounds=max(k_values))``, since a
    curve runs each session once at its largest k.
    By kind:

    * too few sifted bits for the parity rounds: ``run_session`` raises the
      same ``KeyTooShortError``;
    * too few bits for privacy amplification: the session is undetected
      (``not batch.detected[0]``), and
      ``PrivacyParams(len(batch.reconciled(0)[0]), t, s)`` raises the same
      ``InvalidParamsError``;
    * no sifted bit for a forced flip, or in a curve session (which needs
      a nonempty key even at k = 0): the sifted key is empty
      (``batch.lengths[0] == 0``).
    """

    def __init__(self, session_index: int, seed: int, message: str):
        super().__init__(f"session {session_index} (seed {seed}): {message}")
        self.session_index = session_index
        self.seed = seed
