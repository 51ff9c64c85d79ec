import hypothesis
import pytest

from torelli import drags

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=60,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("suite")


@pytest.fixture()
def hd12_transvection(monkeypatch):
    """HD(1,2)^e made the transvection x1 |-> x1 x2^e, an automorphism
    outside the Torelli group."""
    real = drags._drag_action

    def action(basis, g, sigma):
        if g == drags.hd(1, 2):
            return drags.Action((), {1: (1, 2 * sigma)})
        return real(basis, g, sigma)

    monkeypatch.setattr(drags, "_drag_action", action)
