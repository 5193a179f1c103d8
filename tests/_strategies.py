"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from stericpnp.model import make_params


@st.composite
def admissible_params(draw, sigma_term):
    """Random valid ModelParams: z1 > 0 > z2, steric coefficients in [0, 4],
    bulk concentrations in [0.2, 2], sigma in [1e-3, 0.1] if sigma_term else 0."""
    return make_params(
        draw(st.floats(0.5, 3.0)),
        -draw(st.floats(0.5, 3.0)),
        draw(st.floats(0.0, 4.0)),
        draw(st.floats(0.0, 4.0)),
        draw(st.floats(0.0, 4.0)),
        draw(st.floats(0.2, 2.0)),
        draw(st.floats(0.2, 2.0)),
        sigma=draw(st.floats(1e-3, 0.1) if sigma_term else st.just(0.0)),
    )
