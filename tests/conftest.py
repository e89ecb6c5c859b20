import pytest

from evacsim.engine import WorldIndex
from evacsim.population import default_population_spec, synthesize
from evacsim.worldgen import build_demo_world


@pytest.fixture(scope="session")
def demo_world():
    return build_demo_world()


@pytest.fixture(scope="session")
def demo_profiles(demo_world):
    return synthesize(default_population_spec(), demo_world, seed=42)


@pytest.fixture(scope="session")
def demo_index(demo_world, demo_profiles):
    """One index for the demo tests that do not check the timeline memo."""
    return WorldIndex(demo_world, demo_profiles)
