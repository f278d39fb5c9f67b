import random

import pytest

import drawlab as dl

# scenario 24 = constraints A and B: with the confederation labels below this
# forbids exactly the pairs (1,4) and (3,6) of the worked six-team example
EXAMPLE1_SCENARIO = 24

ACCEPTANCE_LINES = []


def record_acceptance(num, ok, detail):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ihf():
    return dl.get_instance("ihf2025")


@pytest.fixture(scope="session")
def example1():
    """Six teams, two pots, three groups; pairs (1,4) and (3,6) forbidden."""
    return dl.build_instance(
        [
            [("1", "Africa"), ("2", "North America"), ("3", "Asia")],
            [("4", "Africa"), ("5", "South America"), ("6", "Asia")],
        ],
        name="example1",
    )


@pytest.fixture(scope="session")
def example1_constraints():
    return dl.scenario_constraints(EXAMPLE1_SCENARIO)


_CONF_POOL = ["Africa", "Asia", "Europe", "North America", "South America"]


def random_instance(rng: random.Random, max_pots=3, max_teams=4, host=True):
    """Small random instance with confederations the constraints can bind to."""
    m = rng.randint(2, max_pots)
    n = rng.randint(3, max_teams)
    pots = []
    tid = 0
    for _ in range(m):
        pot = []
        for _ in range(n):
            pot.append((f"t{tid}", rng.choice(_CONF_POOL)))
            tid += 1
        pots.append(pot)
    host_names = []
    if host and rng.random() < 0.5:
        k = rng.randint(2, n)
        host_names = rng.sample([nm for pot in pots for nm, _ in pot], k)
    europe = "Europe" if any(c == "Europe" for pot in pots for _, c in pot) else None
    return dl.build_instance(
        pots, host_exclusion=host_names, europe=europe, name="toy"
    )


def many_groups_instance():
    """24 groups of three pots: pot 1 all European, pots 2 and 3 half so."""
    others = ["Africa", "Asia", "North America", "South America"]
    n = 24
    pots = [[(f"e0_{i}", "Europe") for i in range(n)]]
    for k in (1, 2):
        pots.append(
            [(f"e{k}_{i}", "Europe") for i in range(n // 2)]
            + [(f"o{k}_{i}", others[i % 4]) for i in range(n // 2)]
        )
    return dl.build_instance(pots, europe="Europe")


def random_feasible_case(rng: random.Random, max_pots=3, max_teams=4, budget=200000):
    """(instance, constraints, exact uniform distribution), guaranteed feasible."""
    while True:
        inst = random_instance(rng, max_pots=max_pots, max_teams=max_teams)
        scenario = rng.randrange(32)
        cs = dl.scenario_constraints(scenario)
        try:
            exact = dl.enumerate_uniform(inst, cs, budget=budget)
        except (dl.InfeasibleScenarioError, dl.EnumerationBudgetError):
            continue
        return inst, cs, exact
