import pytest

from revbcd.designs import build_dec_csk, build_dec_rca, build_pdfa


@pytest.fixture(scope="session")
def pdfa():
    return build_pdfa()


@pytest.fixture(scope="session")
def dec_rca8():
    return build_dec_rca(8)


@pytest.fixture(scope="session")
def dec_csk8():
    return build_dec_csk(8)


@pytest.fixture
def mutate_gate(monkeypatch):
    """Swap one gate kind's statement template for the length of a test.

    `mutate(kind, template)` keeps the kind's undo steps, so a mutated
    gate that is no bijection still fails the inverse run of
    `check_permutation`; `steps=` swaps the undo steps as well, a tuple
    of (kind, pin positions) gates as `gates.undo_steps` returns.
    The block-shape cache and every compiled cache are emptied when the
    swap is made and again when it is undone, so no block or netlist
    compiled under the other semantics is reused.
    """
    from revbcd import gates, ledger, simulator, verify

    def clear():
        for cached in (
            gates.block,
            simulator.compile_netlist,
            ledger.cached_adder,
            verify._compiled_block,
        ):
            cached.cache_clear()

    def mutate(kind, template, steps=None):
        arity, qc, delay, _, kept = gates._GATES[kind]
        row = (arity, qc, delay, template, kept if steps is None else steps)
        monkeypatch.setitem(gates._GATES, kind, row)
        clear()

    yield mutate
    monkeypatch.undo()
    clear()

