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

    def mutate(kind, template):
        arity, qc, delay, _ = gates._GATES[kind]
        monkeypatch.setitem(gates._GATES, kind, (arity, qc, delay, template))
        clear()

    yield mutate
    monkeypatch.undo()
    clear()

