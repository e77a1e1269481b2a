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
    """Swap one gate kind's applier factory for the length of a test.

    Every compiled cache is emptied when the swap is made and again when
    it is undone, so no netlist compiled under the other semantics is
    reused.
    """
    from revbcd import gates, ledger, simulator, verify

    def clear():
        for cached in (
            simulator.compile_netlist,
            ledger.adder_port,
            ledger.cached_adder,
            verify._compiled_block,
        ):
            cached.cache_clear()

    def mutate(kind, factory):
        arity, qc, delay, _ = gates._GATES[kind]
        monkeypatch.setitem(gates._GATES, kind, (arity, qc, delay, factory))
        clear()

    yield mutate
    monkeypatch.undo()
    clear()

